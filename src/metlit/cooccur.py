"""Sparse symmetric co-occurrence counting.

A table is one array of RECORD sorted by (i, j), holding both orientations
(i, j) and (j, i) of every pair; save_table writes it as it is.
"""

from __future__ import annotations

import os

import numpy as np

from . import MetlitError
from .corpus import Encoded

WEIGHTINGS = ("flat", "inverse_distance")

# little-endian u32 word ids + f64 weighted count, fixed width for
# out-of-core streaming of large tables
RECORD = np.dtype([("i", "<u4"), ("j", "<u4"), ("x", "<f8")])

CHUNK_PAIRS = 1 << 17  # position pairs per merge while the table is smaller


def build_cooccurrence(
    sentences: Encoded,
    window: int = 10,
    weighting: str = "inverse_distance",
) -> np.ndarray:
    """Count co-occurring id pairs within `window` positions per sentence.

    Each in-window position pair (distance d <= window) contributes 1
    (flat) or 1/d (inverse_distance) to both X_ij and X_ji, twice to X_ii
    when i == j. Windows never cross sentence boundaries. The position
    pairs are counted CHUNK_PAIRS at a time, or as many as the running
    table has keys, so working memory follows the table, not the corpus.
    """
    tokens, lengths = sentences.tokens, sentences.lengths()
    window = min(window, int(lengths.max(initial=1)) - 1)
    # position a pairs with the span[a] positions after it in its sentence, so
    # pair k (from 0, in position-then-distance order) joins the first position
    # a with last[a] > k to the one at distance k - last[a] + span[a] + 1
    span = np.repeat(sentences.offsets[1:], lengths) - np.arange(len(tokens)) - 1
    np.minimum(span, window, out=span)
    last, total = np.cumsum(span), int(span.sum())
    # one key (min, max) per pair takes the weights of X_ij and X_ji, twice on
    # the diagonal, and is mirrored at the end; np.bincount adds in input order,
    # the running totals first, so each X_ij equals the running sum to the bit
    keys, x, stop = np.empty(0, np.uint64), np.empty(0), 0
    while stop < total:
        k, stop = stop, min(stop + max(CHUNK_PAIRS, len(keys)), total)
        a = np.searchsorted(last, np.arange(k, stop), "right")
        d = np.arange(k + 1, stop + 1) - last[a] + span[a]
        i, j = tokens[a].astype(np.uint64), tokens[a + d].astype(np.uint64)
        times = 1 + (i == j)
        weights = np.repeat(np.ones(len(d)) if weighting == "flat" else 1.0 / d, times)
        weights = np.concatenate([x, weights])
        pairs = np.concatenate([keys, np.repeat(np.minimum(i, j) << 32 | np.maximum(i, j), times)])
        del a, d, i, j, times, keys, x
        keys, slot = np.unique(pairs, return_inverse=True)
        x = np.bincount(slot, weights)
        del pairs, weights, slot
    off = keys >> 32 != keys & 0xFFFFFFFF
    keys = np.concatenate([keys, keys[off] << 32 | keys[off] >> 32])  # (j, i)
    order = np.argsort(keys)
    keys, x = keys[order], np.concatenate([x, x[off]])[order]
    del order
    table = np.empty(len(keys), dtype=RECORD)
    table["i"], table["j"], table["x"] = keys >> 32, keys & 0xFFFFFFFF, x
    return table


def save_table(table: np.ndarray, path: str) -> None:
    table.tofile(path)


def load_table(path: str) -> np.ndarray:
    """Read a table written by save_table.

    Rejects, naming the path and the record (counted from 1), a partial
    record, keys not strictly increasing in (i, j) order, and counts that
    are not finite and > 0.
    """
    size = os.path.getsize(path)
    if size % RECORD.itemsize:
        raise MetlitError(f"{path}: size {size} is not a multiple of {RECORD.itemsize}")
    table = np.fromfile(path, dtype=RECORD)
    keys = table["i"].astype(np.uint64) << 32 | table["j"]
    unordered = np.flatnonzero(keys[1:] <= keys[:-1])
    if len(unordered):
        k = unordered[0] + 1
        raise MetlitError(f"{path}: record {k + 1} does not follow record {k} in (i, j) order")
    x = table["x"]
    bad = np.flatnonzero(~(np.isfinite(x) & (x > 0)))
    if len(bad):
        k = bad[0]
        raise MetlitError(f"{path}: record {k + 1}: count {x[k]} is not finite and > 0")
    return table
