"""Sparse symmetric co-occurrence counting.

A table is one array of RECORD sorted by (i, j), holding both orientations
(i, j) and (j, i) of every pair; save_table writes it as it is.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from . import MetlitError
from .corpus import flatten

WEIGHTINGS = ("flat", "inverse_distance")

# little-endian u32 word ids + f64 weighted count, fixed width for
# out-of-core streaming of large tables
RECORD = np.dtype([("i", "<u4"), ("j", "<u4"), ("x", "<f8")])


def build_cooccurrence(
    sentences: Sequence[Sequence[int]],
    window: int = 10,
    weighting: str = "inverse_distance",
) -> np.ndarray:
    """Count co-occurring id pairs within `window` positions per sentence.

    Each in-window position pair (distance d <= window) contributes 1
    (flat) or 1/d (inverse_distance) to both X_ij and X_ji, twice to X_ii
    when i == j. Windows never cross sentence boundaries.
    """
    tokens, sentence_ids = flatten(sentences)
    n = len(tokens)
    owner = np.append(sentence_ids, -1)  # -1: every partner past the end
    window = min(window, max(map(len, sentences), default=1) - 1)
    # partner[a, d] is position a + d + 1, at distance d + 1, or n past the end
    partner = np.minimum(np.arange(n)[:, None] + np.arange(1, window + 1), n)
    # Row-major order is position, then distance: a running sum's order. X_ij
    # and X_ji gain every weight of the pair, so one key (min, max) is counted
    # per pair, twice in place on the diagonal, then mirrored. np.bincount adds
    # in input order, so each X_ij equals the running sum to the last bit.
    a, d = np.nonzero(owner[partner] == owner[:-1, None])
    del partner  # free each position array once it is used
    i, j = tokens[a].astype(np.uint64), tokens[a + d + 1].astype(np.uint64)
    weights = np.ones(len(d)) if weighting == "flat" else 1.0 / (d + 1.0)
    del a, d
    times = 1 + (i == j)
    pairs = np.repeat(np.minimum(i, j) << 32 | np.maximum(i, j), times)
    weights = np.repeat(weights, times)
    del i, j, times
    keys, slot = np.unique(pairs, return_inverse=True)
    del pairs
    x = np.bincount(slot, weights=weights)
    off = keys >> 32 != keys & 0xFFFFFFFF
    keys = np.concatenate([keys, keys[off] << 32 | keys[off] >> 32])  # (j, i)
    order = np.argsort(keys)
    keys, x = keys[order], np.concatenate([x, x[off]])[order]
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
