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
    if weighting not in WEIGHTINGS:
        raise MetlitError(f"weighting must be one of {WEIGHTINGS}")
    if window < 1:
        raise MetlitError("window must be >= 1")
    tokens, sentence_ids = flatten(sentences)
    n = len(tokens)
    owner = np.append(sentence_ids, -1)  # -1: every partner past the end
    window = min(window, max(map(len, sentences), default=1) - 1)
    # partner[a, d] is position a + d + 1, at distance d + 1, or n past the end
    partner = np.minimum(np.arange(n)[:, None] + np.arange(1, window + 1), n)
    # row-major order is position, then distance, with (i, j) before (j, i):
    # the order of a running sum per pair. np.bincount adds its weights in
    # input order, so each X_ij equals that running sum to the last bit.
    a, d = np.nonzero(owner[partner] == owner[:-1, None])
    i = tokens[a].astype(np.uint64)
    j = tokens[partner[a, d]].astype(np.uint64)
    weights = np.ones(len(d)) if weighting == "flat" else 1.0 / (d + 1.0)
    pairs = np.stack([i << 32 | j, j << 32 | i], axis=1).ravel()
    del partner, a, d, i, j  # free the position arrays before the sort
    keys, slot = np.unique(pairs, return_inverse=True)
    table = np.empty(len(keys), dtype=RECORD)
    table["i"], table["j"] = keys >> 32, keys & 0xFFFFFFFF
    table["x"] = np.bincount(slot, weights=np.repeat(weights, 2))
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
