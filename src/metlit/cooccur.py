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
CHECK_RECORDS = 1 << 16  # records load_table checks at a time, not the whole table


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
    if weighting not in WEIGHTINGS:
        raise MetlitError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    tokens, lengths = sentences.tokens, sentences.lengths()
    window = min(window, int(lengths.max(initial=1)) - 1)
    # position a pairs with the span[a] positions after it in its sentence, so
    # pairs last[a] - span[a] to last[a] - 1 (from 0, in position-then-distance
    # order) join a to the positions at distances 1 to span[a]
    span = np.repeat(sentences.offsets[1:], lengths) - np.arange(len(tokens)) - 1
    np.minimum(span, window, out=span)
    last, total = np.cumsum(span), int(span.sum())
    # one key (min, max) per pair takes the weights of X_ij and X_ji, twice on
    # the diagonal, and is mirrored at the end; np.bincount adds in input order,
    # the running totals first, so each X_ij equals the running sum to the bit.
    # Each array is deleted once used: together they set the count's peak.
    keys, x, stop = np.empty(0, np.uint64), np.empty(0), 0
    while stop < total:
        k, stop = stop, min(stop + max(CHUNK_PAIRS, len(keys)), total)
        a0, a1 = np.searchsorted(last, [k, stop - 1], "right")  # holding pairs k and stop - 1
        a = np.repeat(np.arange(a0, a1 + 1), span[a0:a1 + 1])[k - last[a0] + span[a0]:][:stop - k]
        d = np.arange(k + 1, stop + 1) - last[a] + span[a]
        i, j = tokens[a], tokens[a + d]
        del a
        times = 1 + (i == j)
        pairs = np.minimum(i, j).astype(np.uint64) << 32 | np.maximum(i, j).astype(np.uint64)
        pairs = np.repeat(pairs, times)
        del i, j
        weights = np.repeat(np.ones(len(d)) if weighting == "flat" else 1.0 / d, times)
        del d, times
        # only the chunk is sorted; its keys are found in the running keys or
        # inserted into them, which keeps them sorted
        chunk, slot = np.unique(pairs, return_inverse=True)
        del pairs
        slot = np.concatenate([np.arange(len(chunk)), slot])
        at = np.searchsorted(keys, chunk)
        found = at < len(keys)
        found[found] = keys[at[found]] == chunk[found]
        start = np.zeros(len(chunk))
        start[found] = x[at[found]]
        weights = np.concatenate([start, weights])
        del start
        sums = np.bincount(slot, weights)
        del slot, weights
        x[at[found]] = sums[found]
        new = ~found
        keys, x = np.insert(keys, at[new], chunk[new]), np.insert(x, at[new], sums[new])
        del chunk, at, found, new, sums
    del span, last
    # row i holds its mirrored records (i, j < i) in the order of j, then its
    # own keys (i, j >= i). Stably sorted by their larger id, the off-diagonal
    # keys give the mirrored records in table order, each in the place of its
    # rank plus the keys of the rows before its own; the keys fill the other
    # places in their order
    lo, hi = (keys >> 32).astype(np.uint32), (keys & 0xFFFFFFFF).astype(np.uint32)
    del keys
    order = np.flatnonzero(lo != hi)
    order = order[np.argsort(hi[order], kind="stable")]
    place = np.searchsorted(lo, hi[order])
    place += np.arange(len(order))
    table = np.empty(len(lo) + len(order), dtype=RECORD)
    own = np.ones(len(table), dtype=bool)
    own[place] = False
    table["i"][own], table["j"][own], table["x"][own] = lo, hi, x
    del own
    table["i"][place] = hi[order]
    del hi
    table["j"][place] = lo[order]
    del lo
    table["x"][place] = x[order]
    return table


def save_table(table: np.ndarray, path: str) -> None:
    table.tofile(path)


def load_table(path: str) -> np.ndarray:
    """Read a table written by save_table.

    Rejects, naming the path and the record (counted from 1), a partial
    record, keys not strictly increasing in (i, j) order, and counts that
    are not finite and > 0, checking CHECK_RECORDS records at a time.
    """
    size = os.path.getsize(path)
    if size % RECORD.itemsize:
        raise MetlitError(f"{path}: size {size} is not a multiple of {RECORD.itemsize}")
    table = np.fromfile(path, dtype=RECORD)
    starts = range(0, len(table), CHECK_RECORDS)
    for a in starts:  # each slice with the next one's first record
        part = table[a:a + CHECK_RECORDS + 1]
        i, j = part["i"], part["j"]
        unordered = np.flatnonzero((i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1])))
        if len(unordered):
            k = a + unordered[0] + 1
            raise MetlitError(f"{path}: record {k + 1} does not follow record {k} in (i, j) order")
    for a in starts:
        x = table["x"][a:a + CHECK_RECORDS]
        bad = np.flatnonzero(~(np.isfinite(x) & (x > 0)))
        if len(bad):
            raise MetlitError(f"{path}: record {a + bad[0] + 1}: count {x[bad[0]]} "
                              "is not finite and > 0")
    return table
