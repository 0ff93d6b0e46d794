"""Sparse symmetric co-occurrence counting, and the context window record."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

WEIGHTINGS = ("flat", "inverse_distance")

# little-endian u32 word ids + f64 weighted count, fixed width for
# out-of-core streaming of large tables
_RECORD = struct.Struct("<IId")


@dataclass
class ContextWindow:
    center: int
    context: list[int]


class CooccurrenceTable:
    """Map (i, j) -> X_ij, stored symmetrically: both (i, j) and (j, i) keys."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.entries: dict[tuple[int, int], float] = {}

    def add(self, i: int, j: int, weight: float) -> None:
        """Add weight to X_ij and X_ji (twice to X_ii when i == j)."""
        self.entries[(i, j)] = self.entries.get((i, j), 0.0) + weight
        self.entries[(j, i)] = self.entries.get((j, i), 0.0) + weight

    def __len__(self) -> int:
        return len(self.entries)

    def total_mass(self) -> float:
        return sum(self.entries.values())

    def sorted_items(self) -> list[tuple[tuple[int, int], float]]:
        return sorted(self.entries.items())


def build_cooccurrence(
    sentences: Iterable[Sequence[int]],
    window: int = 10,
    weighting: str = "inverse_distance",
    num_words: int | None = None,
) -> CooccurrenceTable:
    """Count co-occurring id pairs within `window` positions per sentence.

    Each in-window position pair (distance d <= window) contributes 1
    (flat) or 1/d (inverse_distance) to both X_ij and X_ji. Windows never
    cross sentence boundaries.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}")
    table = CooccurrenceTable(window=window)
    for ids in sentences:
        n = len(ids)
        for a in range(n):
            i = ids[a]
            if num_words is not None and not 0 <= i < num_words:
                raise ValueError(f"word id {i} outside vocabulary")
            for d in range(1, min(window, n - 1 - a) + 1):
                j = ids[a + d]
                weight = 1.0 if weighting == "flat" else 1.0 / d
                table.add(i, j, weight)
    return table


def save_table(table: CooccurrenceTable, path: str) -> None:
    """Write fixed-width (u32 i, u32 j, f64 X_ij) records in sorted key order."""
    with open(path, "wb") as fh:
        for (i, j), value in table.sorted_items():
            fh.write(_RECORD.pack(i, j, value))


def load_table(path: str, window: int = 10) -> CooccurrenceTable:
    table = CooccurrenceTable(window=window)
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) % _RECORD.size != 0:
        raise ValueError(f"co-occurrence file size not a multiple of {_RECORD.size}")
    for offset in range(0, len(data), _RECORD.size):
        i, j, value = _RECORD.unpack_from(data, offset)
        table.entries[(i, j)] = value
    return table
