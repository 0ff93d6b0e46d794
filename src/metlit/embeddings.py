"""Dense word embedding matrix with the shared text file format, and the
minibatch scatter plan both trainers update their rows by."""

from __future__ import annotations

import numpy as np

from . import MetlitError
from .corpus import CorpusError, parse_count, parse_floats, read_lines


class EmbeddingMatrix:
    """One D-dimensional vector per vocabulary word, in id order."""

    def __init__(self, words: list[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(words):
            raise MetlitError("vectors must be a (len(words), D) matrix")
        self.words = list(words)
        self.vectors = vectors
        self._ids = {w: i for i, w in enumerate(self.words)}
        if len(self._ids) != len(self.words):
            raise MetlitError("duplicate word in embeddings")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def ids(self, tokens) -> list[int]:
        """Row ids of the in-vocabulary tokens, in order; the rest are skipped."""
        return [self._ids[t] for t in tokens if t in self._ids]


def batch_plan(
    ids: np.ndarray, n_rows: int, batch: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(ids[b:b + batch], return_inverse=True) for every batch at once.

    `ids` is an (N, w) array of row ids below `n_rows`, cut into batches of
    `batch` rows (the last may be shorter). Returns (touched, starts, slot):
    batch k's sorted distinct ids are touched[starts[k]:starts[k + 1]], and
    slot[r, c] is the place of ids[r, c] among its batch's distinct ids.
    """
    batch_of = np.arange(len(ids)) // batch
    keys, slot = np.unique(batch_of[:, None] * n_rows + ids, return_inverse=True)
    starts = np.searchsorted(keys, np.arange(batch_of[-1] + 2) * n_rows)
    # numpy 1.x returns the inverse flat, numpy 2.x in the shape of its input
    slot = slot.reshape(ids.shape) - starts[batch_of, None]
    return keys % n_rows, starts, slot


def format_floats(values) -> str:
    # repr round-trips float64 exactly, keeping saved artifacts lossless
    # and byte-reproducible.
    return " ".join(repr(float(v)) for v in values)


def save_embeddings(emb: EmbeddingMatrix, path: str) -> None:
    """Write `<V> <D>` then one `<word> <v1> ... <vD>` line per word."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(emb)} {emb.dim}\n")
        for word, row in zip(emb.words, emb.vectors):
            fh.write(f"{word} {format_floats(row)}\n")


def load_embeddings(path: str) -> EmbeddingMatrix:
    """Read the `save_embeddings` format: a `<V> <D>` header, then V rows."""
    lines = read_lines(path)
    where, header = next(lines, (path, ""))
    sizes = header.split()
    if len(sizes) != 2:
        raise CorpusError(f"{where}: embedding header must be '<V> <D>'")
    n_words, dim = (parse_count(size, where) for size in sizes)
    rows: dict[str, np.ndarray] = {}
    for where, line in lines:
        word, *values = line.split() or [""]
        if len(rows) == n_words:
            raise CorpusError(f"{where}: more rows than the {n_words} of the header")
        if word in rows:
            raise CorpusError(f"{where}: duplicate word {word!r}")
        rows[word] = parse_floats(values, where, dim)
    if len(rows) != n_words:
        raise CorpusError(f"{path}: {len(rows)} rows, the header says {n_words}")
    return EmbeddingMatrix(list(rows), np.array(list(rows.values())).reshape(n_words, dim))
