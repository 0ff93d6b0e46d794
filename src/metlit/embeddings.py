"""Dense word embedding matrix with the shared text file format."""

from __future__ import annotations

from array import array

import numpy as np

from . import MetlitError
from .corpus import WordTable, parse_count, parse_floats, read_lines


class EmbeddingMatrix(WordTable):
    """The word table with one D-dimensional vector per word, in id order."""

    def __init__(self, words: list[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(words):
            raise MetlitError("vectors must be a (len(words), D) matrix")
        super().__init__(words)
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


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
        raise MetlitError(f"{where}: embedding header must be '<V> <D>'")
    n_words, dim = (parse_count(size, where) for size in sizes)
    words: dict[str, None] = {}
    rows = array("d")  # every row's values, one row after another
    for where, line in lines:
        word, *values = line.split() or [""]
        if len(words) == n_words:
            raise MetlitError(f"{where}: more rows than the {n_words} of the header")
        if word in words:
            raise MetlitError(f"{where}: duplicate word {word!r}")
        rows.frombytes(parse_floats(values, where, dim).tobytes())
        words[word] = None
    if len(words) != n_words:
        raise MetlitError(f"{path}: {len(words)} rows, the header says {n_words}")
    words = list(words)  # frees the dict before the matrix builds its own word map
    return EmbeddingMatrix(words, np.frombuffer(rows).reshape(n_words, dim))
