"""Aggregate labeled phrases into fixed-length sentence vectors."""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from . import LABELS, LITERAL, METAPHOR, MetlitError
from .corpus import LabeledPhrase, parse_count, parse_floats, read_lines
from .embeddings import EmbeddingMatrix, format_floats

MODES = ("mean", "sum")
SLICE = 1024  # phrase tokens whose rows are gathered and summed at a time


@dataclass
class SentenceVectors:
    """One row per phrase; metaphor is the positive class throughout."""

    values: np.ndarray    # (n, D) float64
    metaphor: np.ndarray  # (n,) bool; False is literal
    covered: np.ndarray   # (n,) tokens found in the vocabulary
    total: np.ndarray     # (n,) all tokens in the phrase

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows) -> SentenceVectors:
        return SentenceVectors(
            self.values[rows], self.metaphor[rows], self.covered[rows], self.total[rows]
        )


@dataclass
class CoverageReport:
    class_counts: dict[str, int]
    mean_coverage: float
    excluded: list[int]  # indices of phrases with no in-vocabulary token


def embed_dataset(
    phrases: list[LabeledPhrase],
    embeddings: EmbeddingMatrix,
    mode: str = "mean",
) -> tuple[SentenceVectors, CoverageReport]:
    """Mean (default) or sum of each phrase's in-vocabulary token embeddings.

    Out-of-vocabulary tokens are skipped and counted, never zero-filled:
    zero vectors would bias the mean toward the origin. A phrase with no
    covered token gets no row and is reported as excluded. A sum past the
    float range is an error naming the phrase, counted from 1.
    """
    if mode not in MODES:
        raise MetlitError(f"mode must be one of {MODES}, got {mode!r}")
    if not phrases:
        raise MetlitError("empty phrase list")
    ids = [embeddings.ids(phrase.tokens) for phrase in phrases]
    covered = np.array([len(row) for row in ids])
    kept = np.flatnonzero(covered)
    if not len(kept):
        raise MetlitError("all phrases uncoverable: no token in vocabulary")
    # Rows are summed token by token, in phrase order, from -0.0 (which,
    # unlike 0.0, leaves every addend's sign alone), SLICE tokens at a time.
    values = np.full((len(phrases), embeddings.dim), -0.0)
    owner = np.repeat(np.arange(len(phrases)), covered)
    flat = [i for row in ids for i in row]
    with np.errstate(over="ignore"):  # a sum past the float range is named below
        for a in range(0, len(flat), SLICE):
            np.add.at(values, owner[a:a + SLICE], embeddings.vectors[flat[a:a + SLICE]])
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        raise MetlitError(f"phrase {bad[0] + 1}: the sum of its token vectors is not finite")
    vectors = SentenceVectors(
        values=values[kept],
        metaphor=np.array([phrases[i].label == METAPHOR for i in kept]),
        covered=covered[kept],
        total=np.array([len(phrases[i].tokens) for i in kept]),
    )
    if mode == "mean":
        vectors.values /= vectors.covered[:, None]
    n_metaphor = int(np.count_nonzero(vectors.metaphor))
    report = CoverageReport(
        class_counts={LITERAL: len(kept) - n_metaphor, METAPHOR: n_metaphor},
        mean_coverage=sum((vectors.covered / vectors.total).tolist()) / len(kept),
        excluded=np.flatnonzero(covered == 0).tolist(),
    )
    return vectors, report


def save_sentence_vectors(vectors: SentenceVectors, path: str) -> None:
    """Write one `<label> <covered>/<total> <v1> ... <vD>` line per phrase."""
    with open(path, "w", encoding="utf-8") as fh:
        for metaphor, covered, total, row in zip(
            vectors.metaphor.tolist(), vectors.covered.tolist(),
            vectors.total.tolist(), vectors.values,
        ):
            fh.write(f"{LABELS[metaphor]} {covered}/{total} {format_floats(row)}\n")


def load_sentence_vectors(path: str) -> SentenceVectors:
    """Read the `save_sentence_vectors` format, rejecting malformed rows.

    Every row must hold a known label, a `covered/total` field with
    0 <= covered <= total, and finite values, as many as the first row.
    Errors name the path and line.
    """
    rows = array("d")  # every row's values, one row after another
    metaphor: list[bool] = []
    counts: list[tuple[int, int]] = []
    for where, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 3:
            raise MetlitError(f"{where}: expected label, coverage, values")
        label, cover = parts[0], parts[1]
        if label not in LABELS:
            raise MetlitError(f"{where}: unknown label {label!r}")
        covered, _, total = cover.partition("/")
        if not (covered.isdecimal() and total.isdecimal()
                and parse_count(covered, where) <= parse_count(total, where)):
            raise MetlitError(f"{where}: coverage must be covered/total, got {cover!r}")
        dim = len(rows) // len(metaphor) if metaphor else None
        rows.frombytes(parse_floats(parts[2:], where, dim).tobytes())
        metaphor.append(label == METAPHOR)
        counts.append((int(covered), int(total)))
    if not metaphor:
        raise MetlitError(f"{path}: empty sentence-vector file")
    covered, total = np.array(counts).T
    values = np.frombuffer(rows).reshape(len(metaphor), -1)
    return SentenceVectors(values, np.array(metaphor), covered, total)
