"""Aggregate labeled phrases into fixed-length sentence vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import LABELS, MetlitError
from .corpus import LabeledPhrase, parse_count, parse_floats, read_lines
from .embeddings import EmbeddingMatrix, format_floats

MODES = ("mean", "sum")


@dataclass
class SentenceVector:
    values: np.ndarray
    label: str
    covered: int   # tokens found in the vocabulary
    total: int     # all tokens in the phrase

    @property
    def coverage(self) -> float:
        return self.covered / self.total if self.total else 0.0


@dataclass
class CoverageReport:
    class_counts: dict[str, int]
    mean_coverage: float
    excluded: list[int]  # indices of phrases with no in-vocabulary token


def aggregate(
    phrase: LabeledPhrase, embeddings: EmbeddingMatrix, mode: str = "mean"
) -> SentenceVector:
    """Mean (default) or sum of the embeddings of in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped and counted, never zero-filled:
    zero vectors would bias the mean toward the origin. A phrase with no
    covered token comes back with covered=0 and a zero vector; callers
    must exclude it downstream.
    """
    if mode not in MODES:
        raise MetlitError(f"mode must be one of {MODES}")
    rows = [embeddings.vector(t) for t in phrase.tokens if t in embeddings]
    if not rows:
        values = np.zeros(embeddings.dim)
    else:
        stacked = np.stack(rows)
        values = stacked.mean(axis=0) if mode == "mean" else stacked.sum(axis=0)
    return SentenceVector(
        values=values, label=phrase.label, covered=len(rows), total=len(phrase.tokens)
    )


def embed_dataset(
    phrases: list[LabeledPhrase],
    embeddings: EmbeddingMatrix,
    mode: str = "mean",
) -> tuple[list[SentenceVector], CoverageReport]:
    """Aggregate every phrase; exclude and report uncoverable ones."""
    if not phrases:
        raise MetlitError("empty phrase list")
    vectors: list[SentenceVector] = []
    excluded: list[int] = []
    class_counts = {label: 0 for label in LABELS}
    coverage_sum = 0.0
    for idx, phrase in enumerate(phrases):
        sv = aggregate(phrase, embeddings, mode)
        if sv.covered == 0:
            excluded.append(idx)
            continue
        vectors.append(sv)
        class_counts[sv.label] += 1
        coverage_sum += sv.coverage
    if not vectors:
        raise MetlitError("all phrases uncoverable: no token in vocabulary")
    report = CoverageReport(
        class_counts=class_counts,
        mean_coverage=coverage_sum / len(vectors),
        excluded=excluded,
    )
    return vectors, report


def save_sentence_vectors(vectors: list[SentenceVector], path: str) -> None:
    """Write one `<label> <covered>/<total> <v1> ... <vD>` line per phrase."""
    with open(path, "w", encoding="utf-8") as fh:
        for sv in vectors:
            fh.write(f"{sv.label} {sv.covered}/{sv.total} {format_floats(sv.values)}\n")


def load_sentence_vectors(path: str) -> list[SentenceVector]:
    """Read the `save_sentence_vectors` format, rejecting malformed rows.

    Every row must hold a known label, a `covered/total` field with
    0 <= covered <= total, and finite values, as many as the first row.
    Errors name the path and line.
    """
    vectors: list[SentenceVector] = []
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
        values = parse_floats(parts[2:], where, len(vectors[0].values) if vectors else None)
        vectors.append(SentenceVector(values, label, int(covered), int(total)))
    if not vectors:
        raise MetlitError(f"{path}: empty sentence-vector file")
    return vectors
