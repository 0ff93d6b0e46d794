"""Aggregate labeled phrases into fixed-length sentence vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import LABELS
from .corpus import LabeledPhrase
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
        raise ValueError(f"mode must be one of {MODES}")
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
        raise ValueError("empty phrase list")
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
        raise ValueError("all phrases uncoverable: no token in vocabulary")
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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}, line {lineno}"
            if len(parts) < 3:
                raise ValueError(f"{where}: expected label, coverage, values")
            label, cover = parts[0], parts[1]
            if label not in LABELS:
                raise ValueError(f"{where}: unknown label {label!r}")
            covered, _, total = cover.partition("/")
            if not (covered.isdecimal() and total.isdecimal()
                    and int(covered) <= int(total)):
                raise ValueError(f"{where}: coverage must be covered/total, got {cover!r}")
            try:
                values = np.array([float(p) for p in parts[2:]])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not np.isfinite(values).all():
                raise ValueError(f"{where}: non-finite value")
            if vectors and len(values) != len(vectors[0].values):
                raise ValueError(
                    f"{where}: {len(values)} values, the first row has "
                    f"{len(vectors[0].values)}"
                )
            vectors.append(
                SentenceVector(values, label, covered=int(covered), total=int(total))
            )
    if not vectors:
        raise ValueError(f"{path}: empty sentence-vector file")
    return vectors
