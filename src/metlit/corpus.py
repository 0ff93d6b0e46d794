"""Corpus ingestion (tokenization, vocabulary, labeled phrases) and the line
reader and number parsers behind every text artifact reader."""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import LABELS, MetlitError

# Maximal runs of Unicode letters/digits (\w minus the underscore).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class CorpusError(MetlitError):
    """Raised on malformed corpus input (encoding, format, empty vocabulary)."""


def tokenize(text: str) -> list[str]:
    """Split text into NFC-normalized, lowercased letter/digit runs.

    Punctuation and whitespace are dropped; token order is preserved.
    """
    normalized = unicodedata.normalize("NFC", text).lower()
    return _TOKEN_RE.findall(normalized)


def read_lines(path: str) -> Iterator[tuple[str, str]]:
    """Yield `("<path>, line N", text)` per UTF-8 line, terminator kept, leading BOM dropped."""
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path}, line {lineno}"
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(
                    f"{where}: invalid UTF-8 at byte {offset + exc.start}"
                ) from None
            if lineno == 1:
                text = text.removeprefix("\ufeff")
            yield where, text
            offset += len(raw)


def parse_floats(fields: Sequence[str], where: str, count: int | None = None) -> np.ndarray:
    """The fields as finite float64 values, exactly `count` of them if given.

    Per-value float() parses repr output exactly, as fast as numpy parses strings.
    """
    if count is not None and len(fields) != count:
        raise CorpusError(f"{where}: {len(fields)} values, the file has {count} per row")
    try:
        values = np.array([float(f) for f in fields])
    except ValueError as exc:  # float() names the field
        raise CorpusError(f"{where}: {exc}") from None
    if not np.isfinite(values).all():
        raise CorpusError(f"{where}: non-finite value")
    return values


def parse_count(field: str, where: str) -> int:
    """A decimal count of at most 18 digits, so it fits an int64."""
    if not (field.isdecimal() and len(field) <= 18):
        raise CorpusError(f"{where}: {field!r} is not a count")
    return int(field)


def read_corpus_lines(path: str) -> Iterator[list[str]]:
    """Yield one token list per line of a UTF-8 text file.

    Newlines delimit sentences: downstream windows never cross them.
    """
    for _, line in read_lines(path):
        yield tokenize(line)


class Vocabulary:
    """Bidirectional word<->id map with corpus frequencies.

    Ids are dense 0..len-1, assigned by descending frequency with
    lexicographic tie-break, so construction is deterministic.
    """

    def __init__(self, words: list[str], freq: dict[str, int]):
        self.words = list(words)
        self.freq = dict(freq)
        self._ids = {w: i for i, w in enumerate(self.words)}
        if len(self._ids) != len(self.words):
            raise CorpusError("duplicate word in vocabulary")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map tokens to ids, silently dropping out-of-vocabulary tokens."""
        ids = self._ids
        return [ids[t] for t in tokens if t in ids]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.words == other.words and self.freq == other.freq


def flatten(sentences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Encoded sentences back to back: token ids, and each token's sentence id."""
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    tokens = np.fromiter((w for s in sentences for w in s), np.int64, int(lengths.sum()))
    return tokens, np.repeat(np.arange(len(lengths)), lengths)


def count_tokens(sentences: Iterable[Iterable[str]]) -> Counter:
    """Count token frequencies over an iterable of token lists."""
    counts: Counter = Counter()
    for sentence in sentences:
        counts.update(sentence)
    return counts


def vocabulary_from_counts(counts: Counter, min_count: int = 1) -> Vocabulary:
    retained = [(w, c) for w, c in counts.items() if c >= min_count]
    if not retained:
        raise CorpusError(
            f"empty vocabulary: no token reaches min_count={min_count}"
        )
    retained.sort(key=lambda wc: (-wc[1], wc[0]))
    words = [w for w, _ in retained]
    return Vocabulary(words, dict(retained))


def build_vocabulary(
    sentences: Iterable[Iterable[str]], min_count: int = 5
) -> Vocabulary:
    """Count a finite token stream and retain tokens with freq >= min_count."""
    return vocabulary_from_counts(count_tokens(sentences), min_count)


def save_vocabulary(vocab: Vocabulary, path: str) -> None:
    """Write `<word> <frequency>` lines in id order."""
    with open(path, "w", encoding="utf-8") as fh:
        for word in vocab.words:
            fh.write(f"{word} {vocab.freq[word]}\n")


def load_vocabulary(path: str) -> Vocabulary:
    """Read `<word> <frequency>` lines; blank lines are skipped."""
    freqs: dict[str, int] = {}
    for where, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise CorpusError(f"{where}: expected '<word> <frequency>'")
        word, freq = parts
        if word in freqs:
            raise CorpusError(f"{where}: duplicate word {word!r}")
        freqs[word] = parse_count(freq, where)
    if not freqs:
        raise CorpusError(f"{path}: empty vocabulary file")
    return Vocabulary(list(freqs), freqs)


@dataclass
class LabeledPhrase:
    """A tokenized sentence with its transitive verb and a binary label."""

    tokens: list[str]
    verb: str
    label: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise CorpusError(f"unknown label {self.label!r}")
        if not self.tokens:
            raise CorpusError("phrase has no tokens")
        if self.verb not in self.tokens:
            raise CorpusError(f"verb {self.verb!r} absent from phrase tokens")


def load_labeled_phrases(path: str) -> list[LabeledPhrase]:
    """Parse a UTF-8 TSV of `<label>\\t<verb>\\t<sentence>` lines.

    Blank lines are skipped, but a file of no phrase is an error. A malformed
    line (unknown label, missing column, verb missing from the tokenized
    sentence) raises rather than being dropped, so label counts stay trustworthy.
    """
    phrases: list[LabeledPhrase] = []
    for where, line in read_lines(path):
        if not line.strip():
            continue
        parts = line.rstrip("\r\n").split("\t")
        if len(parts) != 3:
            raise CorpusError(
                f"{where}: expected 3 tab-separated columns, got {len(parts)}"
            )
        label, verb_field, sentence = parts
        verb = tokenize(verb_field)
        if len(verb) != 1:
            raise CorpusError(f"{where}: verb column must hold exactly one token")
        try:
            phrases.append(LabeledPhrase(tokenize(sentence), verb[0], label))
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None
    if not phrases:
        raise CorpusError(f"{path}: empty phrase file")
    return phrases
