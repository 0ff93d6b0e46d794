"""Corpus ingestion (tokenization, vocabulary, the corpus as int32 ids,
labeled phrases) and the line reader and number parsers behind every text
artifact reader."""

from __future__ import annotations

import re
import unicodedata
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import LABELS, MetlitError

# Maximal runs of Unicode letters/digits (\w minus the underscore).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

SLICE = 1 << 16  # ids read_encoded counts, remaps and compacts at a time


def tokenize(text: str) -> list[str]:
    """Split text into NFC-normalized letter/digit runs, each lowercased.

    Punctuation and whitespace are dropped; token order is preserved. Each
    token is lowercased alone, so a Greek word ends in final sigma whatever
    follows it (`ΟΔΟΣ.ΟΔΟΣ` gives `οδος`, `οδος`), and `İstanbul` stays one
    token, `i̇stanbul`, though its lowercase holds a combining dot.
    """
    normalized = unicodedata.normalize("NFC", text)
    return [token.lower() for token in _TOKEN_RE.findall(normalized)]


def read_lines(path: str) -> Iterator[tuple[str, str]]:
    """Yield `("<path>, line N", text)` per UTF-8 line, terminator kept, leading BOM dropped."""
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path}, line {lineno}"
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MetlitError(f"{where}: invalid UTF-8 at byte {offset + exc.start}") from None
            if lineno == 1:
                text = text.removeprefix("\ufeff")
            yield where, text
            offset += len(raw)


def parse_floats(fields: Sequence[str], where: str, count: int | None = None) -> np.ndarray:
    """The fields as finite float64 values, exactly `count` of them if given.

    Per-value float() parses repr output exactly, as fast as numpy parses strings.
    """
    if count is not None and len(fields) != count:
        raise MetlitError(f"{where}: {len(fields)} values, the file has {count} per row")
    try:
        values = np.array([float(f) for f in fields])
    except ValueError as exc:  # float() names the field
        raise MetlitError(f"{where}: {exc}") from None
    if not np.isfinite(values).all():
        raise MetlitError(f"{where}: non-finite value")
    return values


def parse_count(field: str, where: str) -> int:
    """A decimal count of at most 18 digits, so it fits an int64."""
    if not (field.isdecimal() and len(field) <= 18):
        raise MetlitError(f"{where}: {field!r} is not a count")
    return int(field)


def read_corpus_lines(path: str) -> Iterator[list[str]]:
    """Yield one token list per line of a UTF-8 text file.

    Newlines delimit sentences: downstream windows never cross them.
    """
    for _, line in read_lines(path):
        yield tokenize(line)


class WordTable:
    """Distinct words in id order, ids dense 0..len-1, and the map back."""

    def __init__(self, words: list[str]):
        self.words = list(words)
        self._ids = {w: i for i, w in enumerate(self.words)}
        if len(self._ids) != len(self.words):
            word = next(w for i, w in enumerate(self.words) if self._ids[w] != i)
            raise MetlitError(f"duplicate word {word!r}")

    def __len__(self) -> int:
        return len(self.words)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map tokens to ids, silently dropping unknown tokens."""
        ids = self._ids
        return [ids[t] for t in tokens if t in ids]


class Vocabulary(WordTable):
    """A word table with corpus frequencies, ids by descending frequency, then word."""

    def __init__(self, words: list[str], freq: dict[str, int]):
        super().__init__(words)
        self.freq = dict(freq)


def vocabulary_from_counts(counts: Mapping[str, int], min_count: int = 1) -> Vocabulary:
    retained = [(w, c) for w, c in counts.items() if c >= min_count]
    if not retained:
        raise MetlitError(f"empty vocabulary: no token reaches min_count={min_count}")
    retained.sort(key=lambda wc: (-wc[1], wc[0]))
    words = [w for w, _ in retained]
    return Vocabulary(words, dict(retained))


def build_vocabulary(
    sentences: Iterable[Iterable[str]], min_count: int = 5
) -> Vocabulary:
    """Count a finite token stream and retain tokens with freq >= min_count."""
    return vocabulary_from_counts(Counter(t for s in sentences for t in s), min_count)


@dataclass(frozen=True, eq=False)
class Encoded:
    """A corpus as vocabulary ids: sentence k is tokens[offsets[k]:offsets[k + 1]].

    `tokens` holds the ids back to back (int32 as read_encoded gives them,
    4 bytes a token) and `offsets` each sentence's start and, last, the end
    (int64). `read` counts the tokens of the corpus read, out-of-vocabulary
    ones included. Iterating yields each sentence's ids.
    """

    tokens: np.ndarray
    offsets: np.ndarray
    read: int

    def __iter__(self) -> Iterator[np.ndarray]:
        bounds = self.offsets.tolist()
        return (self.tokens[a:b] for a, b in zip(bounds, bounds[1:]))

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)


def read_encoded(
    path: str, min_count: int = 1, vocab: Vocabulary | None = None
) -> tuple[Vocabulary, Encoded]:
    """The corpus at `path` in the ids of `vocab`, or, without one, of the
    vocabulary of its tokens counted min_count times or more.

    One pass gives each distinct token a provisional id on first sight and
    keeps only those ids, in an array('i'). SLICE ids at a time, they are
    counted, then taken to the vocabulary's ids by one remap array and
    written back at a running cursor without the out-of-vocabulary tokens;
    the sentences (lines) left empty are dropped. The array, cut to the
    kept ids, becomes the tokens: 4 bytes a token. Working memory peaks at
    about 11 bytes a token on a corpus of 1M tokens and 20k distinct words,
    most of it the array and the distinct words.
    """
    first: dict[str, int] = {}
    buffer, ends = array("i"), array("q")
    for words in read_corpus_lines(path):  # the module's, as a tracer may replace it
        buffer.extend([first.setdefault(w, len(first)) for w in words])
        ends.append(len(buffer))
    if not buffer:
        raise MetlitError(f"corpus is empty: {path}")
    read, ids = len(buffer), np.frombuffer(buffer, np.int32)
    if vocab is None:
        counts = np.zeros(len(first), np.int64)
        for a in range(0, read, SLICE):
            counts += np.bincount(ids[a:a + SLICE], minlength=len(first))
        vocab = vocabulary_from_counts(dict(zip(first, counts.tolist())), min_count)
    remap = np.array([vocab._ids.get(w, -1) for w in first], np.int32)
    del first
    # each sentence end moves back by the tokens dropped before it
    stops, kept, e0 = np.frombuffer(ends, np.int64), 0, 0
    for a in range(0, read, SLICE):
        part = remap[ids[a:a + SLICE]]
        dropped = np.flatnonzero(part < 0)
        e1 = e0 + np.searchsorted(stops[e0:], a + len(part), "right")
        stops[e0:e1] -= a - kept + np.searchsorted(dropped, stops[e0:e1] - a)
        part = part[part >= 0]
        ids[kept:kept + len(part)] = part
        kept, e0 = kept + len(part), e1
    if not kept:
        raise MetlitError(f"{path}: no token is in the vocabulary of {len(vocab)} words")
    del ids, part, buffer[kept:]  # the views first: an array with a view cannot shrink
    offsets = np.concatenate([[0], stops[np.diff(stops, prepend=0) > 0]])
    return vocab, Encoded(np.frombuffer(buffer, np.int32), offsets, read)


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
            raise MetlitError(f"{where}: expected '<word> <frequency>'")
        word, freq = parts
        if word in freqs:
            raise MetlitError(f"{where}: duplicate word {word!r}")
        freqs[word] = parse_count(freq, where)
    if not freqs:
        raise MetlitError(f"{path}: empty vocabulary file")
    return Vocabulary(list(freqs), freqs)


@dataclass
class LabeledPhrase:
    """A tokenized sentence with its transitive verb and a binary label."""

    tokens: list[str]
    verb: str
    label: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise MetlitError(f"unknown label {self.label!r}")
        if not self.tokens:
            raise MetlitError("phrase has no tokens")
        if self.verb not in self.tokens:
            raise MetlitError(f"verb {self.verb!r} absent from phrase tokens")


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
            raise MetlitError(f"{where}: expected 3 tab-separated columns, got {len(parts)}")
        label, verb_field, sentence = parts
        verb = tokenize(verb_field)
        if len(verb) != 1:
            raise MetlitError(f"{where}: verb column must hold exactly one token")
        try:
            phrases.append(LabeledPhrase(tokenize(sentence), verb[0], label))
        except MetlitError as exc:
            raise MetlitError(f"{where}: {exc}") from None
    if not phrases:
        raise MetlitError(f"{path}: empty phrase file")
    return phrases
