"""Seeded input generator for the metlit benchmark.

Uses only the standard library's `random.Random`, whose stream is stable
across Python versions, so a seed names the same bytes on any machine.

    python3 perfbench/gen.py --seed 1 --out DIR [--size full|toy]

writes the three inputs the workloads read:

- `corpus.txt`: Zipfian filler over a fixed word list, with sentences
  that plant two verb-object families (concrete and abstract objects,
  each with its own cue words).
- `phrases.tsv`: labeled phrases `<label>\\t<verb>\\t<sentence>`; a verb
  with a concrete object is literal, with an abstract object a metaphor.
- `sentence_vectors.txt`: Gaussian sentence vectors in metlit's format,
  with a class shift planted in the first few dimensions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass

CORPUS_FILE = "corpus.txt"
PHRASES_FILE = "phrases.tsv"
VECTORS_FILE = "sentence_vectors.txt"


@dataclass(frozen=True)
class Size:
    tokens: int          # corpus length in tokens
    filler: int          # distinct Zipfian filler words
    family_words: int    # objects (and cue words) per family
    phrases: int         # labeled phrases and sentence vectors
    dim: int             # sentence-vector dimension
    planted: int         # dimensions carrying the class shift
    shift: float         # class offset per planted dimension, in noise sigmas


SIZES = {
    # 914 phrases is the size of the paper's annotated set; D=200 its
    # example dimension.
    "full": Size(tokens=100_000, filler=2000, family_words=8, phrases=914,
                 dim=200, planted=8, shift=1.2),
    "toy": Size(tokens=3000, filler=120, family_words=6, phrases=60,
                dim=12, planted=3, shift=2.0),
}

VERBS = ("grasp", "carry", "break", "hold", "throw", "build",
         "cut", "fill", "open", "push", "shape", "weigh")
# Strong enough that one CBOW or GloVe epoch separates the two families
# (cv accuracy near 0.95 at full size), so the accuracy floor and the
# cv_accuracy metric hold steady from seed to seed.
FAMILY_SENTENCE_SHARE = 0.5
CUES_PER_SENTENCE = 4
PHRASE_NOISE = 0.04   # share of phrases whose object comes from the other family
PHRASE_FILLER = (1, 3)  # filler tokens around a phrase's verb and object


def _names(prefix: str, n: int) -> list[str]:
    """`n` distinct letter-only words; metlit's tokenizer keeps them whole."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    names = []
    for length in itertools.count(2):
        for combo in itertools.product(letters, repeat=length):
            names.append(prefix + "".join(combo))
            if len(names) == n:
                return names
    raise AssertionError("unreachable")


def _families(size: Size) -> dict[str, tuple[list[str], list[str]]]:
    return {
        "literal": (_names("conc", size.family_words), _names("cuec", size.family_words)),
        "metaphor": (_names("abst", size.family_words), _names("cuea", size.family_words)),
    }


def _zipf_filler(size: Size) -> tuple[list[str], list[float]]:
    """Filler words and cumulative weights with frequency ~ 1 / rank."""
    cum = list(itertools.accumulate(1.0 / r for r in range(1, size.filler + 1)))
    return _names("fil", size.filler), cum


def zipf_corpus(rng: random.Random, size: Size) -> list[str]:
    filler, cum = _zipf_filler(size)
    families = _families(size)
    lines: list[str] = []
    produced = 0
    while produced < size.tokens:
        length = rng.randint(8, 16)
        tokens = rng.choices(filler, cum_weights=cum, k=length)
        if rng.random() < FAMILY_SENTENCE_SHARE:
            objects, cues = families[rng.choice(("literal", "metaphor"))]
            at = rng.randrange(length - 1)
            tokens[at:at + 2] = [rng.choice(VERBS), rng.choice(objects)]
            for _ in range(CUES_PER_SENTENCE):
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(cues))
        tokens = tokens[:size.tokens - produced]
        produced += len(tokens)
        lines.append(" ".join(tokens))
    return lines


def labeled_phrases(rng: random.Random, size: Size) -> list[str]:
    filler, cum = _zipf_filler(size)
    families = _families(size)
    lines = []
    for _ in range(size.phrases):
        label = rng.choice(("literal", "metaphor"))
        source = label
        if rng.random() < PHRASE_NOISE:
            source = "metaphor" if label == "literal" else "literal"
        objects, cues = families[source]
        verb = rng.choice(VERBS)
        tokens = rng.choices(filler, cum_weights=cum, k=rng.randint(*PHRASE_FILLER))
        at = rng.randrange(len(tokens) + 1)
        tokens[at:at] = [verb, rng.choice(objects)]
        if rng.random() < 0.3:
            tokens.append(rng.choice(cues))
        lines.append(f"{label}\t{verb}\t{' '.join(tokens)}")
    return lines


def sentence_vectors(rng: random.Random, size: Size) -> list[str]:
    lines = []
    for _ in range(size.phrases):
        label = rng.choice(("literal", "metaphor"))
        offset = size.shift / 2 if label == "metaphor" else -size.shift / 2
        values = [rng.gauss(0.0, 1.0) for _ in range(size.dim)]
        for d in range(size.planted):
            values[d] += offset
        total = rng.randint(4, 9)
        covered = total - rng.randint(0, 1)
        text = " ".join(repr(round(v, 6)) for v in values)
        lines.append(f"{label} {covered}/{total} {text}")
    return lines


def generate(seed: int, out_dir: str, size_name: str = "full") -> dict[str, str]:
    """Write every input for `seed` into `out_dir`; return sha256 per file."""
    size = SIZES[size_name]
    os.makedirs(out_dir, exist_ok=True)
    # one independent stream per file, so changing one generator leaves the
    # other files' bytes alone
    producers = {
        CORPUS_FILE: zipf_corpus,
        PHRASES_FILE: labeled_phrases,
        VECTORS_FILE: sentence_vectors,
    }
    hashes = {}
    for k, (name, produce) in enumerate(producers.items()):
        rng = random.Random(seed * 1000 + k)
        data = "".join(line + "\n" for line in produce(rng, size)).encode("utf-8")
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    print(json.dumps(generate(args.seed, args.out, args.size)))


if __name__ == "__main__":
    main()
