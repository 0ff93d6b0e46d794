"""Run one metlit CLI command with spans around its calls into each layer.

    python3 perfbench/trace_child.py SPANS_JSON ARGV...

Behaves like `python3 -m metlit.cli ARGV...` (same stdout, same exit
status), but first replaces, from outside the program, the module
attributes the CLI calls with wrappers that record a span per call:
name, start, end, parent and a few work counts taken at the boundary.
`Vocabulary.encode` runs once per sentence, so its calls are counted and
timed in aggregate on the enclosing span instead of each getting a span.
Spans stay in memory and are written to SPANS_JSON when the command ends.
The root span `cli.main` starts before `metlit.cli` is imported.
"""

import time

_T0 = time.perf_counter()

import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import metlit.cli as cli  # noqa: E402
from metlit import cbow, classifier, cooccur, corpus, glove, sentvec, stats  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def begin(self, name, start=None):
        span = {
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "parent": self.stack[-1] if self.stack else None,
            "counts": {},
            "inner": {},  # aggregated calls: name -> [calls, seconds]
        }
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self.stack.pop()

    def add_inner(self, name, seconds):
        calls = self.spans[self.stack[-1]]["inner"].setdefault(name, [0, 0.0])
        calls[0] += 1
        calls[1] += seconds


def _size(path):
    return os.path.getsize(path)


def _tokens(sentences):
    return sum(len(s) for s in sentences)


# (owner, attribute, span name, counts(bound arguments, result) -> dict)
WRAPPED = [
    (corpus, "build_vocabulary", "corpus.build_vocabulary",
     lambda a, r: {"words": len(r)}),
    (cooccur, "build_cooccurrence", "cooccur.build_cooccurrence",
     lambda a, r: {"tokens": _tokens(a["sentences"]), "entries": len(r)}),
    (cooccur, "save_table", "cooccur.save_table",
     lambda a, r: {"entries": len(a["table"]), "bytes": _size(a["path"])}),
    (cooccur, "load_table", "cooccur.load_table",
     lambda a, r: {"entries": len(r), "bytes": _size(a["path"])}),
    (cbow, "train_cbow", "cbow.train_cbow",
     lambda a, r: {"windows": _tokens(a["sentences"]) * a["config"].epochs,
                   "final_loss": r[1][-1]}),
    (glove, "train_glove", "glove.train_glove",
     lambda a, r: {"pairs": len(a["table"]) * a["config"].epochs,
                   "final_loss": r[1][-1]}),
    (cli, "save_embeddings", "embeddings.save_embeddings",
     lambda a, r: {"bytes": _size(a["path"])}),
    (cli, "load_embeddings", "embeddings.load_embeddings",
     lambda a, r: {"bytes": _size(a["path"])}),
    (sentvec, "embed_dataset", "sentvec.embed_dataset",
     lambda a, r: {"coverage": r[1].mean_coverage, "excluded": len(r[1].excluded)}),
    (sentvec, "save_sentence_vectors", "sentvec.save_sentence_vectors",
     lambda a, r: {"vectors": len(a["vectors"])}),
    (sentvec, "load_sentence_vectors", "sentvec.load_sentence_vectors",
     lambda a, r: {"vectors": len(r)}),
    (stats, "group_ttest", "stats.group_ttest",
     lambda a, r: {"tests": len(r[0])}),
    (classifier, "cross_validate", "classifier.cross_validate",
     lambda a, r: {"folds": a["k"]}),
    (classifier, "train_svm", "classifier.train_svm",
     lambda a, r: {"steps": len(a["train"]) * a["epochs"]}),
]


def _wrap(tracer, owner, attr, name, counts):
    fn = getattr(owner, attr)
    signature = inspect.signature(fn)

    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        span["counts"] = counts(bound.arguments, result)
        return result

    setattr(owner, attr, traced)


def _wrap_reader(tracer):
    """`read_corpus_lines` is a generator: its span runs from the first item
    until it is drained, and counts the tokens it yields."""
    fn = corpus.read_corpus_lines

    def traced(*args, **kwargs):
        span = tracer.begin("corpus.read_corpus_lines")
        tokens = 0
        try:
            for sentence in fn(*args, **kwargs):
                tokens += len(sentence)
                yield sentence
        finally:
            tracer.end(span)
            span["counts"] = {"tokens": tokens}

    corpus.read_corpus_lines = traced


def _wrap_encode(tracer):
    fn = corpus.Vocabulary.encode

    def encode(self, tokens):
        start = time.perf_counter()
        result = fn(self, tokens)
        tracer.add_inner("corpus.encode", time.perf_counter() - start)
        return result

    corpus.Vocabulary.encode = encode


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    root = tracer.begin("cli.main", start=_T0)
    for owner, attr, name, counts in WRAPPED:
        _wrap(tracer, owner, attr, name, counts)
    _wrap_reader(tracer)
    _wrap_encode(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.end(root)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
