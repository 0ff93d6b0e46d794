"""Command-line front door for the embedding/classification pipeline.

Each stage is one function: it takes its inputs as objects, writes its
artifact into the `--out` directory under a fixed name and returns
`(result, summary)`. A single command loads the stage's inputs from the
artifacts in `--out` and calls the stage. `pipeline` reads the corpus once
and passes each result on to the next stage in memory; it still writes
every artifact, byte-identical to the chain of single commands. Every
command saves its artifacts as `<name>.partial` and `main` renames them
once it returns, so a failed command leaves `--out` as it was. Every
option is declared once, in `OPTIONS`, a numeric one with its range, and
`main` checks the options a command uses before the command reads
anything. Machine-readable JSON summaries go to stdout, human diagnostics
to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import MetlitError, cbow, classifier, cooccur, corpus, glove, sentvec, stats
from .embeddings import EmbeddingMatrix, load_embeddings, save_embeddings

VOCAB_FILE = "vocab.txt"
COOCCUR_FILE = "cooccurrence.bin"
EMBEDDINGS_FILE = "embeddings.txt"
SENTVEC_FILE = "sentence_vectors.txt"
TTEST_FILE = "ttest_report.tsv"
CV_FILE = "cv_report.tsv"
MODEL_FILE = "svm_model.txt"
PARTIAL = ".partial"  # an artifact's suffix until its command has returned
_staged: list[str] = []  # the artifacts the running command has saved, as paths

# A numeric option's range: the text its error line gives, and a test of
# the value that is false for NaN.
AT_LEAST_0 = (">= 0", lambda v: v >= 0)
AT_LEAST_1 = (">= 1", lambda v: v >= 1)
POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)

# Every option once, as its argparse keywords and, if numeric, its range.
# A --window or --epochs left unset takes its model's value from MODEL_DEFAULTS.
OPTIONS = {
    "corpus": dict(required=True),
    "labeled": dict(required=True),
    "model": dict(choices=("cbow", "glove"), default="cbow"),
    "min-count": dict(type=int, default=5, range=AT_LEAST_1),
    "window": dict(type=int, default=None, range=AT_LEAST_1,
                   help="CBOW radius (default 5) or GloVe span (default 10)"),
    "cooccur-weighting": dict(choices=cooccur.WEIGHTINGS, default="inverse_distance"),
    "dim": dict(type=int, default=100, range=AT_LEAST_1),
    "epochs": dict(type=int, default=None, range=AT_LEAST_0,
                   help="default 5 for cbow, 15 for glove"),
    "lr": dict(type=float, default=0.05, range=POSITIVE),
    "negatives": dict(type=int, default=5, range=AT_LEAST_1),
    "xmax": dict(type=float, default=100.0, range=POSITIVE),
    "alpha-exp": dict(type=float, default=0.75, range=("in (0, 1]", lambda v: 0 < v <= 1)),
    "aggregate": dict(choices=sentvec.MODES, default="mean"),
    "alpha": dict(type=float, default=0.05, range=("in (0, 1)", lambda v: 0 < v < 1)),
    "folds": dict(type=int, default=10, range=(">= 2", lambda v: v >= 2)),
    "seed": dict(type=int, default=0, range=AT_LEAST_0),
    "svm-lambda": dict(type=float, default=1e-4, range=POSITIVE),
    "svm-epochs": dict(type=int, default=100, range=AT_LEAST_0),
    "out": dict(required=True, help="artifact directory"),
}

MODEL_DEFAULTS = {"cbow": {"window": 5, "epochs": 5}, "glove": {"window": 10, "epochs": 15}}

# subcommand -> help, the options it takes, the model whose defaults it uses (else --model)
COMMANDS = {
    "vocab": ("build the vocabulary from a raw corpus", "corpus min-count out", None),
    "cooccur": ("count co-occurrences over the corpus",
                "corpus window cooccur-weighting out", "glove"),
    "train-cbow": ("train CBOW word vectors",
                   "corpus dim window epochs lr negatives seed out", "cbow"),
    "train-glove": ("train GloVe word vectors",
                    "dim epochs lr xmax alpha-exp seed out", "glove"),
    "embed": ("aggregate labeled phrases into sentence vectors", "labeled aggregate out", None),
    "ttest": ("Welch t-tests contrasting the two groups", "alpha out", None),
    "cv": ("k-fold cross-validated SVM evaluation",
           "folds seed svm-lambda svm-epochs out", None),
    "pipeline": ("run the whole chain in one shot", " ".join(OPTIONS), None),
}


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise MetlitError(f"{what} not found: {path}")
    return path


def _write(args, name: str, save, value) -> str:
    """Save `value` as <name>.partial in --out and return the artifact's
    path; `main` renames it once the command has returned."""
    path = os.path.join(args.out, name)
    _staged.append(path)  # first, so a half-written file is removed too
    save(value, path + PARTIAL)
    return path


def _load(args, name: str, what: str, loader):
    """The artifact `name` of --out, read by `loader`; `what` names it if missing."""
    return loader(_require_file(os.path.join(args.out, name), what))


def vocab_stage(args) -> tuple[tuple[corpus.Vocabulary, corpus.Encoded], dict]:
    """The vocabulary of --corpus, and the corpus in its ids."""
    vocab, encoded = corpus.read_encoded(args.corpus, min_count=args.min_count)
    os.makedirs(args.out, exist_ok=True)
    path = _write(args, VOCAB_FILE, corpus.save_vocabulary, vocab)
    return (vocab, encoded), {
        "command": "vocab",
        "vocab_size": len(vocab),
        "total_tokens": encoded.read,
        "vocab_tokens": sum(vocab.freq.values()),
        "min_count": args.min_count,
        "output": path,
    }


def cooccur_stage(args, encoded: corpus.Encoded) -> tuple[np.ndarray, dict]:
    table = cooccur.build_cooccurrence(encoded, window=args.window,
                                       weighting=args.cooccur_weighting)
    path = _write(args, COOCCUR_FILE, cooccur.save_table, table)
    return table, {
        "command": "cooccur",
        "entries": len(table),
        "window": args.window,
        "weighting": args.cooccur_weighting,
        "total_mass": float(table["x"].sum()),
        "output": path,
    }


def _save_trained(args, command: str, embeddings: EmbeddingMatrix, losses: list[float]):
    path = _write(args, EMBEDDINGS_FILE, save_embeddings, embeddings)
    return embeddings, {
        "command": command,
        "dim": args.dim,
        "epochs": args.epochs,
        "epoch_losses": losses,
        "output": path,
    }


def cbow_stage(args, encoded: corpus.Encoded, vocab: corpus.Vocabulary):
    config = cbow.CbowConfig(
        dim=args.dim, window=args.window, epochs=args.epochs, lr=args.lr,
        negatives=args.negatives, seed=args.seed,
    )
    return _save_trained(args, "train-cbow", *cbow.train_cbow(encoded, vocab, config))


def glove_stage(args, table: np.ndarray, vocab: corpus.Vocabulary):
    config = glove.GloveConfig(
        dim=args.dim, lr=args.lr, epochs=args.epochs, x_max=args.xmax, alpha=args.alpha_exp,
        seed=args.seed,
    )
    return _save_trained(args, "train-glove", *glove.train_glove(table, vocab, config))


def embed_stage(args, embeddings: EmbeddingMatrix) -> tuple[sentvec.SentenceVectors, dict]:
    phrases = corpus.load_labeled_phrases(args.labeled)
    vectors, report = sentvec.embed_dataset(phrases, embeddings, mode=args.aggregate)
    path = _write(args, SENTVEC_FILE, sentvec.save_sentence_vectors, vectors)
    return vectors, {
        "command": "embed",
        "phrases": len(phrases),
        "class_counts": report.class_counts,
        "mean_coverage": report.mean_coverage,
        "excluded": report.excluded,
        "aggregate": args.aggregate,
        "output": path,
    }


def ttest_stage(args, vectors: sentvec.SentenceVectors) -> tuple[list, dict]:
    results, summary = stats.group_ttest(vectors, alpha=args.alpha)
    path = _write(args, TTEST_FILE, stats.save_ttest_report, results)
    summary.update({"command": "ttest", "output": path})
    return results, summary


def cv_stage(args, vectors: sentvec.SentenceVectors) -> tuple[classifier.EvalReport, dict]:
    report = classifier.cross_validate(
        vectors, k=args.folds, lam=args.svm_lambda, epochs=args.svm_epochs,
        seed=args.seed,
    )
    report_path = _write(args, CV_FILE, classifier.save_report, report)
    model_path = _write(args, MODEL_FILE, classifier.save_model, report.model)
    return report, {
        "command": "cv",
        "folds": args.folds,
        "mean_accuracy": report.mean_accuracy,
        "std_accuracy": float(np.std([m.accuracy for m in report.per_fold], ddof=1)),
        "mean_precision": report.mean_precision,
        "fits": report.fits,
        "pegasos_steps": report.pegasos_steps,
        "margin_violations": report.margin_violations,
        "report": report_path,
        "model": model_path,
    }


def _encode_corpus(args) -> tuple[corpus.Vocabulary, corpus.Encoded]:
    """--corpus in the ids of the vocabulary in --out."""
    vocab = _load(args, VOCAB_FILE, "vocabulary", corpus.load_vocabulary)
    return corpus.read_encoded(args.corpus, vocab=vocab)


def cmd_vocab(args) -> dict:
    return vocab_stage(args)[1]


def cmd_cooccur(args) -> dict:
    return cooccur_stage(args, _encode_corpus(args)[1])[1]


def cmd_train_cbow(args) -> dict:
    vocab, encoded = _encode_corpus(args)
    return cbow_stage(args, encoded, vocab)[1]


def cmd_train_glove(args) -> dict:
    vocab = _load(args, VOCAB_FILE, "vocabulary", corpus.load_vocabulary)
    table = _load(args, COOCCUR_FILE, "co-occurrence table", cooccur.load_table)
    return glove_stage(args, table, vocab)[1]


def cmd_embed(args) -> dict:
    return embed_stage(args, _load(args, EMBEDDINGS_FILE, "embeddings", load_embeddings))[1]


def cmd_ttest(args) -> dict:
    vectors = _load(args, SENTVEC_FILE, "sentence vectors", sentvec.load_sentence_vectors)
    return ttest_stage(args, vectors)[1]


def cmd_cv(args) -> dict:
    vectors = _load(args, SENTVEC_FILE, "sentence vectors", sentvec.load_sentence_vectors)
    return cv_stage(args, vectors)[1]


def cmd_pipeline(args) -> dict:
    """Every stage in turn, each result handed on and dropped once used."""
    _require_file(args.corpus, "corpus file")
    _require_file(args.labeled, "labeled phrase file")
    summaries = {"command": "pipeline", "model": args.model}
    (vocab, encoded), summaries["vocab"] = vocab_stage(args)
    if args.model == "glove":
        table, summaries["cooccur"] = cooccur_stage(args, encoded)
        del encoded
        embeddings, summaries["train"] = glove_stage(args, table, vocab)
        del table
    else:
        embeddings, summaries["train"] = cbow_stage(args, encoded, vocab)
        del encoded
    vectors, summaries["embed"] = embed_stage(args, embeddings)
    del embeddings
    summaries["ttest"] = ttest_stage(args, vectors)[1]
    summaries["cv"] = cv_stage(args, vectors)[1]
    return summaries


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metlit",
        description="Train word embeddings and classify literal vs metaphorical phrases",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options.split():
            keywords = {k: v for k, v in OPTIONS[option].items() if k != "range"}
            p.add_argument(f"--{option}", **keywords)
        # looked up now, not at import, so a replaced cmd_* is the one run
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse argv, filling an unset --window or --epochs from the model's defaults."""
    args = build_parser().parse_args(argv)
    model = COMMANDS[args.subcommand][2] or getattr(args, "model", None)
    for option, value in MODEL_DEFAULTS.get(model, {}).items():
        if getattr(args, option, 0) is None:
            setattr(args, option, value)
    return args


def _options_used(args: argparse.Namespace) -> list[str]:
    """The options the command uses; for `pipeline`, those of the stages
    it runs: the commands whose model is --model or none."""
    names = [args.subcommand]
    if args.subcommand == "pipeline":
        names = [name for name, (_, _, model) in COMMANDS.items()
                 if name != "pipeline" and model in (None, args.model)]
    return list(dict.fromkeys(o for name in names for o in COMMANDS[name][1].split()))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _staged.clear()
    made, path = [], args.out  # what makedirs(--out) would make, deepest first
    while path and not os.path.exists(path):
        made, path = made + [path], os.path.dirname(path)
    try:
        bounded = [option for option in _options_used(args) if "range" in OPTIONS[option]]
        for option in bounded:  # checked before the command reads anything
            text, holds = OPTIONS[option]["range"]
            value = getattr(args, option.replace("-", "_"))
            if not holds(value):
                raise MetlitError(f"--{option} must be {text}, got {value!r}")
        summary = args.func(args)
        for path in _staged:
            os.replace(path + PARTIAL, path)
    except BaseException as exc:
        # the command's error is the one reported, whatever the clean-up meets
        for path in _staged:
            with contextlib.suppress(OSError):
                os.remove(path + PARTIAL)
        for path in made:  # each only while empty
            with contextlib.suppress(OSError):
                os.rmdir(path)
        if not isinstance(exc, (MetlitError, OSError, MemoryError)):
            raise
        if isinstance(exc, MemoryError) and not str(exc):  # python's own allocations
            exc = "out of memory"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
