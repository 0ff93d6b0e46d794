"""Command-line front door for the embedding/classification pipeline.

Subcommands chain through a shared output directory: each stage writes its
artifact there under a fixed name and later stages read it back. `pipeline`
runs the whole chain in one shot. Machine-readable JSON summaries go to
stdout, human diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import MetlitError, cbow, classifier, cooccur, corpus, glove, sentvec, stats
from .embeddings import load_embeddings, save_embeddings

VOCAB_FILE = "vocab.txt"
COOCCUR_FILE = "cooccurrence.bin"
EMBEDDINGS_FILE = "embeddings.txt"
SENTVEC_FILE = "sentence_vectors.txt"
TTEST_FILE = "ttest_report.tsv"
CV_FILE = "cv_report.tsv"
MODEL_FILE = "svm_model.txt"


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise MetlitError(f"{what} not found: {path}")
    return path


def _artifact(out_dir: str, name: str, what: str) -> str:
    return _require_file(os.path.join(out_dir, name), what)


def _emit(summary: dict) -> None:
    print(json.dumps(summary, ensure_ascii=False))


def _read_sentences(path: str) -> list[list[str]]:
    sentences = [s for s in corpus.read_corpus_lines(path) if s]
    if not sentences:
        raise MetlitError(f"corpus is empty: {path}")
    return sentences


def cmd_vocab(args) -> dict:
    sentences = _read_sentences(args.corpus)
    vocab = corpus.build_vocabulary(sentences, min_count=args.min_count)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, VOCAB_FILE)
    corpus.save_vocabulary(vocab, path)
    return {
        "command": "vocab",
        "vocab_size": len(vocab),
        "total_tokens": sum(vocab.freq.values()),
        "min_count": args.min_count,
        "output": path,
    }


def cmd_cooccur(args) -> dict:
    vocab = corpus.load_vocabulary(_artifact(args.out, VOCAB_FILE, "vocabulary"))
    sentences = _read_sentences(args.corpus)
    encoded = [vocab.encode(s) for s in sentences]
    table = cooccur.build_cooccurrence(
        encoded, window=args.window, weighting=args.cooccur_weighting
    )
    path = os.path.join(args.out, COOCCUR_FILE)
    cooccur.save_table(table, path)
    return {
        "command": "cooccur",
        "entries": len(table),
        "window": args.window,
        "weighting": args.cooccur_weighting,
        "total_mass": float(table["x"].sum()),
        "output": path,
    }


def cmd_train_cbow(args) -> dict:
    vocab = corpus.load_vocabulary(_artifact(args.out, VOCAB_FILE, "vocabulary"))
    sentences = _read_sentences(args.corpus)
    encoded = [vocab.encode(s) for s in sentences]
    config = cbow.CbowConfig(
        dim=args.dim, window=args.window, epochs=args.epochs, lr=args.lr,
        negatives=args.negatives, seed=args.seed,
    )
    embeddings, losses = cbow.train_cbow(encoded, vocab, config)
    path = os.path.join(args.out, EMBEDDINGS_FILE)
    save_embeddings(embeddings, path)
    return {
        "command": "train-cbow",
        "dim": args.dim,
        "epochs": args.epochs,
        "epoch_losses": losses,
        "output": path,
    }


def cmd_train_glove(args) -> dict:
    vocab = corpus.load_vocabulary(_artifact(args.out, VOCAB_FILE, "vocabulary"))
    table = cooccur.load_table(
        _artifact(args.out, COOCCUR_FILE, "co-occurrence table")
    )
    config = glove.GloveConfig(
        dim=args.dim, lr=args.lr, epochs=args.epochs,
        params=glove.WeightParams(a=args.alpha_exp, x_max=args.xmax),
        seed=args.seed,
    )
    embeddings, losses = glove.train_glove(table, vocab, config)
    path = os.path.join(args.out, EMBEDDINGS_FILE)
    save_embeddings(embeddings, path)
    return {
        "command": "train-glove",
        "dim": args.dim,
        "epochs": args.epochs,
        "epoch_losses": losses,
        "output": path,
    }


def cmd_embed(args) -> dict:
    embeddings = load_embeddings(_artifact(args.out, EMBEDDINGS_FILE, "embeddings"))
    phrases = corpus.load_labeled_phrases(args.labeled)
    vectors, report = sentvec.embed_dataset(phrases, embeddings, mode=args.aggregate)
    path = os.path.join(args.out, SENTVEC_FILE)
    sentvec.save_sentence_vectors(vectors, path)
    return {
        "command": "embed",
        "phrases": len(phrases),
        "class_counts": report.class_counts,
        "mean_coverage": report.mean_coverage,
        "excluded": report.excluded,
        "aggregate": args.aggregate,
        "output": path,
    }


def cmd_ttest(args) -> dict:
    vectors = sentvec.load_sentence_vectors(
        _artifact(args.out, SENTVEC_FILE, "sentence vectors")
    )
    results, summary = stats.group_ttest(vectors, alpha=args.alpha)
    path = os.path.join(args.out, TTEST_FILE)
    stats.save_ttest_report(results, path)
    summary.update({"command": "ttest", "output": path})
    return summary


def cmd_cv(args) -> dict:
    vectors = sentvec.load_sentence_vectors(
        _artifact(args.out, SENTVEC_FILE, "sentence vectors")
    )
    report = classifier.cross_validate(
        vectors, k=args.folds, lam=args.svm_lambda, epochs=args.svm_epochs,
        seed=args.seed,
    )
    report_path = os.path.join(args.out, CV_FILE)
    classifier.save_report(report, report_path)
    model_path = os.path.join(args.out, MODEL_FILE)
    classifier.save_model(report.model, model_path)
    return {
        "command": "cv",
        "folds": args.folds,
        "mean_accuracy": report.mean_accuracy,
        "mean_precision": report.mean_precision,
        "fits": report.fits,
        "pegasos_steps": report.pegasos_steps,
        "margin_violations": report.margin_violations,
        "report": report_path,
        "model": model_path,
    }


def cmd_pipeline(args) -> dict:
    _require_file(args.corpus, "corpus file")
    _require_file(args.labeled, "labeled phrase file")
    summaries = {"command": "pipeline", "model": args.model}
    summaries["vocab"] = cmd_vocab(args)
    if args.model == "glove":
        summaries["cooccur"] = cmd_cooccur(args)
        summaries["train"] = cmd_train_glove(args)
    else:
        summaries["train"] = cmd_train_cbow(args)
    summaries["embed"] = cmd_embed(args)
    summaries["ttest"] = cmd_ttest(args)
    summaries["cv"] = cmd_cv(args)
    return summaries


def _add_common_out(parser):
    parser.add_argument("--out", required=True, help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metlit",
        description="Train word embeddings and classify literal vs metaphorical phrases",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("vocab", help="build the vocabulary from a raw corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-count", type=int, default=5)
    _add_common_out(p)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("cooccur", help="count co-occurrences over the corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--window", type=int, default=10)
    p.add_argument(
        "--cooccur-weighting", choices=cooccur.WEIGHTINGS, default="inverse_distance"
    )
    _add_common_out(p)
    p.set_defaults(func=cmd_cooccur)

    p = sub.add_parser("train-cbow", help="train CBOW word vectors")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_common_out(p)
    p.set_defaults(func=cmd_train_cbow)

    p = sub.add_parser("train-glove", help="train GloVe word vectors")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--xmax", type=float, default=100.0)
    p.add_argument("--alpha-exp", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    _add_common_out(p)
    p.set_defaults(func=cmd_train_glove)

    p = sub.add_parser("embed", help="aggregate labeled phrases into sentence vectors")
    p.add_argument("--labeled", required=True)
    p.add_argument("--aggregate", choices=sentvec.MODES, default="mean")
    _add_common_out(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("ttest", help="Welch t-tests contrasting the two groups")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common_out(p)
    p.set_defaults(func=cmd_ttest)

    p = sub.add_parser("cv", help="k-fold cross-validated SVM evaluation")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svm-lambda", type=float, default=1e-4)
    p.add_argument("--svm-epochs", type=int, default=100)
    _add_common_out(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("pipeline", help="run the whole chain in one shot")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labeled", required=True)
    p.add_argument("--model", choices=("cbow", "glove"), default="cbow")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=None,
                   help="CBOW radius (default 5) or GloVe span (default 10)")
    p.add_argument("--epochs", type=int, default=None,
                   help="default 5 for cbow, 15 for glove")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--xmax", type=float, default=100.0)
    p.add_argument("--alpha-exp", type=float, default=0.75)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--aggregate", choices=sentvec.MODES, default="mean")
    p.add_argument(
        "--cooccur-weighting", choices=cooccur.WEIGHTINGS, default="inverse_distance"
    )
    p.add_argument("--svm-lambda", type=float, default=1e-4)
    p.add_argument("--svm-epochs", type=int, default=100)
    _add_common_out(p)
    p.set_defaults(func=cmd_pipeline)
    return parser


def _apply_pipeline_defaults(args) -> None:
    if args.subcommand == "pipeline":
        if args.window is None:
            args.window = 5 if args.model == "cbow" else 10
        if args.epochs is None:
            args.epochs = 5 if args.model == "cbow" else 15


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_pipeline_defaults(args)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
            raise MetlitError("seed must be >= 0")
        summary = args.func(args)
    except (MetlitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
