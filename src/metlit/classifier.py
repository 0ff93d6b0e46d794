"""Linear soft-margin SVM and stratified k-fold cross-validation.

The SVM minimizes lambda/2 ||w||^2 + mean hinge loss by Pegasos-style
subgradient descent (one sample per step, eta_t = 1/(lambda*t), bias
unregularized). Features are standardized on training statistics. Labels:
literal -> -1, metaphor -> +1; metaphor is the positive class throughout.
One kernel fits every model: it holds the weights as a vector over lambda*t
and so does work only on the steps that violate a margin. Cross-validation
runs it once per fold and once more for the full-data model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MetlitError
from .corpus import parse_count, parse_floats, read_lines
from .embeddings import format_floats
from .sentvec import SentenceVectors


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    lam: float
    scale_mean: np.ndarray
    scale_std: np.ndarray  # zero-variance dimensions stored as 1 (passthrough)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.scale_mean) / self.scale_std


@dataclass
class FoldMetrics:
    accuracy: float
    precision: float | None  # None when tp + fp == 0
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class EvalReport:
    per_fold: list[FoldMetrics]
    mean_accuracy: float
    mean_precision: float | None
    model: SvmModel | None = None  # the full-data fit
    fits: int = 0                  # folds plus the full-data fit
    pegasos_steps: int = 0         # summed over every fit
    margin_violations: int = 0     # steps that updated the weights, over every fit


# Rows of an epoch whose margins one product gives at once.
BLOCK = 128


def _fit(vectors: SentenceVectors, rows: np.ndarray, seed: int, lam: float,
         epochs: int, z: np.ndarray, work: np.ndarray) -> tuple[SvmModel, int]:
    """One Pegasos fit over `vectors[rows]`, and how many of its steps updated it.

    It works in z[:n] and work, which hold n and BLOCK rows of D + 1 floats.
    Per step t this is the per-sample loop: with eta = 1/(lam*t), decay w by
    1 - eta*lam, add eta*y*z if y*(z.w) < 1, project onto the ball
    ||w|| <= 1/sqrt(lam), and average the iterates of the second half of
    training. The label sign is folded into the standardized row z, which
    carries the constant bias feature, and w_t is held as v/(lam*t): the
    decay is then free, an update is v += z, the test is z.v < lam*(t-1)
    (step 1 always updates), and only an update can take ||v|| past
    t*sqrt(lam). So one product gives the margins of a block of an epoch's
    rows, and work is done only at the violations in it. The average of the
    w_t is kept in closed form: each block credits v with tail[0], and a
    change d of v at row e adds tail[e]*d, where tail[e] sums 1/(lam*t) over
    the block's averaged steps from row e on.
    """
    n, dim = len(rows), vectors.values.shape[1]
    z, x = z[:n], z[:n, :dim]

    def gather():
        for a in range(0, n, BLOCK):
            x[a:a + BLOCK] = vectors.values[rows[a:a + BLOCK]]

    # x.mean(0) and x.std(0) in place: a reduction over this strided x sums
    # as over a contiguous copy (row after row, or pairwise when dim is 1);
    # a column of one value takes it as its mean, so it centers to exact zeros
    gather()
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        top = x.max(axis=0)
        mean = np.where(top == x.min(axis=0), top, x.sum(axis=0) / n)
        x -= mean
        x *= x
        std = np.sqrt(x.sum(axis=0) / n)
    bad = np.flatnonzero(~np.isfinite(std))  # as is every std whose mean is not finite
    if len(bad):
        raise MetlitError(f"dimension {bad[0]}: the mean or std of its values is not finite")
    std[std == 0] = 1.0  # zero-variance dimensions pass through
    gather()
    x -= mean
    x /= std
    z[:, dim] = 1.0
    z *= np.where(vectors.metaphor[rows], 1.0, -1.0)[:, None]

    v = np.zeros(dim + 1)
    avg = np.zeros(dim + 1)
    first_averaged = epochs * n // 2 + 1
    root = math.sqrt(lam)
    rng = np.random.default_rng(seed)
    updates = done = 0  # done: steps taken
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, BLOCK):
            pick = order[start:start + BLOCK]
            block = np.take(z, pick, axis=0, out=work[:len(pick)], mode="clip")
            steps = np.arange(done + 1, done + len(block) + 1)
            limit = lam * (steps - 1.0)
            if done == 0:
                limit[0] = math.inf
            averaging = steps[-1] >= first_averaged
            if averaging:
                share = np.where(steps >= first_averaged, 1.0 / (lam * steps), 0.0)
                tail = np.cumsum(share[::-1])[::-1]
                avg += tail[0] * v
            e = 0
            while e < len(block):
                below = block[e:] @ v < limit[e:]
                k = int(below.argmax())
                if not below[k]:
                    break
                e += k
                row = block[e]
                v += row
                updates += 1
                if averaging:
                    avg += tail[e] * row
                sq = float(v @ v)
                reach = (done + e + 1) * root
                if sq > reach * reach:
                    f = reach / math.sqrt(sq)
                    if averaging:
                        avg += tail[e] * (f - 1.0) * v
                    v *= f
                e += 1
            done += len(block)

    w = avg / (done - first_averaged + 1) if epochs else v
    return SvmModel(w[:dim], float(w[dim]), lam, mean, std), updates


def lambda_range(n: int, dim: int, epochs: int) -> tuple[float, float]:
    """The lambdas for which `_fit` on n rows of dim values stays accurate.

    Above, 1/(lam*t) leaves the normal floats for some t <= epochs*n. Below,
    the radius t*sqrt(lam) of v's ball falls under sqrt(eps) times the
    longest row (||z||^2 <= n*dim + 1) at an averaged step t, where the
    shrink f - 1 rounds towards -1 and the averaged model decays to zero.
    """
    steps = epochs * n
    if not steps:
        return 0.0, math.inf
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    low = eps * (n * dim + 1) / (steps // 2 + 1) ** 2
    return max(low, tiny), 1.0 / (tiny * steps)


def _pegasos(vectors: SentenceVectors, runs: list[tuple[np.ndarray, int]], lam: float,
             epochs: int) -> list[tuple[SvmModel, int]]:
    """Fit one model per (training rows, seed) run, each by one `_fit`, one
    after another, and count the steps that updated it.

    The runs of cross_validate are the folds, then the full data. The fits
    share one standardized buffer, as long as the longest run.
    """
    dim = vectors.values.shape[1]
    bounds = [lambda_range(len(rows), dim, epochs) for rows, _ in runs]
    low, high = max(b[0] for b in bounds), min(b[1] for b in bounds)
    if not low <= lam <= high:
        raise MetlitError(
            f"--svm-lambda must lie in [{low:.3g}, {high:.3g}] for {epochs} epochs "
            f"over {len(vectors)} vectors, got {lam!r}"
        )
    z = np.empty((max(len(rows) for rows, _ in runs), dim + 1))
    work = np.empty((BLOCK, dim + 1))
    fits = [_fit(vectors, rows, seed, lam, epochs, z, work) for rows, seed in runs]
    for i, (model, _) in enumerate(fits):
        if not (np.isfinite(model.weights).all() and math.isfinite(model.bias)):
            run = f"fold {i}" if i < len(fits) - 1 else "the full-data fit"
            raise MetlitError(f"{run}: the SVM model is not finite")
    return fits


def train_svm(
    train: SentenceVectors,
    lam: float = 1e-4,
    epochs: int = 100,
    seed: int = 0,
) -> SvmModel:
    """Fit the hinge objective on standardized features; deterministic per seed.

    The bias rides along as an augmented constant feature so the 1/(lam*t)
    step schedule stays stable, and iterates over the second half of
    training are averaged, which tightens convergence at small lam.
    """
    if not len(train):
        raise MetlitError("empty training set")
    if train.metaphor.all() or not train.metaphor.any():
        raise MetlitError("training set must contain both classes")
    return _pegasos(train, [(np.arange(len(train)), seed)], lam, epochs)[0][0]


def hinge_objective(model: SvmModel, vectors: SentenceVectors) -> float:
    """lambda/2 ||w||^2 + mean hinge loss on standardized features."""
    margins = np.where(vectors.metaphor, 1.0, -1.0) * decision(model, vectors.values)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return float(0.5 * model.lam * model.weights @ model.weights + hinge)


def decision(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """The margin of each row of x; metaphor iff margin > 0, exact 0 -> literal."""
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise MetlitError(f"expected rows of dimension {model.dim}, got shape {x.shape}")
    return model.standardize(x) @ model.weights + model.bias


def kfold_split(labels, k: int, seed: int = 0) -> list[np.ndarray]:
    """Partition 0..len(labels)-1 into k folds, stratified by label.

    Each class's shuffled members are dealt across the folds, rotating which
    folds receive the leftover extras, so fold sizes differ by at most one
    and per-fold class counts stay within one of the class's even share.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise MetlitError(f"--folds must be >= 2, got {k}")
    if k > len(labels):
        raise MetlitError(f"--folds must be <= the number of sentence vectors {len(labels)}, "
                          f"got {k}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(labels), dtype=np.intp)
    offset = 0
    for cls in sorted(set(labels.tolist())):  # np.unique would import numpy.ma
        members = np.flatnonzero(labels == cls)
        base, extra = divmod(len(members), k)
        sizes = base + ((np.arange(k) - offset) % k < extra)  # extras from fold `offset` on
        fold_of[members[rng.permutation(len(members))]] = np.repeat(np.arange(k), sizes)
        offset = (offset + extra) % k
    return [np.flatnonzero(fold_of == f) for f in range(k)]


def evaluate_fold(model: SvmModel, test: SentenceVectors) -> FoldMetrics:
    predicted = decision(model, test.values) > 0
    tp = int(np.count_nonzero(predicted & test.metaphor))
    fp = int(np.count_nonzero(predicted & ~test.metaphor))
    fn = int(np.count_nonzero(~predicted & test.metaphor))
    tn = len(test) - tp - fp - fn
    accuracy = (tp + tn) / len(test)
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    return FoldMetrics(accuracy=accuracy, precision=precision, tp=tp, fp=fp, tn=tn, fn=fn)


def cross_validate(
    vectors: SentenceVectors,
    k: int = 10,
    lam: float = 1e-4,
    epochs: int = 100,
    seed: int = 0,
) -> EvalReport:
    """Train on k-1 folds, evaluate on the held-out fold, for every fold.

    Each class needs two members, as in stats.group_ttest, so no stratified
    training split lacks one. Fold f trains with seed + f, and the full-data
    model (seed) comes back as `report.model`. Mean precision averages only
    the folds where precision is defined.
    """
    literal, metaphor = np.bincount(vectors.metaphor, minlength=2).tolist()
    if literal < 2 or metaphor < 2:
        raise MetlitError(f"need >= 2 members per class, got {literal=}, {metaphor=}")
    folds = kfold_split(vectors.metaphor, k, seed=seed)
    everything = np.arange(len(vectors))
    # np.setdiff1d would import numpy.ma
    runs = [(np.delete(everything, fold), seed + f) for f, fold in enumerate(folds)]
    runs.append((everything, seed))
    steps = epochs * sum(len(train) for train, _ in runs)
    fits = _pegasos(vectors, runs, lam, epochs)
    per_fold = [evaluate_fold(m, vectors[fold]) for (m, _), fold in zip(fits, folds)]
    mean_accuracy = sum(m.accuracy for m in per_fold) / len(per_fold)
    defined = [m.precision for m in per_fold if m.precision is not None]
    mean_precision = sum(defined) / len(defined) if defined else None
    return EvalReport(
        per_fold=per_fold, mean_accuracy=mean_accuracy, mean_precision=mean_precision,
        model=fits[-1][0], fits=len(runs), pegasos_steps=steps,
        margin_violations=sum(updates for _, updates in fits),
    )


def save_model(model: SvmModel, path: str) -> None:
    """Text format: `D lambda bias`, weights, scaling means, scaling stds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{model.dim} {model.lam!r} {model.bias!r}\n")
        fh.write(format_floats(model.weights) + "\n")
        fh.write(format_floats(model.scale_mean) + "\n")
        fh.write(format_floats(model.scale_std) + "\n")


def load_model(path: str) -> SvmModel:
    """Read the `save_model` format; errors name the path and line."""
    lines = [(where, line.split()) for where, line in read_lines(path)]
    if len(lines) != 4 or len(lines[0][1]) != 3:
        raise MetlitError(f"{path}: expected a 'D lambda bias' line, then 3 lines of D values")
    (where, (dim, lam, bias)), *rows = lines
    lam, bias = parse_floats([lam, bias], where)
    dim = parse_count(dim, where)
    weights, means, stds = (parse_floats(fields, where, dim) for where, fields in rows)
    return SvmModel(weights, float(bias), float(lam), means, stds)


def save_report(report: EvalReport, path: str) -> None:
    """TSV: one row per fold plus a mean summary line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fold\taccuracy\tprecision\ttp\tfp\ttn\tfn\n")
        for f, m in enumerate(report.per_fold):
            prec = "NA" if m.precision is None else f"{m.precision:.6f}"
            fh.write(
                f"{f}\t{m.accuracy:.6f}\t{prec}\t{m.tp}\t{m.fp}\t{m.tn}\t{m.fn}\n"
            )
        mean_prec = (
            "NA" if report.mean_precision is None else f"{report.mean_precision:.6f}"
        )
        fh.write(f"mean\t{report.mean_accuracy:.6f}\t{mean_prec}\t\t\t\t\n")
