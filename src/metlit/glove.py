"""GloVe: weighted least-squares factorization of the co-occurrence table.

Minimizes sum over pairs of f(X_ij) * (w_i . w~_j + b_i + b~_j - ln X_ij)^2
with per-coordinate AdaGrad updates. The weight function f damps very
frequent pairs: (x / x_max)^alpha below the cutoff, 1 above it.

The parameters are one (2V, D + 1) array, [w | b] over [w~ | b~]: record
(i, j) reads and updates rows i and V + j. Its AdaGrad accumulators have
the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MetlitError
from .corpus import Vocabulary
from .embeddings import EmbeddingMatrix

BATCH = 32            # records per AdaGrad step
CHUNK_RECORDS = 1024  # records weighted at a time


@dataclass
class GloveConfig:
    dim: int = 100
    lr: float = 0.05
    epochs: int = 15
    x_max: float = 100.0  # the weight's cutoff
    alpha: float = 0.75   # the weight's exponent below the cutoff
    seed: int = 0


def weights(x: np.ndarray, config: GloveConfig = GloveConfig()) -> np.ndarray:
    """min(x / x_max, 1)^alpha over nonnegative counts: monotone, in [0, 1]."""
    return np.minimum(x / config.x_max, 1.0) ** config.alpha


def init_params(vocab_size: int, dim: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The stacked parameters, with w, w~, b and b~ drawn in that order
    uniform in [-0.5/D, 0.5/D], and their accumulators, all 1."""
    v = vocab_size
    params = np.empty((2 * v, dim + 1))
    rng = np.random.default_rng(seed)
    for part in (params[:v, :-1], params[v:, :-1], params[:v, -1], params[v:, -1]):
        part[...] = rng.uniform(-0.5 / dim, 0.5 / dim, size=part.shape)
    return params, np.ones_like(params)


def pair_gradients(
    params: np.ndarray, i: int, j: int, x: float, config: GloveConfig = GloveConfig(),
) -> tuple[float, np.ndarray, np.ndarray]:
    """f(X_ij) * (w_i . w~_j + b_i + b~_j - ln X_ij)^2 and its gradients
    with respect to rows i and V + j of `params`."""
    if x <= 0:
        raise MetlitError("pair loss requires X_ij > 0 (log undefined)")
    main, context = params[i], params[len(params) // 2 + j]
    f = float(weights(x, config))
    residual = float(main[:-1] @ context[:-1] + main[-1] + context[-1]) - math.log(x)
    common = 2.0 * f * residual
    grad_i, grad_j = common * context, common * main
    grad_i[-1] = grad_j[-1] = common
    return f * residual * residual, grad_i, grad_j


def total_loss(params: np.ndarray, table: np.ndarray, config: GloveConfig = GloveConfig()) -> float:
    """Weighted objective over a co-occurrence table (cooccur.RECORD array)."""
    return sum(pair_gradients(params, i, j, x, config)[0] for i, j, x in table.tolist())


def _train_chunk(params, acc, pairs, weight, log_x, lr):
    """AdaGrad steps over a chunk of records, BATCH at a time, rows
    pairs[r] = (i, V + j) of `params`; returns the sum of their losses,
    each at its batch's pre-step parameters."""
    n, d = len(pairs), params.shape[1] - 1
    residual = np.empty(n)
    # slot 2 * r + c of a batch holds row rows[r, c]: its gradient over its square
    grads = np.empty((2, 2 * BATCH, d + 1))
    root = np.empty((BATCH, 2, d + 1))
    for a in range(0, n, BATCH):
        s, rows = slice(a, a + BATCH), pairs[a:a + BATCH]
        q, qa = params.take(rows, axis=0), acc.take(rows, axis=0)
        main, context = q[:, 0], q[:, 1]
        residual[s] = (np.einsum("nd,nd->n", main[:, :d], context[:, :d])
                       + main[:, d] + context[:, d] - log_x[s])
        # row i's gradient is common * [w~_j | 1], row V + j's is common * [w_i | 1]
        slots = grads[:, :2 * len(rows)]
        g, sq = slots.reshape(2, len(rows), 2, d + 1)
        g[...] = q[:, ::-1]
        g[:, :, d] = 1.0
        g *= (2.0 * weight[s] * residual[s])[:, None, None]
        np.multiply(g, g, out=sq)
        # a row repeated in the batch adds its gradients and squared gradients in
        # slot order, into its first slot, and every copy of the row takes the sums
        first, copies = {}, []
        for e, row in enumerate(rows.ravel().tolist()):
            f = first.setdefault(row, e)
            if f != e:
                slots[:, f] += slots[:, e]
                copies.append((e, f))
        for e, f in copies:
            slots[:, e] = slots[:, f]
        # copies of a row get the same update, so they write the same values
        g *= lr
        g /= np.sqrt(qa, out=root[:len(rows)])
        q -= g
        qa += sq
        params[rows] = q
        acc[rows] = qa
    return float(weight @ (residual * residual))


def train_glove(
    table: np.ndarray,
    vocab: Vocabulary,
    config: GloveConfig,
) -> tuple[EmbeddingMatrix, list[float]]:
    """Fit vectors and biases over the table; return embeddings + epoch losses.

    `table` is a cooccur.RECORD array whose word ids index `vocab`; it is
    taken over and comes back shuffled. Each epoch shuffles its records in
    place with one seeded rng and visits them in order, BATCH at a time,
    taking each record's loss and gradient at its batch's pre-step
    parameters: a batch of one is the per-record AdaGrad loop. A slice of
    CHUNK_RECORDS records is weighted at once; each batch finds its own
    repeated rows. The loss per epoch is the sum of those losses. Divergence
    is surfaced: non-finite parameters or a non-finite loss raise, never clipped.
    """
    if not len(table):
        raise MetlitError("empty co-occurrence table")
    top = max(table["i"].max(), table["j"].max())
    if top >= len(vocab):
        raise MetlitError(f"co-occurrence table has word id {top}, outside the "
                         f"vocabulary of {len(vocab)} words")
    if not (table["x"] > 0).all():
        raise MetlitError("pair loss requires X_ij > 0 (log undefined)")
    v = len(vocab)
    try:  # numpy gives ValueError for a size past its index range
        params, acc = init_params(v, config.dim, config.seed)
    except (MemoryError, ValueError):
        raise MetlitError(f"--dim {config.dim}: cannot allocate the V×D parameter matrices")
    chunk = BATCH * max(1, CHUNK_RECORDS // BATCH)
    shuffle_rng = np.random.default_rng(config.seed + 1)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        shuffle_rng.shuffle(table)  # permutation(len(table))'s swaps, on the records
        epoch_loss = 0.0
        with np.errstate(all="ignore"):
            for a in range(0, len(table), chunk):
                part = table[a:a + chunk]
                rows = np.column_stack([part["i"], part["j"]]).astype(np.intp) + [0, v]
                epoch_loss += _train_chunk(params, acc, rows, weights(part["x"], config),
                                           np.log(part["x"]), config.lr)
        if not np.isfinite(params).all():
            raise MetlitError(f"non-finite parameters after epoch {epoch}")
        if not math.isfinite(epoch_loss):
            raise MetlitError(f"non-finite loss in epoch {epoch}")
        epoch_losses.append(epoch_loss)
    del acc
    embeddings = EmbeddingMatrix(list(vocab.words), params[:v, :-1] + params[v:, :-1])
    return embeddings, epoch_losses
