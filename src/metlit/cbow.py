"""CBOW word vector training by stochastic gradient descent.

Predicts a center word from the mean of its context vectors. Training
minimizes the negative-sampling surrogate of J = -log P(center | context)
over minibatches of windows. The parameters are one stacked array: V input
rows, a zero row, V output rows and a zero row, so word c's output row is
len(params) // 2 + c. The per-window losses below (exact softmax and
negative sampling) read those rows; they are the references the gradient
checks in the tests are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MetlitError
from .corpus import Encoded, Vocabulary
from .embeddings import EmbeddingMatrix, batch_plan

LR_FLOOR_FRACTION = 1e-4  # linear decay ends at lr0 * this


def init_params(vocab_size: int, dim: int, seed: int = 0) -> np.ndarray:
    """The stacked parameters: input rows uniform in [-0.5/D, 0.5/D], drawn
    from the seed, over a zero row, zero output rows and a zero row."""
    params = np.zeros((2 * vocab_size + 2, dim))
    params[:vocab_size] = np.random.default_rng(seed).uniform(
        -0.5 / dim, 0.5 / dim, (vocab_size, dim))
    return params


def context_mean(params: np.ndarray, context) -> np.ndarray:
    """Arithmetic mean of the input rows of the context ids."""
    if not len(context):
        raise MetlitError("empty context window")
    return params[context].mean(axis=0)


def loss_exact(params: np.ndarray, center: int, context) -> float:
    """-log softmax(output rows . context_mean)[center]; always >= 0."""
    logits = params[len(params) // 2:-1] @ context_mean(params, context)
    # log1p(sum over k != center of exp(logit_k - logit_center)): no terms cancel
    gaps = np.delete(logits, center) - logits[center]
    shift = gaps.max(initial=0.0)
    return float(shift + np.log1p(np.expm1(-shift) + np.exp(gaps - shift).sum()))


class UnigramSampler:
    """Draws noise words from unigram frequency raised to the 0.75 power.

    A uniform u draws word searchsorted(cumulative, u, side="right"). A guide
    table gives that word for u in each of GUIDE equal buckets of [0, 1)
    that holds no cumulative edge; only draws in the other buckets search.
    """

    GUIDE = 1 << 16  # a power of two, so u * GUIDE and cumulative * GUIDE are exact

    def __init__(self, freqs: np.ndarray):
        weights = np.asarray(freqs, dtype=np.float64) ** 0.75
        total = weights.sum()
        if total <= 0:
            raise MetlitError("sampler needs at least one positive frequency")
        self._cumulative = np.cumsum(weights / total)
        self._cumulative[-1] = 1.0
        # searchsorted(cumulative, g / GUIDE) counts the w with edge[w] <= g, so
        # word w fills edge[w] - edge[w - 1] of the GUIDE + 1 grid points
        edge = (self._cumulative * self.GUIDE).astype(np.int32) + 1
        first = np.repeat(np.arange(len(edge), dtype=np.int32), np.diff(edge, prepend=0))
        self._guide, self._search = first[:-1], first[:-1] != first[1:]

    @classmethod
    def from_vocabulary(cls, vocab: Vocabulary) -> "UnigramSampler":
        return cls(np.array([vocab.freq[w] for w in vocab.words], dtype=np.float64))

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        u = rng.random(k)
        bucket = (u * self.GUIDE).astype(np.intp)
        words = self._guide[bucket]
        search = np.flatnonzero(self._search[bucket])
        words[search] = np.searchsorted(self._cumulative, u[search], side="right")
        return words


def negative_loss(params: np.ndarray, center: int, context, negatives) -> float:
    """Surrogate loss: -log sig(s_center) - sum(log sig(-s_negative))."""
    rows = len(params) // 2 + np.array([center, *negatives])
    scores = params[rows] @ context_mean(params, context)
    return float(np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum())


@dataclass
class CbowConfig:
    dim: int = 100
    window: int = 5           # radius m
    epochs: int = 5
    lr: float = 0.05
    negatives: int = 5
    seed: int = 0


BATCH = 32           # windows per SGD step
CHUNK_WINDOWS = 1024  # windows built, given negatives and planned at a time


def _window_schedule(lr0: float, processed: np.ndarray, total: int) -> np.ndarray:
    """Linear decay from lr0 to lr0 * LR_FLOOR_FRACTION over `total` windows."""
    frac = processed / total
    return lr0 * np.maximum(LR_FLOOR_FRACTION, 1.0 - (1.0 - LR_FLOOR_FRACTION) * frac)


def build_windows(
    tokens: np.ndarray, offsets: np.ndarray, positions: np.ndarray, m: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Contexts of the windows centered at `positions`.

    Returns (ids, counts): row r holds the counts[r] context ids of window
    r, left context then right, cut at the sentence edges as
    iterate_windows cuts them, followed by `pad` up to width 2m. Sentence k
    is tokens[offsets[k]:offsets[k + 1]], as in corpus.Encoded.
    """
    sentence = np.searchsorted(offsets, positions, side="right") - 1
    left = np.minimum(positions - offsets[sentence], m)
    right = np.minimum(offsets[sentence + 1] - 1 - positions, m)
    counts = left + right
    # column c is the c-th context token: it skips the center once c >= left
    c = np.arange(2 * m)
    idx = positions[:, None] - left[:, None] + c + (c >= left[:, None])
    ids = tokens.take(idx, mode="clip")
    ids[c >= counts[:, None]] = pad
    return ids, counts


def _train_chunk(params, context, counts, rows, kept, lr, stack):
    """Summed negative-sampling steps over a chunk of windows, BATCH at a
    time; returns the sum of the windows' pre-step losses.

    `params` is laid out as init_params lays it out; `rows` index its
    output half (center, then negatives). Every window's gradient is taken
    at its batch's pre-step parameters, and rows shared within a batch
    accumulate every contribution. Padding and dropped negatives point at
    the zero rows, which are cleared again after each step. grad_h and h are
    written into the first 2n rows of `stack`, a (2 BATCH, D) buffer.
    """
    width = context.shape[1]
    pads = [len(params) // 2 - 1, len(params) - 1]
    # batch k of n windows updates the rows touched[starts[k]:starts[k + 1]],
    # and entry (r, c) of [context | rows] adds weight[r, c] to cell
    # cells[r, c] of its (touched, 2n) matrix m, in column b for window b's
    # context and n + b for its output rows; the step fills in the output weights
    touched, starts, slot = batch_plan(np.hstack([context, rows]), len(params), BATCH)
    window = np.arange(len(counts))
    size = np.minimum(BATCH, len(counts) - window // BATCH * BATCH)[:, None]
    b = (window % BATCH)[:, None]
    cells = slot * 2 * size + np.where(np.arange(slot.shape[1]) < width, b, b + size)
    weight = np.empty(slot.shape)
    weight[:, :width] = (-lr / counts)[:, None]
    scores = np.empty(rows.shape)
    for k, a in enumerate(range(0, len(counts), BATCH)):
        s, ids = slice(a, a + BATCH), touched[starts[k]:starts[k + 1]]
        n = len(counts[s])
        grad_h, h = stack[:n], stack[n:2 * n]
        np.divide(params.take(context[s].T, axis=0).sum(axis=0), counts[s, None], out=h)
        out = params.take(rows[s], axis=0)
        scores[s] = np.matmul(out, h[:, :, None])[..., 0]
        coeff = 1.0 / (1.0 + np.exp(-scores[s]))
        coeff[:, 0] -= 1.0
        coeff[:, 1:] *= kept[s]
        np.matmul(coeff[:, None, :], out, out=grad_h[:, None, :])
        # Scatter-add both updates as one product, which is faster than
        # np.add.at on rows: touched row r gains sum_b m[r, b] * [grad_h; h][b].
        # bincount adds in the order np.add.at does, so m is the same bits.
        np.multiply(-lr[s, None], coeff, out=weight[s, width:])
        m = np.bincount(cells[s].ravel(), weight[s].ravel(), len(ids) * 2 * n)
        params[ids] += m.reshape(-1, 2 * n) @ stack[:2 * n]
        params[pads] = 0.0
    pos, neg = np.logaddexp(0.0, -scores[:, 0]), np.logaddexp(0.0, scores[:, 1:])
    return float(pos.sum() + neg.sum(where=kept))


def train_cbow(
    sentences: Encoded,
    vocab: Vocabulary,
    config: CbowConfig,
) -> tuple[EmbeddingMatrix, list[float]]:
    """Train over encoded sentences; return embeddings and mean loss per epoch.

    The final embeddings are the input (context-side) vectors. The order of
    the non-empty sentences is reshuffled each epoch from the seed, and
    training is bit-reproducible for a given seed. Each window draws its k
    negatives from the epoch's rng and, as word2vec does, skips a draw equal
    to its center. Windows are stepped BATCH at a time; with BATCH = 1 this
    is the per-window negative-sampling loop.
    """
    lengths = sentences.lengths()
    nonempty = np.flatnonzero(lengths)
    if not len(nonempty):
        raise MetlitError("empty corpus")
    if lengths.max() < 2:
        raise MetlitError("no sentence has two in-vocabulary tokens: CBOW has no window")
    if config.negatives > len(vocab):
        raise MetlitError(f"--negatives must be <= the vocabulary size {len(vocab)}, "
                          f"got {config.negatives}")
    # no context reaches past the longest sentence
    m = min(config.window, int(lengths.max()) - 1)
    pad = len(vocab)  # the zero input row; pad + 1 + c is word c's output row
    try:  # numpy gives ValueError for a size past its index range
        params = init_params(pad, config.dim, config.seed)
        stack = np.empty((2 * BATCH, config.dim))
    except (MemoryError, ValueError):
        raise MetlitError(f"--dim {config.dim}: cannot allocate the V×D parameter matrices")
    sampler = UnigramSampler.from_vocabulary(vocab)
    order_rng = np.random.default_rng(config.seed + 1)
    windows_per_epoch = int(lengths.sum())
    trained = windows_per_epoch - int(np.count_nonzero(lengths == 1))
    total = windows_per_epoch * max(config.epochs, 1)
    chunk = BATCH * max(1, CHUNK_WINDOWS // BATCH)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        # the epoch's stream is the shuffled sentences back to back; only
        # per-sentence arrays are held: their corpus starts and stream offsets
        order = nonempty[order_rng.permutation(len(nonempty))]
        sizes, starts = lengths[order], sentences.offsets[order]
        stream = np.concatenate([[0], np.cumsum(sizes)])
        # a one-token sentence's window has no context: it is skipped and
        # takes no draws, but its position still advances the lr schedule;
        # skips[j] windows come before the j-th one-token sentence
        singles = stream[:-1][sizes == 1]
        skips = singles - np.arange(len(singles))
        rng = np.random.default_rng(config.seed + 7919 * (epoch + 1))
        loss_sum = 0.0
        with np.errstate(all="ignore"):
            for a in range(0, trained, chunk):
                k = np.arange(a, min(a + chunk, trained))
                where = k + np.searchsorted(skips, k, side="right")  # stream positions
                s = np.searchsorted(stream, where, side="right") - 1
                at = where - stream[s] + starts[s]  # their positions in the corpus as read
                context, counts = build_windows(sentences.tokens, sentences.offsets, at, m, pad)
                centers = sentences.tokens[at]
                # word2vec's rule: a draw equal to the center is skipped
                negatives = sampler.draw(rng, len(where) * config.negatives)
                negatives = negatives.reshape(len(where), -1)
                kept = negatives != centers[:, None]
                negatives[~kept] = pad
                rows = np.concatenate([centers[:, None], negatives], axis=1) + pad + 1
                lr = _window_schedule(
                    config.lr, epoch * windows_per_epoch + where, total
                )
                loss_sum += _train_chunk(params, context, counts, rows, kept, lr, stack)
        if not np.isfinite(params).all():
            raise MetlitError(f"non-finite parameters after epoch {epoch}")
        epoch_losses.append(loss_sum / trained)
        if not math.isfinite(epoch_losses[-1]):
            raise MetlitError(f"non-finite loss in epoch {epoch}")
    embeddings = EmbeddingMatrix(list(vocab.words), params[:pad].copy())
    return embeddings, epoch_losses
