"""Shared fixtures: finite-difference checks, synthetic data generators and
per-sample reference implementations that fast kernels are checked against."""
import math
import tracemalloc

import numpy as np

from metlit import LABELS, LITERAL, METAPHOR, MetlitError, cbow
from metlit.cbow import LR_FLOOR_FRACTION, UnigramSampler, context_mean, loss_exact, negative_loss
from metlit.classifier import FoldMetrics, SvmModel
from metlit.corpus import Encoded
from metlit.embeddings import EmbeddingMatrix
from metlit.glove import GloveConfig, init_params, pair_gradients
from metlit.sentvec import SentenceVectors
from metlit.stats import _welch_columns


def relerr(analytic, numeric):
    """Relative error with an absolute floor so zero gradients compare sanely."""
    a = float(analytic)
    n = float(numeric)
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function over a flat array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return g


def max_relerr(analytic, numeric):
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    return max(relerr(ai, ni) for ai, ni in zip(a, n))


def two_topic_corpus(rng, n_tokens=10000, topic_size=8):
    """Sentences drawn from two disjoint word families, one family per sentence.

    Returns (sentences, topic_a_words, topic_b_words).
    """
    topic_a = [f"alpha{i}" for i in range(topic_size)]
    topic_b = [f"beta{i}" for i in range(topic_size)]
    sentences = []
    produced = 0
    while produced < n_tokens:
        words = topic_a if rng.random() < 0.5 else topic_b
        length = int(rng.integers(5, 12))
        sentences.append([words[int(k)] for k in rng.integers(0, topic_size, length)])
        produced += length
    return sentences, topic_a, topic_b


def mean_cosine(emb, group_a, group_b):
    """Mean pairwise cosine between vectors of group_a and group_b.

    With group_a == group_b, averages distinct unordered pairs (intra-group).
    """
    def units(group):
        return [v / np.linalg.norm(v) for v in emb.vectors[emb.ids(group)]]

    ua, ub = units(group_a), units(group_b)
    sims = []
    same = group_a is group_b or group_a == group_b
    for i, va in enumerate(ua):
        for j, vb in enumerate(ub):
            if same and j <= i:
                continue
            sims.append(float(va @ vb))
    return float(np.mean(sims))


def labeled_vectors(values, metaphor):
    """Sentence vectors from rows and metaphor flags, each phrase covered 1/1."""
    values = np.array(values, dtype=np.float64)
    ones = np.ones(len(values), dtype=np.int64)
    return SentenceVectors(values, np.array(metaphor, dtype=bool), ones, ones.copy())


def make_blobs(rng, n_per_class=40, dim=2, separation=4.0):
    """Two Gaussian blobs along dimension 0: literal rows, then metaphor rows."""
    rows = []
    for center in (-separation / 2, separation / 2):
        for _ in range(n_per_class):
            values = rng.normal(0.0, 1.0, dim)
            values[0] += center
            rows.append(values)
    return labeled_vectors(rows, [False] * n_per_class + [True] * n_per_class)


def verb_object_corpus(rng, n_sentences=400, n_labeled=120, vocab_per_family=12):
    """Corpus where verbs co-occur with two disjoint object families.

    Returns (corpus_sentences, labeled_lines) where labeled_lines are TSV
    rows labelling phrases literal/metaphor by object family — a synthetic
    proxy with the same shape as a verb-phrase metaphor dataset.
    """
    verbs = ["open", "break", "carry", "hold"]
    family_a = [f"door{i}" for i in range(vocab_per_family)]
    family_b = [f"dream{i}" for i in range(vocab_per_family)]
    filler_a = [f"wood{i}" for i in range(vocab_per_family)]
    filler_b = [f"mist{i}" for i in range(vocab_per_family)]

    def sentence(family, filler):
        verb = verbs[int(rng.integers(len(verbs)))]
        obj = family[int(rng.integers(len(family)))]
        extra = [filler[int(k)] for k in rng.integers(0, len(filler), 3)]
        return [verb, obj] + extra

    corpus = []
    for _ in range(n_sentences):
        if rng.random() < 0.5:
            corpus.append(sentence(family_a, filler_a))
        else:
            corpus.append(sentence(family_b, filler_b))

    labeled = []
    for _ in range(n_labeled // 2):
        toks = sentence(family_a, filler_a)
        labeled.append(f"{LITERAL}\t{toks[0]}\t{' '.join(toks)}")
        toks = sentence(family_b, filler_b)
        labeled.append(f"{METAPHOR}\t{toks[0]}\t{' '.join(toks)}")
    return corpus, labeled


def write_corpus(path, sentences):
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            fh.write(" ".join(s) + "\n")


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def reference_train_svm(train, lam=1e-4, epochs=100, seed=0):
    """Per-sample Pegasos loop: the oracle for the classifier's kernel."""
    return reference_pegasos(train, lam, epochs, seed)[0]


def reference_pegasos(train, lam, epochs, seed):
    """The per-sample Pegasos fit, and the number of steps that updated w.

    One sample per step with eta_t = 1/(lam*t), features standardized on
    the training statistics, the bias as an augmented constant feature,
    projection onto ||w|| <= 1/sqrt(lam), and iterates over the second half
    of training averaged.
    """
    signs = np.array([1.0 if m else -1.0 for m in train.metaphor.tolist()])
    x = train.values
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (x - mean) / std
    n, dim = z.shape
    z_aug = np.hstack([z, np.ones((n, 1))])
    w = np.zeros(dim + 1)
    rng = np.random.default_rng(seed)
    radius = 1.0 / math.sqrt(lam)
    averaging_from = (epochs * n) // 2
    avg = np.zeros(dim + 1)
    averaged = violations = 0
    t = 0
    for _ in range(epochs):
        for idx in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            violated = signs[idx] * (z_aug[idx] @ w) < 1.0
            w *= 1.0 - eta * lam
            if violated:
                w += eta * signs[idx] * z_aug[idx]
                violations += 1
            norm = float(np.linalg.norm(w))
            if norm > radius:
                w *= radius / norm
            if t > averaging_from:
                avg += w
                averaged += 1
    if averaged:
        w = avg / averaged
    model = SvmModel(
        weights=w[:dim], bias=float(w[dim]), lam=lam, scale_mean=mean, scale_std=std
    )
    return model, violations


def reference_predict(model, values):
    """Return (label, margin) for one row; metaphor iff margin > 0, exact 0 -> literal."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (model.dim,):
        raise MetlitError(f"expected dimension {model.dim}, got {values.shape}")
    margin = float(model.standardize(values) @ model.weights + model.bias)
    return (METAPHOR if margin > 0 else LITERAL), margin


def reference_evaluate_fold(model, test):
    """Per-row confusion counts: the oracle for `classifier.evaluate_fold`."""
    tp = fp = tn = fn = 0
    for values, metaphor in zip(test.values, test.metaphor.tolist()):
        label = LABELS[metaphor]
        predicted, _ = reference_predict(model, values)
        if predicted == METAPHOR:
            if label == METAPHOR:
                tp += 1
            else:
                fp += 1
        else:
            if label == LITERAL:
                tn += 1
            else:
                fn += 1
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    return FoldMetrics(accuracy=accuracy, precision=precision, tp=tp, fp=fp, tn=tn, fn=fn)


def welch_t(sample_a, sample_b, alpha=0.05):
    """Welch's unequal-variance two-sample t-test, two-sided.

    t = (mean_a - mean_b) / sqrt(s2_a/n_a + s2_b/n_b) with n-1 variances;
    degrees of freedom by Welch-Satterthwaite.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise MetlitError("each sample needs at least 2 elements")
    (result,) = _welch_columns(a[:, None], b[:, None], alpha, [None])
    if result.p_value is None:
        raise MetlitError("both samples have zero variance")
    return result


def exact_gradients(params, center, context):
    """The gradient of cbow.loss_exact over the stacked parameters: every
    output row's softmax term, and grad_h / |context| on the input row of
    each context occurrence."""
    out = len(params) // 2
    h = context_mean(params, context)
    logits = params[out:-1] @ h
    d_logits = np.exp(logits - logits.max())
    d_logits /= d_logits.sum()
    d_logits[center] -= 1.0
    grad = np.zeros_like(params)
    grad[out:-1] = np.outer(d_logits, h)
    np.add.at(grad, context, d_logits @ params[out:-1] / len(context))
    return grad


def negative_gradients(params, center, context, negatives):
    """The gradient of cbow.negative_loss over the stacked parameters, for
    fixed negatives; a repeated negative or context id gains every term."""
    rows = len(params) // 2 + np.array([center, *negatives])
    h = context_mean(params, context)
    coeff = 1.0 / (1.0 + np.exp(-(params[rows] @ h)))
    coeff[0] -= 1.0  # positive term: sigma - 1; negatives keep sigma
    grad = np.zeros_like(params)
    np.add.at(grad, rows, np.outer(coeff, h))
    np.add.at(grad, context, coeff @ params[rows] / len(context))
    return grad


def sgd_step_exact(params, center, context, lr):
    """Apply one exact-softmax gradient step in place; return pre-step loss."""
    if lr < 0:
        raise MetlitError("learning rate must be >= 0")
    loss = loss_exact(params, center, context)
    params -= lr * exact_gradients(params, center, context)
    return loss


def sample_negatives(sampler, rng, center, k):
    """Draw k negatives; a draw equal to the center is skipped, as word2vec
    skips it (`if (target == word) continue;`), so fewer than k may remain."""
    return [int(n) for n in sampler.draw(rng, k) if n != center]


def sgd_step_negative(params, center, context, lr, k, sampler, rng):
    """Apply one negative-sampling step in place; return pre-step loss."""
    if k < 1:
        raise MetlitError("negatives count must be >= 1")
    negatives = sample_negatives(sampler, rng, center, k)
    loss = negative_loss(params, center, context, negatives)
    params -= lr * negative_gradients(params, center, context, negatives)
    return loss


def iterate_windows(ids, m):
    """Yield one (center, context) pair per position; edge windows are
    truncated, not padded."""
    if m < 1:
        raise ValueError("window radius must be >= 1")
    for c in range(len(ids)):
        yield ids[c], list(ids[max(0, c - m):c]) + list(ids[c + 1:c + 1 + m])


def reference_train_cbow(sentences, vocab, config):
    """Per-window negative-sampling loop: the oracle for the batched kernel.

    Sentences are shuffled each epoch by a seed + 1 rng, and each epoch
    draws its negatives from a seed + 7919 * (epoch + 1) rng. A window
    without context is skipped but still advances the linear lr schedule.
    Returns the input rows as embeddings and the mean loss per epoch.
    """
    sentences = [s for s in sentences if s]
    params = cbow.init_params(len(vocab), config.dim, config.seed)
    sampler = UnigramSampler.from_vocabulary(vocab)
    order_rng = np.random.default_rng(config.seed + 1)
    total = sum(len(s) for s in sentences) * max(config.epochs, 1)
    epoch_losses = []
    processed = 0
    for epoch in range(config.epochs):
        rng = np.random.default_rng(config.seed + 7919 * (epoch + 1))
        loss_sum = 0.0
        steps = 0
        for idx in order_rng.permutation(len(sentences)):
            for center, context in iterate_windows(sentences[idx], config.window):
                if context:
                    lr = config.lr * max(
                        LR_FLOOR_FRACTION,
                        1.0 - (1.0 - LR_FLOOR_FRACTION) * (processed / total),
                    )
                    loss_sum += sgd_step_negative(
                        params, center, context, lr, config.negatives, sampler, rng
                    )
                    steps += 1
                processed += 1
        epoch_losses.append(loss_sum / steps if steps else 0.0)
    return EmbeddingMatrix(list(vocab.words), params[:len(vocab)]), epoch_losses


def reference_cooccurrence(sentences, window, weighting):
    """Per-pair dict loop: the oracle for the vectorized co-occurrence count.

    Each in-window position pair adds its weight to X_ij, then to X_ji,
    as a running sum per key. Returns {(i, j): X_ij}.
    """
    entries = {}
    for ids in sentences:
        n = len(ids)
        for a in range(n):
            i = ids[a]
            for d in range(1, min(window, n - 1 - a) + 1):
                j = ids[a + d]
                weight = 1.0 if weighting == "flat" else 1.0 / d
                entries[(i, j)] = entries.get((i, j), 0.0) + weight
                entries[(j, i)] = entries.get((j, i), 0.0) + weight
    return entries


def adagrad_step(params, acc, i, j, x, lr0, config=GloveConfig()):
    """One AdaGrad update of rows i and V + j for entry (i, j); returns the
    pre-step loss.

    Updates use the accumulators as they stand, then the squared gradients
    are added, matching the usual convention for this objective.
    """
    if lr0 <= 0:
        raise MetlitError("lr0 must be positive")
    loss, grad_i, grad_j = pair_gradients(params, i, j, x, config)
    for row, grad in ((i, grad_i), (len(params) // 2 + j, grad_j)):
        params[row] -= lr0 * grad / np.sqrt(acc[row])
        acc[row] += grad * grad
    return loss


def reference_train_glove(table, vocab, config):
    """Per-record AdaGrad loop: the oracle for the batched GloVe kernel.

    Each epoch permutes the previous epoch's order by a seed + 1 shuffled
    permutation, as the trainer's in-place shuffle of its table does; the
    loss per epoch is the sum of each record's pre-step loss.
    """
    v = len(vocab)
    params, acc = init_params(v, config.dim, config.seed)
    entries = table.tolist()
    shuffle_rng = np.random.default_rng(config.seed + 1)
    epoch_losses = []
    order = np.arange(len(entries))
    for epoch in range(config.epochs):
        order = order[shuffle_rng.permutation(len(entries))]
        epoch_loss = 0.0
        with np.errstate(all="ignore"):
            for k in order:
                i, j, x = entries[k]
                epoch_loss += adagrad_step(params, acc, i, j, x, config.lr, config)
        if not np.isfinite(params).all():
            raise MetlitError(f"non-finite parameters after epoch {epoch}")
        if not math.isfinite(epoch_loss):
            raise MetlitError(f"non-finite loss in epoch {epoch}")
        epoch_losses.append(epoch_loss)
    return EmbeddingMatrix(list(vocab.words), params[:v, :-1] + params[v:, :-1]), epoch_losses


def reference_glove_chunk(params, acc, pairs, weight, log_x, lr, batch):
    """The GloVe chunk step as a scatter plan: the oracle, bit for bit, for
    glove._train_chunk at the same batch size.

    Each batch's distinct rows come from np.unique over the batch alone,
    and np.bincount sums the gradients and squared gradients of a row
    repeated in the batch, in slot order; returns the chunk's summed loss.
    """
    d = params.shape[1] - 1
    residual = np.empty(len(pairs))
    for a in range(0, len(pairs), batch):
        s = slice(a, a + batch)
        ids, slot = np.unique(pairs[s], return_inverse=True)
        # numpy 1.x returns the inverse flat, numpy 2.x in the shape of its input
        cells = slot.reshape(pairs[s].shape)[:, :, None] * (d + 1) + np.arange(d + 1)
        q = params.take(pairs[s], axis=0)
        main, context = q[:, 0], q[:, 1]
        residual[s] = (np.einsum("nd,nd->n", main[:, :d], context[:, :d])
                       + main[:, d] + context[:, d] - log_x[s])
        grad = q[:, ::-1].copy()
        grad[:, :, d] = 1.0
        grad *= (2.0 * weight[s] * residual[s])[:, None, None]
        g, sq = (np.bincount(cells.ravel(), v.ravel(), ids.size * (d + 1)).reshape(-1, d + 1)
                 for v in (grad, grad * grad))
        params[ids] -= lr * g / np.sqrt(acc[ids])
        acc[ids] += sq
    return float(weight @ (residual * residual))


def as_encoded(sentences):
    """Lists of ids as a corpus.Encoded, empty lists kept as empty sentences.

    The ids are int32, as corpus.read_encoded gives them, or uint32 where one
    passes 2^31 - 1, as the co-occurrence record's u32 ids allow.
    """
    offsets = np.zeros(len(sentences) + 1, np.int64)
    np.cumsum([len(s) for s in sentences], out=offsets[1:])
    ids = [w for s in sentences for w in s]
    dtype = np.int32 if max(ids, default=0) < 2**31 else np.uint32
    return Encoded(np.array(ids, dtype=dtype), offsets, len(ids))


def zipf_sentences(rng, n_tokens, vocab_size, length=14):
    """Sentences of `length` ids (the last may be shorter), id r drawn with
    probability proportional to 1 / (r + 1), as word ranks fall in text."""
    p = 1.0 / np.arange(1, vocab_size + 1)
    ids = rng.choice(vocab_size, size=n_tokens, p=p / p.sum())
    return [ids[a:a + length].tolist() for a in range(0, n_tokens, length)]


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak of the memory it allocated on top of
    what was live when it was called, in bytes, as tracemalloc reports it."""
    # numpy imports numpy.random on the first draw: make that import here, so
    # that the peak does not depend on whether an earlier test made it
    np.random.default_rng(0).random()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    live = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - live
    finally:
        if not tracing:
            tracemalloc.stop()
