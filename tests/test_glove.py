import math

import numpy as np
import pytest

from metlit import glove
from metlit.cooccur import RECORD, build_cooccurrence
from metlit.corpus import Vocabulary, build_vocabulary
from metlit.glove import (
    GloveConfig,
    init_params,
    pair_gradients,
    total_loss,
    train_glove,
    weights,
)

from helpers import (
    adagrad_step,
    as_encoded,
    max_relerr,
    mean_cosine,
    numeric_grad,
    reference_glove_chunk,
    reference_train_glove,
    traced_peak,
    two_topic_corpus,
    zipf_sentences,
)


def random_params(rng, v, d):
    """Stacked parameters with w, w~, b and b~ drawn from N(0, 1)."""
    params = np.empty((2 * v, d + 1))
    for part in (params[:v, :-1], params[v:, :-1], params[:v, -1], params[v:, -1]):
        part[...] = rng.normal(0, 1, part.shape)
    return params


def exact_count(params, i, j):
    """The count X_ij at which record (i, j) has zero residual."""
    main, context = params[i], params[len(params) // 2 + j]
    return math.exp(float(main[:-1] @ context[:-1] + main[-1] + context[-1]))


class TestWeightFunction:
    def test_zero_count_gets_zero_weight(self):
        assert weights(0.0) == 0.0

    def test_cap_at_x_max(self):
        assert weights(100.0) == 1.0
        assert weights(1e6) == 1.0

    def test_midpoint_closed_form(self):
        assert weights(50.0) == pytest.approx(0.5**0.75, abs=1e-12)
        assert weights(50.0) == pytest.approx(0.5946035575013605, abs=1e-12)

    def test_monotone_on_grid(self):
        ys = weights(np.linspace(0, 120, 1000)).tolist()
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert all(0.0 <= y <= 1.0 for y in ys)

    def test_custom_params(self):
        config = GloveConfig(x_max=10.0, alpha=1.0)
        assert weights(5.0, config) == pytest.approx(0.5, abs=1e-12)

    def test_vectorized_equals_scalar_below_at_and_above_cutoff(self):
        for config in (GloveConfig(), GloveConfig(x_max=10.0, alpha=0.5)):
            xs = np.array([1e-9, 0.3, 1.0, 7.5, 9.999, 10.0, 10.5, 50.0,
                           99.99, 100.0, 100.01, 1e6])
            for x, f in zip(xs.tolist(), weights(xs, config).tolist()):
                if x < config.x_max:
                    # numpy's vectorized power may round 1 ulp off libm's pow
                    closed = min(x / config.x_max, 1.0) ** config.alpha
                    assert f == pytest.approx(closed, rel=1e-15, abs=0)
                else:
                    assert f == 1.0


class TestPairLoss:
    def test_zero_residual_gives_zero_loss(self):
        params = random_params(np.random.default_rng(0), 3, 2)
        loss = pair_gradients(params, 0, 1, exact_count(params, 0, 1))[0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_unit_count_zero_parameters(self):
        assert pair_gradients(np.zeros((4, 3)), 0, 1, 1.0)[0] == 0.0  # ln 1 = 0 exactly

    def test_count_e_zero_parameters(self):
        expected = (math.e / 100.0) ** 0.75  # f(e) * (0 - 1)^2
        assert pair_gradients(np.zeros((4, 3)), 0, 1, math.e)[0] == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(0.0670, abs=1e-4)  # 0.06694... to 3 figures

    def test_nonpositive_count_rejected(self):
        params = random_params(np.random.default_rng(1), 2, 2)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                pair_gradients(params, 0, 1, bad)


class TestPairGradients:
    def test_zero_residual_gives_zero_gradients(self):
        params = random_params(np.random.default_rng(2), 3, 2)
        loss, grad_i, grad_j = pair_gradients(params, 1, 2, exact_count(params, 1, 2))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(grad_i, 0, atol=1e-9) and np.allclose(grad_j, 0, atol=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            params = random_params(rng, v, d)
            i, j = int(rng.integers(v)), int(rng.integers(v))
            x = float(rng.uniform(0.5, 150.0))
            _, grad_i, grad_j = pair_gradients(params, i, j, x)
            num = numeric_grad(lambda p, i=i, j=j, x=x: pair_gradients(p, i, j, x)[0],
                               params.copy())
            assert max_relerr(grad_i, num[i]) < 1e-4
            assert max_relerr(grad_j, num[v + j]) < 1e-4
            assert not np.delete(num, [i, v + j], axis=0).any()


class TestAdagrad:
    def test_first_step_divides_by_unit_accumulator(self):
        params = random_params(np.random.default_rng(4), 2, 2)
        acc = np.ones_like(params)
        before = params.copy()
        _, grad_i, grad_j = pair_gradients(params, 0, 1, 5.0)
        adagrad_step(params, acc, 0, 1, 5.0, lr0=0.1)
        # pre-update accumulator is exactly 1, so the step is plain lr * grad;
        # the rows are i = 0 and V + j = 3
        assert np.allclose(params[0], before[0] - 0.1 * grad_i, atol=1e-12)
        assert np.allclose(params[3], before[3] - 0.1 * grad_j, atol=1e-12)
        assert np.allclose(acc[0], 1.0 + grad_i**2, atol=1e-12)
        assert np.allclose(acc[3], 1.0 + grad_j**2, atol=1e-12)

    def test_zero_residual_step_is_identity(self):
        params = random_params(np.random.default_rng(5), 2, 2)
        before = params.copy()
        adagrad_step(params, np.ones_like(params), 0, 1, exact_count(params, 0, 1), lr0=0.1)
        assert np.allclose(params, before, atol=1e-9)

    def test_repeated_steps_shrink_pair_loss(self):
        params = random_params(np.random.default_rng(6), 2, 3)
        acc = np.ones_like(params)
        first = pair_gradients(params, 0, 1, 10.0)[0]
        for _ in range(50):
            adagrad_step(params, acc, 0, 1, 10.0, lr0=0.1)
        assert pair_gradients(params, 0, 1, 10.0)[0] < 1e-3 * max(first, 1.0)

    def test_nonpositive_lr_rejected(self):
        params = random_params(np.random.default_rng(7), 2, 2)
        with pytest.raises(ValueError):
            adagrad_step(params, np.ones_like(params), 0, 1, 1.0, lr0=0.0)


class TestTrainGlove:
    def _table_and_vocab(self, seed=0, n_tokens=3000):
        rng = np.random.default_rng(seed)
        sentences, topic_a, topic_b = two_topic_corpus(rng, n_tokens=n_tokens)
        vocab = build_vocabulary(sentences)
        encoded = as_encoded([vocab.encode(s) for s in sentences])
        table = build_cooccurrence(encoded, window=4)
        return table, vocab, topic_a, topic_b

    def test_epochs_zero_returns_initialization(self):
        # the draw order is pinned here, not by init_params: reordering it
        # would change every GloVe artifact
        table, vocab, _, _ = self._table_and_vocab()
        v, d = len(vocab), 6
        emb, losses = train_glove(table, vocab, GloveConfig(dim=d, epochs=0, seed=2))
        assert losses == []
        rng = np.random.default_rng(2)
        w, w_tilde, b, b_tilde = (rng.uniform(-0.5 / d, 0.5 / d, shape)
                                  for shape in [(v, d), (v, d), v, v])
        assert np.array_equal(emb.vectors, w + w_tilde)
        params, acc = init_params(v, d, seed=2)
        assert np.array_equal(params, np.vstack([np.column_stack([w, b]),
                                                 np.column_stack([w_tilde, b_tilde])]))
        assert np.array_equal(acc, np.ones((2 * v, d + 1)))

    def test_empty_table_is_an_error(self):
        _, vocab, _, _ = self._table_and_vocab()
        with pytest.raises(ValueError):
            train_glove(np.empty(0, dtype=RECORD), vocab, GloveConfig(dim=4))

    def test_word_id_outside_vocabulary_is_an_error(self):
        vocab = build_vocabulary([["a", "b", "c", "d"]], min_count=1)
        table = np.array([(0, 4, 1.0), (4, 0, 1.0)], dtype=RECORD)
        with pytest.raises(ValueError) as exc:
            train_glove(table, vocab, GloveConfig(dim=4))
        assert str(exc.value) == (
            "co-occurrence table has word id 4, outside the vocabulary of 4 words"
        )

    @pytest.mark.parametrize("count", [0.0, -1.0, float("nan")])
    def test_count_not_positive_is_an_error(self, count):
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        table = np.array([(0, 1, count), (1, 0, 2.0)], dtype=RECORD)
        with pytest.raises(ValueError, match=r"pair loss requires X_ij > 0"):
            train_glove(table, vocab, GloveConfig(dim=4, epochs=0))

    def test_loss_decreases(self):
        table, vocab, _, _ = self._table_and_vocab()
        _, losses = train_glove(table, vocab, GloveConfig(dim=8, epochs=8, seed=0))
        assert losses[-1] < losses[0]

    def test_same_seed_bit_reproducible(self):
        # the trainer shuffles the table it is given, so each run gets a copy
        table, vocab, _, _ = self._table_and_vocab(n_tokens=1200)
        config = GloveConfig(dim=6, epochs=3, seed=4)
        emb1, losses1 = train_glove(table.copy(), vocab, config)
        emb2, losses2 = train_glove(table.copy(), vocab, config)
        assert np.array_equal(emb1.vectors, emb2.vectors)
        assert losses1 == losses2

    def test_trained_table_holds_the_records_given(self):
        table, vocab, _, _ = self._table_and_vocab(n_tokens=1200)
        given = table.copy()
        train_glove(table, vocab, GloveConfig(dim=6, epochs=3, seed=4))
        assert not np.array_equal(table, given)  # shuffled in place
        assert np.array_equal(np.sort(table, order=("i", "j")), given)

    def test_two_topic_separation(self):
        table, vocab, topic_a, topic_b = self._table_and_vocab(n_tokens=4000)
        emb, _ = train_glove(table, vocab, GloveConfig(dim=16, epochs=12, seed=0))
        intra = mean_cosine(emb, topic_a, topic_a)
        inter = mean_cosine(emb, topic_a, topic_b)
        assert intra > inter

    @pytest.mark.memory
    def test_working_memory_holds_no_table_length_array(self):
        # 30k tokens over 2,000 ids, about 137k records: each chunk's rows,
        # weights and logs are computed from a slice of the table shuffled
        # in place, where table-length ones would add two tables and an
        # epoch order a quarter of one (at 4 bytes a record); the parameters
        # with their accumulators are a third of a table
        sentences = zipf_sentences(np.random.default_rng(0), 30_000, 2000)
        table = build_cooccurrence(as_encoded(sentences), window=10)
        words = [str(i) for i in range(2000)]
        vocab = Vocabulary(words, dict.fromkeys(words, 1))
        _, peak = traced_peak(train_glove, table, vocab, GloveConfig(dim=10, epochs=1))
        assert peak < 0.5 * table.nbytes, f"{peak / table.nbytes:.2f} tables"

    @pytest.mark.parametrize("n", [1, 2, 10, 1000, 296_550])
    @pytest.mark.parametrize("seed", [0, 1, 12])
    def test_shuffled_table_is_the_permutation(self, n, seed):
        # train_glove shuffles its 16-byte records in place: the order
        # permutation(n) gives, and the same draws after it, so one epoch
        # visits the records as an index permutation would
        rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
        table = np.zeros(n, dtype=RECORD)
        table["i"] = table["x"] = np.arange(n)
        rng.shuffle(table)
        assert np.array_equal(table["i"], expected.permutation(n))
        assert np.array_equal(table["x"], table["i"])  # whole records move
        assert rng.random() == expected.random()

    @pytest.mark.memory
    def test_set_up_draws_straight_into_the_stacked_parameters(self):
        # the stacked parameters and their accumulators are two (2V, D + 1)
        # matrices, and a draw of w or w~ half of one more; a GloveModel
        # stacked into them would add its parameters and four accumulators
        v, d = 2000, 50
        table = np.array([(0, v - 1, 1.0), (v - 1, 0, 1.0)], dtype=RECORD)
        words = [str(i) for i in range(v)]
        vocab = Vocabulary(words, dict.fromkeys(words, 1))
        _, peak = traced_peak(train_glove, table, vocab, GloveConfig(dim=d, epochs=0))
        matrix = 2 * v * (d + 1) * 8
        assert peak < 3 * matrix, f"{peak / matrix:.2f} stacked-parameter matrices"


class TestFixedPoint:
    def test_exact_solution_has_negligible_loss(self):
        v = 4
        params = random_params(np.random.default_rng(8), v, 3)
        table = np.array([(i, j, exact_count(params, i, j)) for i in range(v) for j in range(v)],
                         dtype=RECORD)
        assert total_loss(params, table) < 1e-12


class TestBatchedKernel:
    def _table_and_vocab(self, n_tokens):
        rng = np.random.default_rng(11)
        sentences, _, _ = two_topic_corpus(rng, n_tokens=n_tokens, topic_size=5)
        vocab = build_vocabulary(sentences)
        table = build_cooccurrence(as_encoded([vocab.encode(s) for s in sentences]), window=3)
        return table, vocab

    def test_batch_of_one_equals_per_record_loop(self, monkeypatch):
        table, vocab = self._table_and_vocab(400)
        assert len(table) % 32 and len(table) > 32
        config = GloveConfig(dim=5, lr=0.1, epochs=2, seed=3)
        expected, expected_losses = reference_train_glove(table, vocab, config)
        monkeypatch.setattr(glove, "BATCH", 1)
        emb, losses = train_glove(table, vocab, config)
        assert np.abs(emb.vectors - expected.vectors).max() < 1e-12
        assert len(losses) == 2
        assert np.allclose(losses, expected_losses, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("batch, lr", [
        (None, 0.05),  # the whole table in one batch: all at the initial values
        (32, 1e-300),  # updates round away; the last, partial batch still counts
    ])
    def test_epoch_loss_sums_every_record_at_pre_step_values(self, monkeypatch, batch, lr):
        table, vocab = self._table_and_vocab(400)
        assert len(table) % 32
        monkeypatch.setattr(glove, "BATCH", batch or len(table))
        config = GloveConfig(dim=5, lr=lr, epochs=1, seed=3)
        _, losses = train_glove(table, vocab, config)
        initial = total_loss(init_params(len(vocab), 5, seed=3)[0], table)
        assert losses[0] == pytest.approx(initial, rel=1e-12)

    def test_shared_rows_add_gradients_and_squared_gradients(self, monkeypatch):
        rng = np.random.default_rng(12)
        v, d, lr = 3, 4, 0.1
        params = rng.normal(0, 0.5, (2 * v, d + 1))
        acc = rng.uniform(1.0, 2.0, (2 * v, d + 1))
        # records (0, 1), (0, 2) and (0, 0) share main row 0, so a second
        # gradient adds onto a sum; (1, 1) has i == j and shares context row 1
        # with (0, 1)
        records = [(0, 1, 3.0), (0, 2, 20.0), (1, 1, 150.0), (0, 0, 7.0)]
        expected_p, expected_a = params.copy(), acc.copy()
        grads = {}
        expected_loss = 0.0
        for i, j, x in records:
            main, context = params[i], params[v + j]
            residual = main[:d] @ context[:d] + main[d] + context[d] - math.log(x)
            f = weights(x)
            expected_loss += f * residual * residual
            common = 2.0 * f * residual
            grads.setdefault(i, []).append(common * np.append(context[:d], 1.0))
            grads.setdefault(v + j, []).append(common * np.append(main[:d], 1.0))
        assert [len(grads[r]) for r in (0, v + 1)] == [3, 2]
        for r, gs in grads.items():
            expected_p[r] -= lr * sum(gs) / np.sqrt(acc[r])
            expected_a[r] += sum(g * g for g in gs)
        pairs = np.array([(i, v + j) for i, j, _ in records])
        monkeypatch.setattr(glove, "BATCH", len(records))
        xs = np.array([x for _, _, x in records])
        loss = glove._train_chunk(params, acc, pairs, weights(xs), np.log(xs), lr)
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        assert np.allclose(params, expected_p, rtol=0, atol=1e-14)
        assert np.allclose(acc, expected_a, rtol=0, atol=1e-14)


class TestSlotOrderStep:
    """glove._train_chunk against the scatter-plan step it replaced, bit for bit."""

    @staticmethod
    def _both(monkeypatch, batch, v, d, chunks, seed=5):
        """Both steps over the chunks twice, from the same start; returns
        the bytes of their parameters and accumulators, and their losses."""
        monkeypatch.setattr(glove, "BATCH", batch or max(len(pairs) for pairs, _ in chunks))
        ends = []
        for step in (glove._train_chunk,
                     lambda *args: reference_glove_chunk(*args, glove.BATCH)):
            params, acc = init_params(v, d, seed)
            acc += np.random.default_rng(seed).uniform(0.0, 3.0, acc.shape)
            losses = [step(params, acc, pairs, weights(x), np.log(x), 0.1)
                      for pairs, x in chunks * 2]
            ends.append((params.tobytes(), acc.tobytes(), losses))
        return ends

    @pytest.mark.parametrize("batch", [32, 1, None])
    def test_chunks_of_a_real_table(self, monkeypatch, batch):
        # 30k Zipf tokens over 300 ids: frequent words repeat within a batch
        sentences = zipf_sentences(np.random.default_rng(3), 30_000, 300)
        table = build_cooccurrence(as_encoded(sentences), window=10)
        np.random.default_rng(4).shuffle(table)
        v, chunk = 300, glove.CHUNK_RECORDS
        chunks = []
        for a in range(0, 3 * chunk + 77, chunk):  # the last chunk is short
            part = table[a:min(a + chunk, 3 * chunk + 77)]
            chunks.append((np.column_stack([part["i"], part["j"] + v]).astype(np.intp),
                           part["x"]))
        assert len(chunks[-1][0]) == 77
        ours, theirs = self._both(monkeypatch, batch, v, 8, chunks)
        assert ours == theirs

    @pytest.mark.parametrize("batch", [32, 1, None])
    def test_rows_repeated_two_three_and_five_times(self, monkeypatch, batch):
        # a 32-record batch where main rows 0, 1, 2 and context rows V + 3,
        # V + 4, V + 5 occur 2, 3 and 5 times each, then a short batch of 7
        # records with rows repeated 2 and 3 times
        rng = np.random.default_rng(9)
        v = 40
        main = np.r_[[0] * 2, [1] * 3, [2] * 5, np.arange(10, 32)]
        context = np.r_[[3] * 2, [4] * 3, [5] * 5, np.arange(12, 34)]
        tail_main, tail_context = np.r_[[6] * 2, [7] * 3, 8, 9], np.r_[[3] * 3, [6] * 2, 1, 2]
        pairs = np.column_stack([np.r_[rng.permutation(main), rng.permutation(tail_main)],
                                 np.r_[rng.permutation(context), rng.permutation(tail_context)]
                                 + v]).astype(np.intp)
        assert len(pairs) == 39
        x = rng.uniform(0.5, 150.0, len(pairs))
        ours, theirs = self._both(monkeypatch, batch, v, 6, [(pairs, x)])
        assert ours == theirs
