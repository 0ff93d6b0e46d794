import math

import numpy as np
import pytest

from metlit import glove
from metlit.cooccur import RECORD, build_cooccurrence
from metlit.corpus import build_vocabulary
from metlit.glove import (
    GloveConfig,
    GloveModel,
    WeightParams,
    init_model,
    pair_gradients,
    pair_loss,
    total_loss,
    train_glove,
    weight_f,
    weights,
)

from helpers import (
    adagrad_step,
    max_relerr,
    mean_cosine,
    numeric_grad,
    reference_train_glove,
    two_topic_corpus,
)


def random_glove(rng, v, d):
    model = init_model(v, d, seed=int(rng.integers(1000)))
    model.w = rng.normal(0, 1, (v, d))
    model.w_tilde = rng.normal(0, 1, (v, d))
    model.b = rng.normal(0, 1, v)
    model.b_tilde = rng.normal(0, 1, v)
    return model


class TestWeightFunction:
    def test_zero_count_gets_zero_weight(self):
        assert weight_f(0.0) == 0.0

    def test_cap_at_x_max(self):
        assert weight_f(100.0) == 1.0
        assert weight_f(1e6) == 1.0

    def test_midpoint_closed_form(self):
        assert weight_f(50.0) == pytest.approx(0.5**0.75, abs=1e-12)
        assert weight_f(50.0) == pytest.approx(0.5946035575013605, abs=1e-12)

    def test_monotone_on_grid(self):
        xs = np.linspace(0, 120, 1000)
        ys = [weight_f(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert all(0.0 <= y <= 1.0 for y in ys)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            weight_f(-1.0)

    def test_custom_params(self):
        params = WeightParams(a=1.0, x_max=10.0)
        assert weight_f(5.0, params) == pytest.approx(0.5, abs=1e-12)

    def test_vectorized_equals_scalar_below_at_and_above_cutoff(self):
        for params in (WeightParams(), WeightParams(a=0.5, x_max=10.0)):
            xs = np.array([1e-9, 0.3, 1.0, 7.5, 9.999, 10.0, 10.5, 50.0,
                           99.99, 100.0, 100.01, 1e6])
            for x, f in zip(xs.tolist(), weights(xs, params).tolist()):
                if x < params.x_max:
                    # numpy's vectorized power may round 1 ulp off libm's pow
                    assert f == pytest.approx(weight_f(x, params), rel=1e-15, abs=0)
                else:
                    assert f == weight_f(x, params) == 1.0


class TestPairLoss:
    def test_zero_residual_gives_zero_loss(self):
        rng = np.random.default_rng(0)
        model = random_glove(rng, 3, 2)
        x = math.exp(float(model.w[0] @ model.w_tilde[1] + model.b[0] + model.b_tilde[1]))
        assert pair_loss(model, 0, 1, x) == pytest.approx(0.0, abs=1e-12)

    def test_unit_count_zero_parameters(self):
        model = GloveModel(
            w=np.zeros((2, 2)), w_tilde=np.zeros((2, 2)),
            b=np.zeros(2), b_tilde=np.zeros(2),
            acc_w=np.ones((2, 2)), acc_w_tilde=np.ones((2, 2)),
            acc_b=np.ones(2), acc_b_tilde=np.ones(2),
        )
        assert pair_loss(model, 0, 1, 1.0) == 0.0  # ln 1 = 0 exactly

    def test_count_e_zero_parameters(self):
        model = GloveModel(
            w=np.zeros((2, 2)), w_tilde=np.zeros((2, 2)),
            b=np.zeros(2), b_tilde=np.zeros(2),
            acc_w=np.ones((2, 2)), acc_w_tilde=np.ones((2, 2)),
            acc_b=np.ones(2), acc_b_tilde=np.ones(2),
        )
        expected = (math.e / 100.0) ** 0.75  # f(e) * (0 - 1)^2
        assert pair_loss(model, 0, 1, math.e) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.0670, abs=1e-4)  # 0.06694... to 3 figures

    def test_nonpositive_count_rejected(self):
        rng = np.random.default_rng(1)
        model = random_glove(rng, 2, 2)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                pair_loss(model, 0, 1, bad)


class TestPairGradients:
    def test_zero_residual_gives_zero_gradients(self):
        rng = np.random.default_rng(2)
        model = random_glove(rng, 3, 2)
        x = math.exp(float(model.w[1] @ model.w_tilde[2] + model.b[1] + model.b_tilde[2]))
        loss, d_wi, d_wtj, d_bi, d_btj = pair_gradients(model, 1, 2, x)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(d_wi, 0) and np.allclose(d_wtj, 0)
        assert d_bi == pytest.approx(0.0, abs=1e-9)
        assert d_btj == pytest.approx(0.0, abs=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            model = random_glove(rng, v, d)
            i, j = int(rng.integers(v)), int(rng.integers(v))
            x = float(rng.uniform(0.5, 150.0))
            _, d_wi, d_wtj, d_bi, d_btj = pair_gradients(model, i, j, x)

            def with_w(w, model=model, i=i, j=j, x=x):
                m2 = GloveModel(w, model.w_tilde, model.b, model.b_tilde,
                                model.acc_w, model.acc_w_tilde,
                                model.acc_b, model.acc_b_tilde)
                return pair_loss(m2, i, j, x)

            num_w = numeric_grad(with_w, model.w.copy())
            assert max_relerr(d_wi, num_w[i]) < 1e-4

            def with_b(b, model=model, i=i, j=j, x=x):
                m2 = GloveModel(model.w, model.w_tilde, b, model.b_tilde,
                                model.acc_w, model.acc_w_tilde,
                                model.acc_b, model.acc_b_tilde)
                return pair_loss(m2, i, j, x)

            num_b = numeric_grad(with_b, model.b.copy())
            assert max_relerr(d_bi, num_b[i]) < 1e-4


class TestAdagrad:
    def test_first_step_divides_by_unit_accumulator(self):
        rng = np.random.default_rng(4)
        model = random_glove(rng, 2, 2)
        model.acc_w[:] = 1.0
        model.acc_w_tilde[:] = 1.0
        model.acc_b[:] = 1.0
        model.acc_b_tilde[:] = 1.0
        w_before = model.w[0].copy()
        _, d_wi, _, _, _ = pair_gradients(model, 0, 1, 5.0)
        adagrad_step(model, 0, 1, 5.0, lr0=0.1)
        # pre-update accumulator is exactly 1, so the step is plain lr * grad
        assert np.allclose(model.w[0], w_before - 0.1 * d_wi, atol=1e-12)
        assert np.allclose(model.acc_w[0], 1.0 + d_wi**2, atol=1e-12)

    def test_zero_residual_step_is_identity(self):
        rng = np.random.default_rng(5)
        model = random_glove(rng, 2, 2)
        x = math.exp(float(model.w[0] @ model.w_tilde[1] + model.b[0] + model.b_tilde[1]))
        w, wt = model.w.copy(), model.w_tilde.copy()
        b, bt = model.b.copy(), model.b_tilde.copy()
        adagrad_step(model, 0, 1, x, lr0=0.1)
        assert np.allclose(model.w, w, atol=1e-9)
        assert np.allclose(model.w_tilde, wt, atol=1e-9)
        assert np.allclose(model.b, b, atol=1e-9)
        assert np.allclose(model.b_tilde, bt, atol=1e-9)

    def test_repeated_steps_shrink_pair_loss(self):
        rng = np.random.default_rng(6)
        model = random_glove(rng, 2, 3)
        first = pair_loss(model, 0, 1, 10.0)
        for _ in range(50):
            adagrad_step(model, 0, 1, 10.0, lr0=0.1)
        assert pair_loss(model, 0, 1, 10.0) < 1e-3 * max(first, 1.0)

    def test_nonpositive_lr_rejected(self):
        rng = np.random.default_rng(7)
        model = random_glove(rng, 2, 2)
        with pytest.raises(ValueError):
            adagrad_step(model, 0, 1, 1.0, lr0=0.0)


class TestTrainGlove:
    def _table_and_vocab(self, seed=0, n_tokens=3000):
        rng = np.random.default_rng(seed)
        sentences, topic_a, topic_b = two_topic_corpus(rng, n_tokens=n_tokens)
        vocab = build_vocabulary(sentences)
        encoded = [vocab.encode(s) for s in sentences]
        table = build_cooccurrence(encoded, window=4)
        return table, vocab, topic_a, topic_b

    def test_epochs_zero_returns_initialization(self):
        table, vocab, _, _ = self._table_and_vocab()
        emb, losses = train_glove(table, vocab, GloveConfig(dim=6, epochs=0, seed=2))
        assert losses == []
        init = init_model(len(vocab), 6, seed=2)
        assert np.array_equal(emb.vectors, init.w + init.w_tilde)

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
        table, vocab, _, _ = self._table_and_vocab(n_tokens=1200)
        config = GloveConfig(dim=6, epochs=3, seed=4)
        emb1, losses1 = train_glove(table, vocab, config)
        emb2, losses2 = train_glove(table, vocab, config)
        assert np.array_equal(emb1.vectors, emb2.vectors)
        assert losses1 == losses2

    def test_two_topic_separation(self):
        table, vocab, topic_a, topic_b = self._table_and_vocab(n_tokens=4000)
        emb, _ = train_glove(table, vocab, GloveConfig(dim=16, epochs=12, seed=0))
        intra = mean_cosine(emb, topic_a, topic_a)
        inter = mean_cosine(emb, topic_a, topic_b)
        assert intra > inter


class TestFixedPoint:
    def test_exact_solution_has_negligible_loss(self):
        rng = np.random.default_rng(8)
        v, d = 4, 3
        model = random_glove(rng, v, d)
        table = np.array([
            (i, j, math.exp(
                float(model.w[i] @ model.w_tilde[j] + model.b[i] + model.b_tilde[j])
            ))
            for i in range(v) for j in range(v)
        ], dtype=RECORD)
        assert total_loss(model, table) < 1e-12


class TestBatchedKernel:
    def _table_and_vocab(self, n_tokens):
        rng = np.random.default_rng(11)
        sentences, _, _ = two_topic_corpus(rng, n_tokens=n_tokens, topic_size=5)
        vocab = build_vocabulary(sentences)
        table = build_cooccurrence([vocab.encode(s) for s in sentences], window=3)
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
        initial = total_loss(init_model(len(vocab), 5, seed=3), table)
        assert losses[0] == pytest.approx(initial, rel=1e-12)

    def test_shared_rows_add_gradients_and_squared_gradients(self, monkeypatch):
        rng = np.random.default_rng(12)
        v, d, lr = 3, 4, 0.1
        params = rng.normal(0, 0.5, (2 * v, d + 1))
        acc = rng.uniform(1.0, 2.0, (2 * v, d + 1))
        # records (0, 1) and (0, 2) share main row 0; (1, 1) has i == j and
        # shares context row 1 with (0, 1)
        records = [(0, 1, 3.0), (0, 2, 20.0), (1, 1, 150.0)]
        expected_p, expected_a = params.copy(), acc.copy()
        grads = {}
        expected_loss = 0.0
        for i, j, x in records:
            main, context = params[i], params[v + j]
            residual = main[:d] @ context[:d] + main[d] + context[d] - math.log(x)
            f = weight_f(x)
            expected_loss += f * residual * residual
            common = 2.0 * f * residual
            grads.setdefault(i, []).append(common * np.append(context[:d], 1.0))
            grads.setdefault(v + j, []).append(common * np.append(main[:d], 1.0))
        assert [len(grads[r]) for r in (0, v + 1)] == [2, 2]
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
