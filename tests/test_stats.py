import math

import numpy as np
import pytest

from metlit import MetlitError
from metlit.stats import (
    TTestResult,
    betainc_reg,
    group_ttest,
    save_ttest_report,
    student_t_sf,
    two_sided_p,
)

from helpers import labeled_vectors, welch_t

# Frozen from an independent evaluation of the regularized incomplete beta
# (scipy.special.betainc, scipy 1.15.3), kept as literals so the test stays
# a fixed oracle rather than a live comparison.
BETAINC_FIXTURES = [
    (2.0, 3.0, 0.4, 0.5247999999999999),
    (0.5, 0.5, 0.7, 0.6309898804344546),
    (5.0, 0.5, 0.99, 0.7571581091015623),
    (50.0, 0.5, 0.999, 0.7523690199653766),
]

# Welch fixtures frozen from hand evaluation of the textbook formulas,
# cross-checked against scipy.stats.ttest_ind(equal_var=False).
FIXTURE_A = [2.1, 2.5, 2.3]
FIXTURE_B = [1.1, 1.5, 1.3]
FIXTURE_T = 6.123724356957945
FIXTURE_DF = 4.0
FIXTURE_P = 0.0036022326091040033

FIXTURE2_A = [3.2, 2.9, 3.7, 3.3, 3.0, 3.5, 2.8]
FIXTURE2_B = [2.1, 2.6, 2.4, 2.0]
FIXTURE2_T = 5.002088336730923
FIXTURE2_DF = 7.377609012724438
FIXTURE2_P = 0.001336825058451009


def blob_vectors(rng, n_per_class, dim, offset=0.0):
    rows = []
    for shift in (0.0, offset):
        for _ in range(n_per_class):
            values = rng.normal(0, 1, dim)
            values[0] += shift
            rows.append(values)
    return labeled_vectors(rows, [False] * n_per_class + [True] * n_per_class)


class TestIncompleteBeta:
    def test_edge_values(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.2), (7.0, 1.5, 0.9)]:
            assert betainc_reg(a, b, x) == pytest.approx(
                1.0 - betainc_reg(b, a, 1.0 - x), abs=1e-13
            )

    def test_matches_independent_oracle(self):
        for a, b, x, expected in BETAINC_FIXTURES:
            assert betainc_reg(a, b, x) == pytest.approx(expected, rel=1e-12)

    def test_uniform_case_is_identity(self):
        # a = b = 1 reduces to I_x = x
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert betainc_reg(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            betainc_reg(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            betainc_reg(1.0, 1.0, 1.5)


class TestTDistribution:
    def test_sf_at_zero_is_half(self):
        assert student_t_sf(0.0, 10.0) == pytest.approx(0.5, abs=1e-14)

    def test_two_sided_p_symmetric_in_t(self):
        for t in (0.5, 1.7, 3.2):
            assert two_sided_p(t, 8.0) == pytest.approx(two_sided_p(-t, 8.0), abs=1e-15)

    def test_p_decreases_as_t_grows(self):
        ps = [two_sided_p(t, 12.0) for t in np.linspace(0.0, 6.0, 40)]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_extreme_t_underflows_gracefully(self):
        p = two_sided_p(60.0, 5.0)
        assert 0.0 <= p < 1e-7


class TestWelch:
    def test_identical_samples(self):
        result = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_statistic == 0.0
        assert result.p_value == pytest.approx(1.0, abs=1e-12)
        assert not result.significant

    def test_shift_by_ten_is_strongly_negative(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [11.0, 12.0, 13.0, 14.0]
        result = welch_t(a, b)
        assert result.t_statistic < -5
        assert result.p_value < 0.01
        assert result.significant

    def test_textbook_fixture_to_six_decimals(self):
        result = welch_t(FIXTURE_A, FIXTURE_B)
        assert result.t_statistic == pytest.approx(FIXTURE_T, abs=1e-6)
        assert result.degrees_of_freedom == pytest.approx(FIXTURE_DF, abs=1e-6)
        assert result.p_value == pytest.approx(FIXTURE_P, abs=1e-6)
        # the implementation should agree far beyond the acceptance tolerance
        assert result.t_statistic == pytest.approx(FIXTURE_T, rel=1e-12)
        assert result.p_value == pytest.approx(FIXTURE_P, rel=1e-9)

    def test_unequal_sizes_fixture(self):
        result = welch_t(FIXTURE2_A, FIXTURE2_B)
        assert result.t_statistic == pytest.approx(FIXTURE2_T, rel=1e-12)
        assert result.degrees_of_freedom == pytest.approx(FIXTURE2_DF, rel=1e-12)
        assert result.p_value == pytest.approx(FIXTURE2_P, rel=1e-9)

    def test_antisymmetric_in_sample_order(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 10)
        b = rng.normal(0.5, 2, 14)
        r_ab = welch_t(a, b)
        r_ba = welch_t(b, a)
        assert r_ab.t_statistic == -r_ba.t_statistic
        assert r_ab.p_value == r_ba.p_value
        assert r_ab.degrees_of_freedom == r_ba.degrees_of_freedom

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, 12)
        b = rng.normal(1, 1, 12)
        base = welch_t(a, b)
        shifted = welch_t(a + 100.0, b + 100.0)
        assert shifted.t_statistic == pytest.approx(base.t_statistic, rel=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 12)
        b = rng.normal(1, 1, 12)
        base = welch_t(a, b)
        scaled = welch_t(a * 7.0, b * 7.0)
        assert scaled.t_statistic == pytest.approx(base.t_statistic, rel=1e-12)

    def test_small_sample_rejected(self):
        with pytest.raises(MetlitError, match="each sample needs at least 2 elements"):
            welch_t([1.0], [1.0, 2.0])

    def test_two_constant_samples_rejected(self):
        with pytest.raises(MetlitError, match="both samples have zero variance"):
            welch_t([2.0, 2.0, 2.0], [5.0, 5.0])

    def test_one_constant_sample_is_fine(self):
        result = welch_t([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert math.isfinite(result.t_statistic)


class TestGroupTTest:
    def test_single_informative_dimension_found(self):
        rng = np.random.default_rng(3)
        rows = []
        for shift in (0.0, 1.0):
            for _ in range(100):
                values = rng.normal(0, 0.1, 5)
                values[0] += shift
                rows.append(values)
        vectors = labeled_vectors(rows, [False] * 100 + [True] * 100)
        results, summary = group_ttest(vectors, alpha=0.05)
        by_dim = {r.dimension: r for r in results}
        assert by_dim[0].significant
        assert by_dim[0].p_value < 1e-10
        others = [by_dim[d].significant for d in range(1, 5)]
        assert sum(others) <= 1  # chance-level at most

    def test_identical_distributions_near_alpha_rate(self):
        rng = np.random.default_rng(4)
        vectors = blob_vectors(rng, n_per_class=100, dim=40, offset=0.0)
        results, summary = group_ttest(vectors, alpha=0.05)
        per_dim = [r for r in results if r.dimension != "norm"]
        frac = sum(r.significant for r in per_dim) / len(per_dim)
        assert frac < 0.15  # 3 * alpha

    def test_norm_row_present(self):
        rng = np.random.default_rng(5)
        vectors = blob_vectors(rng, 20, 4, offset=2.0)
        results, summary = group_ttest(vectors)
        assert any(r.dimension == "norm" for r in results)

    def test_summary_counts(self):
        rng = np.random.default_rng(6)
        vectors = blob_vectors(rng, 30, 6, offset=3.0)
        results, summary = group_ttest(vectors, alpha=0.05)
        per_dim = [r for r in results if r.dimension != "norm"]
        assert summary["dimensions"] == 6
        assert summary["significant_dimensions"] == sum(r.significant for r in per_dim)
        assert summary["n_literal"] == 30 and summary["n_metaphor"] == 30

    def test_flat_dimension_has_no_test(self):
        vectors = blob_vectors(np.random.default_rng(10), 15, 3, offset=1.0)
        vectors.values[:, 1] = 2.5
        results, summary = group_ttest(vectors)
        flat = results[1]
        assert (flat.t_statistic, flat.degrees_of_freedom, flat.p_value) == (None, None, None)
        assert flat.dimension == 1 and not flat.significant
        assert summary["flat_dimensions"] == 1
        assert all(r.p_value is not None for r in results if r is not flat)

    @pytest.mark.parametrize("value", [0.1, 0.3, 0.7])
    def test_constant_dimension_with_a_rounded_mean_has_no_test(self, value):
        # the means of 45 and 55 copies of these values are not the value
        # itself, so their variances are not 0 but rounding residue
        vectors = blob_vectors(np.random.default_rng(11), 50, 3, offset=1.0)
        vectors.metaphor[:5] = True
        vectors.values[:, 1] = value
        results, summary = group_ttest(vectors)
        assert results[1].p_value is None and not results[1].significant
        assert summary["flat_dimensions"] == 1
        with pytest.raises(MetlitError, match="both samples have zero variance"):
            welch_t(vectors.values[vectors.metaphor, 1], vectors.values[~vectors.metaphor, 1])

    def test_one_class_missing_is_an_error(self):
        rng = np.random.default_rng(7)
        vectors = labeled_vectors([rng.normal(0, 1, 3) for _ in range(10)], [False] * 10)
        with pytest.raises(ValueError):
            group_ttest(vectors)


class TestReport:
    def test_report_file_round_trips_values(self, tmp_path):
        rng = np.random.default_rng(8)
        vectors = blob_vectors(rng, 25, 3, offset=1.0)
        results, _ = group_ttest(vectors)
        path = tmp_path / "ttest.tsv"
        save_ttest_report(results, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["dimension", "t", "df", "p", "significant"]
        assert len(lines) == 1 + len(results)
        row = lines[1].split("\t")
        assert row[0] == "0"
        assert float(row[1]) == pytest.approx(results[0].t_statistic, abs=5e-7)
        assert lines[-1].split("\t")[0] == "norm"
