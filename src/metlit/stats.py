"""Welch two-sample t-tests over sentence-vector groups.

The t-distribution tail is computed from the regularized incomplete beta
function (continued fraction evaluation, relative accuracy ~1e-14), so no
statistics library is needed at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MetlitError
from .sentvec import SentenceVectors

_CF_EPS = 1e-15
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 500


class DegenerateSampleError(MetlitError):
    """Both samples have zero variance: the t statistic is undefined."""


class SampleSizeError(MetlitError):
    """A sample has fewer than 2 elements."""


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete beta continued fraction
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise MetlitError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise MetlitError("beta parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise MetlitError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # use whichever tail the continued fraction converges fastest on
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for T ~ Student's t with df degrees of freedom."""
    if df <= 0:
        raise MetlitError("degrees of freedom must be positive")
    tail = 0.5 * betainc_reg(0.5 * df, 0.5, df / (df + t * t))
    return tail if t >= 0 else 1.0 - tail


def two_sided_p(t: float, df: float) -> float:
    """Two-sided p value: P(|T| > |t|)."""
    if df <= 0:
        raise MetlitError("degrees of freedom must be positive")
    return betainc_reg(0.5 * df, 0.5, df / (df + t * t))


@dataclass
class TTestResult:
    dimension: int | str | None  # 0-based index, "norm", or None for a bare test
    t_statistic: float | None  # t, df and p are None for a flat dimension
    degrees_of_freedom: float | None
    p_value: float | None
    significant: bool


def _welch_columns(a, b, alpha: float, columns: list) -> list[TTestResult]:
    """Welch tests of each column of `a` against the same column of `b`, whose
    rows are samples; a column constant in both samples has no test."""
    # a column of the transposed contiguous copy sums as the 1-D sample does
    a, b = (np.ascontiguousarray(x.T) for x in (a, b))
    n_a, n_b = a.shape[1], b.shape[1]
    sq_a, sq_b = a.var(axis=1, ddof=1) / n_a, b.var(axis=1, ddof=1) / n_b
    se2 = sq_a + sq_b
    with np.errstate(divide="ignore", invalid="ignore"):  # flat columns
        t = (a.mean(axis=1) - b.mean(axis=1)) / np.sqrt(se2)
        df = se2 * se2 / (sq_a * sq_a / (n_a - 1) + sq_b * sq_b / (n_b - 1))
    # constant, not var == 0: the rounded mean of n copies of 0.1 leaves a variance
    flat = ((np.ptp(a, axis=1) == 0.0) & (np.ptp(b, axis=1) == 0.0)).tolist()
    results = []
    for column, t_c, df_c, flat_c in zip(columns, t.tolist(), df.tolist(), flat):
        p = None if flat_c else two_sided_p(t_c, df_c)
        test = (None, None, None) if flat_c else (t_c, df_c, p)
        results.append(TTestResult(column, *test, significant=not flat_c and p < alpha))
    return results


def welch_t(sample_a, sample_b, alpha: float = 0.05) -> TTestResult:
    """Welch's unequal-variance two-sample t-test, two-sided.

    t = (mean_a - mean_b) / sqrt(s2_a/n_a + s2_b/n_b) with n-1 variances;
    degrees of freedom by Welch-Satterthwaite.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise SampleSizeError("each sample needs at least 2 elements")
    (result,) = _welch_columns(a[:, None], b[:, None], alpha, [None])
    if result.p_value is None:
        raise DegenerateSampleError("both samples have zero variance")
    return result


def group_ttest(
    vectors: SentenceVectors, alpha: float = 0.05
) -> tuple[list[TTestResult], dict]:
    """One Welch test per embedding dimension plus one on Euclidean norms.

    Contrasts the literal and metaphor groups; both must have at least two
    members. A dimension constant within both groups has no test: its t, df
    and p are None and it is never significant. The summary counts the
    dimensions significant at alpha, which must lie in (0, 1), and the flat
    ones. Norms constant within both groups are an error.
    """
    lit = vectors.values[~vectors.metaphor]
    met = vectors.values[vectors.metaphor]
    if len(lit) < 2 or len(met) < 2:
        raise SampleSizeError(
            f"need >= 2 members per class, got literal={len(lit)}, "
            f"metaphor={len(met)}"
        )
    dim = lit.shape[1]
    lit, met = (np.column_stack([x, np.linalg.norm(x, axis=1)]) for x in (lit, met))
    results = _welch_columns(lit, met, alpha, [*range(dim), "norm"])
    if results[-1].p_value is None:
        raise DegenerateSampleError("norm: both samples have zero variance")
    summary = {
        "n_literal": lit.shape[0],
        "n_metaphor": met.shape[0],
        "dimensions": dim,
        "alpha": alpha,
        "significant_dimensions": sum(1 for r in results[:-1] if r.significant),
        "flat_dimensions": sum(1 for r in results[:-1] if r.p_value is None),
        "norm_significant": results[-1].significant,
    }
    return results, summary


def save_ttest_report(results: list[TTestResult], path: str) -> None:
    """Write a TSV report: dimension, t, df, p, significant; NA for no test."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dimension\tt\tdf\tp\tsignificant\n")
        for r in results:
            test = "NA\tNA\tNA" if r.p_value is None else (
                f"{r.t_statistic:.6f}\t{r.degrees_of_freedom:.6f}\t{r.p_value:.6g}")
            fh.write(f"{r.dimension}\t{test}\t{'true' if r.significant else 'false'}\n")
