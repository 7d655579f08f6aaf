import warnings
from fractions import Fraction

import numpy as np
import pytest

from smallforms import (
    ApproximatingFunction,
    BudgetExceededError,
    DimensionFunction,
    HorizonTooSmallError,
    PreconditionError,
    build_omega,
    classify_series,
    dimension_formula,
    sum_equivalence_check,
    verdict,
)
from smallforms.manifold import constant_absorption_check
from smallforms.series import (_TERM_BUDGET, _first_valid_r, _heights, criterion_terms,
                               dimension_formula_exact)


def psi_pow(tau, c=1.0):
    return ApproximatingFunction.power(c, tau)


class TestClassifySeries:
    def test_convergent_power_case(self):
        b = classify_series(3, 1, DimensionFunction.power(3), psi_pow(2.5))
        assert b.convergent
        assert b.r_exponent == Fraction(-3, 2)

    def test_harmonic_boundary_divergent(self):
        b = classify_series(3, 1, DimensionFunction.power(3), psi_pow(2.0))
        assert b.divergent
        assert b.r_exponent == -1 and b.log_exponent == 0

    def test_critical_exponent_boundary(self):
        # m=2, n=1, s=5/3, tau=2: exponent -1, divergent; partial sums grow
        # like log over a long horizon (independent numeric confirmation)
        f = DimensionFunction.power(Fraction(5, 3))
        b = classify_series(2, 1, f, psi_pow(2.0))
        assert b.divergent
        assert b.r_exponent == -1
        rs = np.arange(1, 1_000_001, dtype=float)
        partial = np.cumsum(criterion_terms(2, 1, f, psi_pow(2.0), rs))
        # S(r) ~ a log r + b: ratio of increments over decades approaches 1
        s3, s4, s5, s6 = (partial[10 ** k - 1] for k in (3, 4, 5, 6))
        assert (s6 - s5) == pytest.approx(s5 - s4, rel=0.02)
        assert (s5 - s4) == pytest.approx(s4 - s3, rel=0.02)

    def test_log_factor_tips_boundary(self):
        f = DimensionFunction.power(3)
        on_edge = ApproximatingFunction.power_log(1.0, 2.0, 0.0)
        assert classify_series(3, 1, f, on_edge).divergent
        # term ~ 1/(r log^2 r): converges
        tipped = ApproximatingFunction.power_log(1.0, 2.0, 2.0)
        assert classify_series(3, 1, f, tipped).convergent
        # term ~ 1/(r log r): boundary classified divergent
        edge = ApproximatingFunction.power_log(1.0, 2.0, 1.0)
        assert classify_series(3, 1, f, edge).divergent

    def test_table_family_heuristic_flagged(self):
        table = ApproximatingFunction.from_table([(1, 1.0), (2, 0.25), (4, 0.015625), (8, 0.00024)])
        b = classify_series(2, 1, DimensionFunction.power(2), table, horizon=1 << 12)
        assert b.method == "partial-sum"
        assert b.non_rigorous


class TestPowerLogGauge:
    """f(x) = x^s log(1/x)^kappa, defined where Psi(r) < 1."""

    def test_criterion_terms(self):
        f = DimensionFunction.power_log(2.0, -2.0)
        rs = np.arange(2.0, 50.0)
        big = 1.0 / rs ** 2                               # Psi(r) = r^-1 / r
        expected = big ** 2 * np.log(1.0 / big) ** -2.0 * big ** -1 * rs
        assert np.allclose(criterion_terms(2, 1, f, psi_pow(1.0), rs), expected, rtol=1e-12, atol=0)
        with pytest.raises(PreconditionError):
            criterion_terms(2, 1, f, psi_pow(1.0), 1.0)   # Psi(1) = 1

    def test_first_valid_r_scans_to_psi_below_one(self):
        f = DimensionFunction.power_log(2.0, 1.0)
        assert _first_valid_r(f, psi_pow(1.0, c=10.0).big_psi) == 4   # Psi(r) = 10 / r^2
        assert _first_valid_r(DimensionFunction.power(2.0), psi_pow(1.0, c=10.0).big_psi) == 1
        with pytest.raises(PreconditionError):
            _first_valid_r(f, psi_pow(1.0, c=1e9).big_psi)   # still above 1 at r = 4096

    @pytest.mark.parametrize("tau, convergent", [(3.0, True), (0.5, False)])
    def test_table_psi_classified_from_the_first_valid_height(self, tau, convergent):
        # psi = 4 r^-tau at powers of two, Psi(1) = 4: the partial sums start
        # where Psi drops below 1; the term is about r^-tau log r
        table = ApproximatingFunction.from_table(
            [(2.0 ** k, 4 * 2.0 ** (-tau * k)) for k in range(13)], strict=False)
        b = classify_series(2, 1, DimensionFunction.power_log(2.0, 1.0), table, horizon=1 << 12)
        assert b.method == "partial-sum" and b.non_rigorous
        assert b.convergent == convergent


class TestVerdict:
    def test_full_lebesgue_divergent_independent_case(self):
        v = verdict(3, 1, DimensionFunction.power(3), psi_pow(2.0))
        assert v.tag == "full-lebesgue"
        assert v.series.divergent

    def test_zero_convergent_independent_case(self):
        v = verdict(3, 1, DimensionFunction.power(3), psi_pow(2.5))
        assert v.tag == "zero"

    def test_variety_gauge_divergent(self):
        v = verdict(2, 2, DimensionFunction.power(3), psi_pow(0.5))
        assert v.tag == "hf-of-gamma"
        assert v.series.divergent

    def test_variety_infinite_content(self):
        v = verdict(2, 2, DimensionFunction.power(2.5), psi_pow(0.25))
        assert v.tag == "infinite-hf"

    def test_singleton_row(self):
        for n in (1, 2, 3):
            assert verdict(1, n, DimensionFunction.power(1), psi_pow(3.0)).tag == "singleton"

    def test_fractional_gauge_infinite_content(self):
        v = verdict(2, 1, DimensionFunction.power(1.5), psi_pow(1.2))
        assert v.tag == "infinite-hf"

    def test_side_condition_violation_named(self):
        with pytest.raises(PreconditionError, match="increasing"):
            verdict(2, 1, DimensionFunction.power(0.5), psi_pow(2.0))

    def test_justification_present(self):
        v = verdict(3, 2, DimensionFunction.power(5), psi_pow(0.4))
        assert v.justification


_INC = "r^-(m-1)n f increasing"
_POW, _LOG = DimensionFunction.power, DimensionFunction.power_log


class TestVerdictTable:
    """Every outcome of the dichotomy, pinned: tag, justification, side conditions."""

    @pytest.mark.parametrize("m, n, f, psi, tag, justification, side", [
        (3, 1, _POW(3), psi_pow(2.5), "zero",
         "independent case, criterion sum converges", {_INC: True}),
        (2, 2, _POW(3), psi_pow(2.0), "zero",
         "dependent case, criterion sum converges", {_INC: True}),
        (2, 1, _POW(1.5), psi_pow(1.2), "infinite-hf",
         "independent case, criterion sum diverges and the ambient f-content is infinite",
         {_INC: True, "limit of r^-mn f": "infinity"}),
        (3, 1, _POW(3), psi_pow(2.0), "full-lebesgue",
         "independent case, criterion sum diverges; f is the ambient volume gauge so the set "
         "has full Lebesgue measure", {_INC: True, "limit of r^-mn f": "constant"}),
        (2, 1, _POW(3), ApproximatingFunction.power_log(1.0, 0.0, 0.5), "zero",
         "independent case, criterion sum diverges but the ambient f-content itself vanishes",
         {_INC: True, "limit of r^-mn f": "zero"}),
        (2, 2, _POW(2.5), psi_pow(0.25), "infinite-hf",
         "dependent case, criterion sum diverges and r^(-(m-1)(n+1)) f(r) -> infinity",
         {_INC: True, "limit of r^-(m-1)(n+1) f": "infinity"}),
        (2, 2, _POW(3), psi_pow(0.5), "hf-of-gamma",
         "dependent case, criterion sum diverges and f is comparable to the variety's volume "
         "gauge; the set fills the rank-deficient variety",
         {_INC: True, "limit of r^-(m-1)(n+1) f": "constant"}),
        (2, 3, _LOG(4, 1), psi_pow(0.25), "infinite-hf",
         "dependent case, criterion sum diverges and r^(-(m-1)(n+1)) f(r) -> infinity",
         {_INC: True, "limit of r^-(m-1)(n+1) f": "infinity"}),
        (1, 2, _POW(1), psi_pow(3.0), "singleton",
         "m = 1: |q x_j| < psi(|q|) infinitely often forces x = 0; the set is a single point "
         "with zero measure and dimension", {}),
    ], ids=["independent-convergent", "dependent-convergent", "independent-infinite",
            "full-lebesgue", "independent-vanishing-content", "dependent-infinite", "hf-of-gamma",
            "dependent-infinite-log", "singleton"])
    def test_outcome(self, m, n, f, psi, tag, justification, side):
        v = verdict(m, n, f, psi)
        assert (v.tag, v.justification) == (tag, justification)
        assert list(v.side_conditions.items()) == list(side.items())
        assert (v.series is None) == (tag == "singleton")

    @pytest.mark.parametrize("m, n, f, psi, message", [
        (2, 1, _POW(0.5), psi_pow(2.0),
         "side condition failed: r^(-(m-1)n) f(r) must be increasing"),
        (2, 3, _POW(2), psi_pow(0.25),
         "side condition failed: r^(-(m-1)n) f(r) must be increasing"),
        (2, 2, _POW(3.5), psi_pow(0.25),
         "side condition failed: r^(-(m-1)(n+1)) f(r) -> 0 is outside the dichotomy"),
    ], ids=["independent-side-condition", "dependent-side-condition", "dependent-limit-zero"])
    def test_refusal(self, m, n, f, psi, message):
        with pytest.raises(PreconditionError) as info:
            verdict(m, n, f, psi)
        assert str(info.value) == message


class TestFloatRange:
    """Sums over too many heights, and terms outside the float range, are
    budget errors (exit 3), not arrays too large to allocate or NaNs."""

    def test_term_budget(self):
        assert _heights(_TERM_BUDGET, _TERM_BUDGET).tolist() == [_TERM_BUDGET]
        with pytest.raises(BudgetExceededError):
            _heights(_TERM_BUDGET + 1, _TERM_BUDGET + 1)

    def test_huge_horizon_refused_before_allocation(self):
        # 10^13 heights would be a 73 TiB array: numpy's MemoryError if unchecked
        f, psi, huge = DimensionFunction.power(2), psi_pow(1.0), 10 ** 13
        table = ApproximatingFunction.from_table([(1, 1.0), (2, 0.25), (4, 0.015625)])
        for call in (lambda: build_omega(2, 1, f, psi, huge),
                     lambda: sum_equivalence_check(1.0, 0.0, psi_pow(2.0), f, 2.0, huge),
                     lambda: classify_series(2, 1, f, table, huge),
                     lambda: constant_absorption_check(2, 2, DimensionFunction.power(3), psi,
                                                       1.5, huge)):
            with pytest.raises(BudgetExceededError, match="term budget"):
                call()

    @pytest.mark.parametrize("tau", [400, 200])
    def test_underflowing_psi(self, tau):
        # Psi(r) = r^-(tau+1) reaches 0 below the horizon: the block search
        # used to stop on NaN terms and report 3 or 5 blocks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError, match="underflows"):
                build_omega(2, 1, DimensionFunction.power(0.5), psi_pow(tau), 1000)
            with pytest.raises(BudgetExceededError, match="underflows"):
                constant_absorption_check(2, 2, DimensionFunction.power(3), psi_pow(tau), 1.5,
                                          1000)

    def test_sum_comparison_out_of_float_range(self):
        # psi(r) = r^-400 underflows to 0 at r = 7, where f(psi) is undefined;
        # psi^-8 = r^400 overflows, and the ratios of the sums were NaN
        f = DimensionFunction.power(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError, match="underflows"):
                sum_equivalence_check(1.0, 0.0, psi_pow(400.0), f, 2.0, 4096)
            with pytest.raises(BudgetExceededError, match="float range"):
                sum_equivalence_check(1.0, -8.0, psi_pow(50.0), f, 2.0, 4096)

    def test_overflowing_term(self):
        # Psi^-6 overflows while f(Psi) underflows: 0 * inf is not a term
        rs = np.arange(1.0, 1001.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError, match="float range"):
                criterion_terms(3, 3, DimensionFunction.power(7), psi_pow(60.0), rs)


class TestDimensionFormula:
    def test_independent_case(self):
        assert dimension_formula(2, 1, 2) == pytest.approx(5 / 3)

    def test_dependent_case_sloped(self):
        assert dimension_formula(2, 2, 3) == pytest.approx(2.5)

    def test_dependent_case_full(self):
        assert dimension_formula(2, 2, 0.5) == pytest.approx(3.0)

    def test_row_case_zero(self):
        assert dimension_formula(1, 3, 2.0) == 0.0

    def test_thresholds_exact(self):
        # m > n: flips at tau = m/n - 1
        assert dimension_formula_exact(3, 1, 2) == 3            # at threshold: full
        assert dimension_formula_exact(3, 1, Fraction(21, 10)) == Fraction(2) + Fraction(3) / (Fraction(31, 10))
        # m <= n: flips at tau = 1/(m-1)
        assert dimension_formula_exact(2, 2, 1) == 3
        assert dimension_formula_exact(2, 2, Fraction(11, 10)) == Fraction(2) + Fraction(2) / (Fraction(21, 10))

    def test_requires_positive_tau(self):
        with pytest.raises(PreconditionError):
            dimension_formula(2, 1, 0.0)

    def test_matches_series_critical_exponent(self):
        # the dimension equals inf{s : criterion sum with gauge r^s converges},
        # located independently by bisection
        for m, n, tau in ((2, 1, 2.0), (3, 1, 3.0), (3, 2, 1.25), (4, 3, 2.0)):
            lo, hi = (m - 1) * n, float(m * n)
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if classify_series(m, n, DimensionFunction.power(mid), psi_pow(tau)).convergent:
                    hi = mid
                else:
                    lo = mid
            assert hi == pytest.approx(dimension_formula(m, n, tau), abs=1e-9)


class TestCorollaryReductions:
    def test_volume_gauge_matches_direct_sum_test(self):
        # with f = r^{mn} the criterion reduces to sum psi^n r^{m-n-1}
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, m))         # m > n
            tau = float(rng.uniform(0.05, 4.0))
            got = classify_series(m, n, DimensionFunction.power(m * n), psi_pow(tau))
            direct_convergent = -tau * n + m - n - 1 < -1
            assert got.convergent == direct_convergent

    def test_variety_gauge_matches_direct_sum_test(self):
        # with f = r^{(m-1)(n+1)} and m <= n it reduces to sum psi^{m-1}
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(m, 5))
            tau = float(rng.uniform(0.05, 3.0))
            got = classify_series(m, n, DimensionFunction.power((m - 1) * (n + 1)), psi_pow(tau))
            assert got.convergent == (tau * (m - 1) > 1)


class TestBuildOmega:
    def test_harmonic_blocks(self):
        # term is exactly 1/r: first block must close at 3 (doubling rule)
        omega = build_omega(2, 1, DimensionFunction.power(2), psi_pow(1.0), 10_000)
        assert omega.breakpoints[0] == 1
        assert omega.breakpoints[1] == 3
        assert omega(2.0) == 1.0

    def test_blocks_double(self):
        omega = build_omega(2, 1, DimensionFunction.power(2), psi_pow(1.0), 100_000)
        bps = omega.breakpoints
        assert all(b > 2 * a for a, b in zip(bps, bps[1:]))

    def test_block_sums_exceed_one(self):
        f, psi = DimensionFunction.power(2), psi_pow(1.0)
        omega = build_omega(2, 1, f, psi, 100_000)
        rs = np.arange(1, omega.breakpoints[-1] + 1, dtype=float)
        terms = criterion_terms(2, 1, f, psi, rs)
        for lo, hi in zip(omega.breakpoints, omega.breakpoints[1:]):
            assert terms[lo - 1 : hi].sum() > 1.0

    def test_weighted_series_keeps_diverging(self):
        f, psi = DimensionFunction.power(2), psi_pow(1.0)
        omega = build_omega(2, 1, f, psi, 1_000_000)
        rs = np.arange(1, omega.breakpoints[-1] + 1, dtype=float)
        weighted = criterion_terms(2, 1, f, psi, rs) * np.asarray(omega(rs)) ** -1.0
        # block i contributes more than 1/i, so the total beats the harmonic sum
        blocks = omega.block_count
        assert weighted.sum() > sum(1.0 / i for i in range(1, blocks + 1))

    def test_convergent_input_rejected(self):
        with pytest.raises(PreconditionError):
            build_omega(3, 1, DimensionFunction.power(3), psi_pow(2.5), 10_000)

    def test_horizon_too_small(self):
        with pytest.raises(HorizonTooSmallError):
            build_omega(2, 1, DimensionFunction.power(2), psi_pow(1.0), 4)


class TestSumEquivalence:
    def test_convergent_pair(self):
        rep = sum_equivalence_check(1.0, 0.0, psi_pow(2.0), DimensionFunction.power(1), 2.0)
        assert rep.equivalent
        assert rep.band < 10

    def test_divergent_pair_log_rate(self):
        rep = sum_equivalence_check(1.0, 0.0, psi_pow(1.0), DimensionFunction.power(1), 2.0)
        assert rep.equivalent

    def test_divergent_pair_with_weight(self):
        rep = sum_equivalence_check(1.0, 1.0, psi_pow(1.0), DimensionFunction.power(1), 2.0)
        assert rep.equivalent

    def test_constant_psi_rejected_by_family(self):
        with pytest.raises(PreconditionError):
            psi_pow(0.0)
