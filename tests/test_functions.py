import math

import numpy as np
import pytest

from smallforms import ApproximatingFunction, DimensionFunction, OmegaFunction, PreconditionError
from smallforms.functions import StepOmega


class TestApproximatingFunction:
    def test_power_evaluation(self):
        psi = ApproximatingFunction.power(1.0, 2.0)
        assert psi(2.0) == 0.25
        assert psi.big_psi(2.0) == 0.125

    def test_power_log_evaluation(self):
        psi = ApproximatingFunction.power_log(2.0, 1.0, 1.5)
        r = 7.0
        assert psi(r) == pytest.approx(2.0 / r / math.log(math.e + r) ** 1.5)

    def test_vectorized_matches_scalar(self):
        psi = ApproximatingFunction.power_log(0.5, 1.2, -0.3)
        rs = np.array([1.0, 3.0, 10.0, 250.0])
        assert np.allclose(psi(rs), [psi(float(r)) for r in rs])

    def test_rejects_non_decaying(self):
        with pytest.raises(PreconditionError):
            ApproximatingFunction.power(1.0, 0.0)
        with pytest.raises(PreconditionError):
            ApproximatingFunction.power(1.0, -1.0)
        with pytest.raises(PreconditionError):
            ApproximatingFunction.power_log(1.0, 0.0, -2.0)

    def test_rejects_non_finite_parameters(self):
        for make in (lambda: ApproximatingFunction.power(1.0, math.inf),
                     lambda: ApproximatingFunction.power(math.inf, 2.0),
                     lambda: ApproximatingFunction.power_log(1.0, 2.0, math.nan),
                     lambda: ApproximatingFunction.power(1.0, math.nan, strict=False),
                     lambda: ApproximatingFunction.from_table([(1, 0.5), (2, math.inf)])):
            with pytest.raises(PreconditionError):
                make()

    @pytest.mark.parametrize("strict", [True, False])
    def test_power_rejects_log_exponent(self, strict):
        # a power psi would evaluate as r^-tau and print as pow:c,tau, dropping kappa
        with pytest.raises(PreconditionError, match="no log exponent"):
            ApproximatingFunction("power", c=1.0, tau=1.0, kappa=5.0, strict=strict)
        assert ApproximatingFunction("power", c=1.0, tau=1.0, kappa=0.0).spec() == "pow:1.0,1.0"

    def test_power_log_must_not_increase(self):
        # (log psi)' <= 0 on r >= 1 exactly when kappa >= -3.146 tau
        with pytest.raises(PreconditionError):
            ApproximatingFunction.power_log(0.02, 0.1, -5.0)
        assert ApproximatingFunction.power_log(0.5, 1.2, -0.3).non_increasing
        r = np.linspace(1.0, 200.0, 100_001)
        for kappa in (-3.14, -3.15):
            psi = ApproximatingFunction.power_log(1.0, 1.0, kappa, strict=False)
            assert psi.non_increasing == bool(np.all(np.diff(psi(r)) <= 0))

    def test_relaxed_mode_admits_growth(self):
        # covering experiments need inflated widths like psi(r) = 2r
        psi = ApproximatingFunction.power(2.0, -1.0, strict=False)
        assert psi(4.0) == 8.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(PreconditionError):
            ApproximatingFunction.power(0.0, 1.0)

    def test_table_step_interpolation(self):
        psi = ApproximatingFunction.from_table([(1, 1.0), (4, 0.5), (10, 0.125)])
        assert psi(1.0) == 1.0
        assert psi(3.9) == 1.0
        assert psi(4.0) == 0.5
        assert psi(9.0) == 0.5
        assert psi(50.0) == 0.125  # clamped past the last entry

    def test_table_must_decrease(self):
        with pytest.raises(PreconditionError):
            ApproximatingFunction.from_table([(1, 0.5), (2, 0.7)])
        with pytest.raises(PreconditionError):
            ApproximatingFunction.from_table([(1, 0.5), (2, -0.1)])

    def test_big_psi_round_trips_at_dyadic_heights(self):
        # Psi(r) * r recovers psi(r) exactly when r is a power of two
        psi = ApproximatingFunction.power_log(0.7, 1.3, 0.25)
        for r in (1.0, 2.0, 8.0, 1024.0):
            assert psi.big_psi(r) * r == psi(r)

    def test_big_psi_close_at_general_heights(self):
        psi = ApproximatingFunction.power(0.3, 1.7)
        for r in (3.0, 7.0, 11.0, 97.0):
            assert psi.big_psi(r) * r == pytest.approx(psi(r), rel=1e-15)

    def test_scaled(self):
        psi = ApproximatingFunction.power(1.0, 2.0)
        assert psi.scaled(3.0)(5.0) == 3.0 * psi(5.0)

    def test_monotone_on_grid(self):
        psi = ApproximatingFunction.power_log(1.0, 0.0, 2.0)
        rs = np.arange(1, 200, dtype=float)
        assert np.all(np.diff(psi(rs)) <= 0)


class TestDimensionFunction:
    def test_power_evaluation(self):
        f = DimensionFunction.power(1.5)
        assert f(0.25) == 0.25 ** 1.5

    def test_power_log_evaluation_below_one(self):
        f = DimensionFunction.power_log(2.0, 3.0)
        r = 0.1
        assert f(r) == pytest.approx(r ** 2 * math.log(1 / r) ** 3)
        with pytest.raises(PreconditionError):
            f(1.5)

    def test_must_vanish_at_zero(self):
        with pytest.raises(PreconditionError):
            DimensionFunction.power_log(0.0, 1.0)
        # s = 0 with negative log exponent is a legitimate gauge
        f = DimensionFunction.power_log(0.0, -2.0)
        assert f(0.01) < f(0.1)

    @pytest.mark.parametrize("make", [
        lambda: DimensionFunction.power(math.inf),
        lambda: DimensionFunction.power(1e400),
        lambda: DimensionFunction.power(math.nan),
        lambda: DimensionFunction.power_log(1.0, math.inf),
        lambda: DimensionFunction.power_log(1.0, -math.inf),
        lambda: DimensionFunction.power_log(math.nan, 1.0),
    ], ids=["s-inf", "s-1e400", "s-nan", "kappa-inf", "kappa-minus-inf", "s-nan-powerlog"])
    def test_rejects_non_finite_parameters(self, make):
        with pytest.raises(PreconditionError, match="must be finite"):
            make()

    @pytest.mark.parametrize("s, kappa, b, limit", [
        (2, 0, 2, "constant"), (2, 0, 1, "zero"), (2, 0, 3, "infinity"),
        (2, -1, 2, "zero"), (2, 1, 2, "infinity"), (2.5, 7, 2, "zero"), (1.5, -7, 2, "infinity"),
    ])
    def test_predicates_read_one_decay_order(self, s, kappa, b, limit):
        # (s - b, -kappa) against (0, 0) lexicographically decides all four
        f = DimensionFunction.power_log(s, kappa) if kappa else DimensionFunction.power(s)
        assert f.scaled_limit(b) == limit
        assert f.scaled_increasing(b) == (limit != "infinity")
        assert f.scaled_decreasing(b) == (limit != "zero")
        assert f.vanishes_at_zero() == (f.scaled_limit(0) == "zero")

    def test_scaled_limit_classification(self):
        f = DimensionFunction.power(2.0)
        assert f.scaled_limit(2) == "constant"
        assert f.scaled_limit(3) == "infinity"
        assert f.scaled_limit(1) == "zero"
        g = DimensionFunction.power_log(2.0, 1.0)
        assert g.scaled_limit(2) == "infinity"
        h = DimensionFunction.power_log(2.0, -1.0)
        assert h.scaled_limit(2) == "zero"

    def test_scaled_increasing(self):
        f = DimensionFunction.power(2.0)
        assert f.scaled_increasing(1)
        assert f.scaled_increasing(2)       # constant counts as weakly increasing
        assert not f.scaled_increasing(3)

    def test_predicates_match_sampled_behaviour(self):
        # exact predicates agree with a numeric grid near 0
        rs = np.geomspace(1e-8, 1e-2, 40)
        for f, b in [
            (DimensionFunction.power(2.5), 2),
            (DimensionFunction.power_log(1.0, 2.0), 1),
            (DimensionFunction.power_log(3.0, -1.0), 3),
        ]:
            vals = f(rs) * rs ** (-float(b))
            increasing = bool(np.all(np.diff(vals) >= -1e-18))
            assert f.scaled_increasing(b) == increasing

    def test_scaled_transform(self):
        f = DimensionFunction.power(3.0)
        g = f.scaled(1)
        assert g.s == 2.0
        with pytest.raises(PreconditionError):
            f.scaled(3)  # r^-3 f = 1 does not vanish at 0


class TestOmega:
    def test_power_family(self):
        omega = OmegaFunction.power(0.5, 2.0)
        assert omega(4.0) == 4.0
        assert omega.doubling_bounded(2.0, np.arange(1, 50, dtype=float))

    def test_table_family(self):
        omega = OmegaFunction.from_table([(1, 1.0), (5, 2.0), (10, 3.0)])
        assert omega(7.0) == 2.0
        with pytest.raises(PreconditionError):
            OmegaFunction.from_table([(1, 2.0), (2, 1.0)])

    def test_step_omega_blocks(self):
        omega = StepOmega((1, 3, 8, 20), n=2)
        assert omega.block_count == 3
        assert omega(2.0) == 1.0
        assert omega(3.0) == 1.0          # blocks are (r_{i-1}, r_i]
        assert omega(4.0) == math.sqrt(2)
        assert omega(100.0) == math.sqrt(3)  # clamped to the last block

    def test_step_omega_needs_two_blocks(self):
        with pytest.raises(PreconditionError):
            StepOmega((1, 5), n=1)
