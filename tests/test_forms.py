import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallforms import (
    ApproximatingFunction,
    MatrixPoint,
    PreconditionError,
    UbiquityConfig,
    Witness,
    form_value,
    in_delta_neighborhood,
    is_k_regular,
    resonant_distance,
)
from smallforms.functions import OmegaFunction


def col(*vals):
    return MatrixPoint.from_columns(list(vals))


class TestMatrixPoint:
    def test_shape_and_bounds(self):
        X = MatrixPoint(np.array([[0.5, -0.5], [0.0, 0.25]]))
        assert (X.m, X.n) == (2, 2)
        for bad in (0.6, np.nan, -np.inf):
            with pytest.raises(PreconditionError):
                MatrixPoint(np.array([[bad]]))

    def test_from_flat_is_column_major(self):
        X = MatrixPoint.from_flat([0.1, 0.2, 0.3, 0.4], 2, 2)
        assert np.allclose(X.column(0), [0.1, 0.2])
        assert np.allclose(X.column(1), [0.3, 0.4])

    def test_immutable(self):
        X = col(0.1, 0.2)
        with pytest.raises(ValueError):
            X.entries[0, 0] = 0.3


class TestFormValue:
    def test_exact_cancellation(self):
        assert form_value([1, -2], col(0.5, 0.25)) == 0.0

    def test_two_columns_hand_arithmetic(self):
        X = MatrixPoint.from_columns([0.3, -0.4], [0.1, 0.2])
        assert form_value([1, 1], X) == pytest.approx(0.3)

    def test_single_column_hand_arithmetic(self):
        assert form_value([3, 1], col(0.2, -0.1)) == pytest.approx(0.5)

    def test_rejects_zero_and_mismatch(self):
        with pytest.raises(PreconditionError):
            form_value([0, 0], col(0.1, 0.2))
        with pytest.raises(PreconditionError):
            form_value([1, 2, 3], col(0.1, 0.2))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=2, max_size=3).filter(any),
        st.integers(0, 2 ** 32 - 1),
    )
    def test_sign_symmetry(self, q, seed):
        rng = np.random.default_rng(seed)
        X = MatrixPoint(rng.random((len(q), 2)) - 0.5)
        assert form_value(q, X) == form_value([-v for v in q], X)


class TestResonantDistance:
    def test_on_the_set(self):
        assert resonant_distance(col(0.5, 0.25), [1, -2]) == 0.0

    def test_axis_hyperplane(self):
        assert resonant_distance(col(0.3, 0.1), [1, 0]) == pytest.approx(0.3)

    def test_three_four_five(self):
        assert resonant_distance(col(0.1, 0.05), [3, 4]) == pytest.approx(0.1)

    def test_comparable_to_form_value(self):
        # dist <= |qX| / |q|_2 <= sqrt(m) * dist on random samples
        rng = np.random.default_rng(4)
        for _ in range(50):
            m, n = int(rng.integers(2, 4)), int(rng.integers(1, 3))
            X = MatrixPoint(rng.random((m, n)) - 0.5)
            q = rng.integers(-8, 9, size=m)
            if not q.any():
                q[0] = 1
            d = resonant_distance(X, q)
            ratio = form_value(q, X) / np.linalg.norm(q.astype(float))
            assert d <= ratio + 1e-15
            assert ratio <= math.sqrt(m) * d + 1e-15


class TestNeighborhood:
    def test_zero_distance_always_inside(self):
        X = col(0.5, 0.25)
        for tau in (0.5, 2.0, 9.0):
            assert in_delta_neighborhood(X, [1, -2], ApproximatingFunction.power(1, tau))

    def test_width_one_contains(self):
        psi = ApproximatingFunction.power(1.0, 1.0)  # Psi(1) = 1
        assert in_delta_neighborhood(col(0.3, 0.0), [1, 0], psi)

    def test_narrow_width_excludes(self):
        psi = ApproximatingFunction.power(0.1, 1.0)  # Psi(1) = 0.1 < 0.3
        assert not in_delta_neighborhood(col(0.3, 0.0), [1, 0], psi)

    def test_monotone_in_psi(self):
        rng = np.random.default_rng(11)
        narrow = ApproximatingFunction.power(0.5, 2.0)
        wide = ApproximatingFunction.power(1.5, 2.0)   # pointwise larger
        for _ in range(60):
            X = MatrixPoint(rng.random((2, 2)) - 0.5)
            q = rng.integers(-6, 7, size=2)
            if not q.any():
                q[0] = 1
            if in_delta_neighborhood(X, q, narrow):
                assert in_delta_neighborhood(X, q, wide)


class TestWitnessRecord:
    def test_value_recomputable(self):
        X = col(0.3, -0.4)
        w = Witness.of([2, 1], X)
        assert w.height == 2
        assert w.check_against(X)

    def test_height_consistency_enforced(self):
        with pytest.raises(PreconditionError):
            Witness((1, -2), 3, 0.0)


class TestKRegularity:
    def test_geometric_decay(self):
        report = is_k_regular(lambda r: 1.0 / r, 2.0, 40)
        assert report.regular
        assert report.lam == pytest.approx(0.5)

    def test_constant_fails(self):
        assert not is_k_regular(lambda r: 1.0, 2.0, 40)

    def test_pigeonhole_weight_profile(self):
        # u(2^t) = 3 * 2^(-3t) * t: ratio -> 1/8, stabilizes below 1
        def u(r):
            t = math.log2(r)
            return 3.0 * r ** -3.0 * t

        report = is_k_regular(u, 2.0, 60)
        assert report.regular
        assert report.lam < 1.0
        assert report.ratios[-1] == pytest.approx(0.125, rel=0.05)

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(PreconditionError):
            is_k_regular(lambda r: r - 3.0, 2.0, 10)


class TestUbiquityConfig:
    def test_dimensions_and_rho(self):
        cfg = UbiquityConfig(3, 1, OmegaFunction.power(1.0))
        assert cfg.gamma == 2 and cfg.delta == 3
        assert cfg.rho(4) == pytest.approx(3.0 * 16.0 ** -3 * 4.0)

    def test_omega_validation(self):
        cfg = UbiquityConfig(2, 1, OmegaFunction.power(1.0))
        cfg.validate_omega()
        bad = UbiquityConfig(2, 1, lambda t: np.ones_like(np.asarray(t, dtype=float)))
        with pytest.raises(PreconditionError):
            bad.validate_omega()

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            UbiquityConfig(1, 1, OmegaFunction.power(1.0))
        with pytest.raises(PreconditionError):
            UbiquityConfig(2, 1, OmegaFunction.power(1.0), k=1.0)
        with pytest.raises(PreconditionError):
            UbiquityConfig(2, 1, OmegaFunction.power(1.0), density_kappa=1.5)
