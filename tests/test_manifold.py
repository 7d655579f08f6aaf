import math

import numpy as np
import pytest

from smallforms import (
    ApproximatingFunction,
    DimensionFunction,
    EmbeddingInput,
    MatrixPoint,
    PreconditionError,
    SearchBudget,
    certify_A_membership,
    constant_absorption_check,
    eta_embed,
    gamma_dichotomy,
    height_obstruction,
    minor_defect,
    witnesses,
)
from smallforms.errors import BudgetExceededError, OutOfCubeError
from smallforms.manifold import _sample_eta_batch, absorption_constant, sample_gamma_points


class TestMinorDefect:
    def test_exact_zero_on_dyadic_proportional_columns(self):
        X = MatrixPoint(np.array([[0.25, 0.125], [-0.5, -0.25]]))
        assert minor_defect(X) == 0.0

    def test_near_zero_on_decimal_proportional_columns(self):
        X = MatrixPoint(np.array([[0.3, 0.12], [-0.2, -0.08]]))
        assert minor_defect(X) <= 1e-16

    def test_diagonal(self):
        X = MatrixPoint(np.diag([0.5, 0.5]))
        assert minor_defect(X) == pytest.approx(0.25)

    def test_wide_matrix_max_over_minors(self):
        X = MatrixPoint(np.array([[0.5, 0.0, 0.25], [0.0, 0.5, 0.25]]))
        # minors: det[c0 c1] = 0.25, det[c0 c2] = 0.125, det[c1 c2] = -0.125
        assert minor_defect(X) == pytest.approx(0.25)

    def test_requires_wide_or_square(self):
        with pytest.raises(PreconditionError):
            minor_defect(MatrixPoint(np.zeros((3, 2))))

    def test_combinatorial_budget(self):
        with pytest.raises(BudgetExceededError):
            minor_defect(MatrixPoint(np.zeros((10, 20))))


class TestEmbedding:
    def test_hand_computed_two_by_two(self):
        emb = EmbeddingInput(np.array([[0.3], [-0.2]]), np.array([[0.4]]))
        gp = eta_embed(emb, 2)
        assert np.allclose(gp.point.entries[:, 0], [0.3, -0.2])
        assert np.allclose(gp.point.entries[:, 1], [0.12, -0.08])
        assert gp.rank_deficient

    def test_zero_coefficients_give_zero_columns(self):
        emb = EmbeddingInput(np.array([[0.3], [-0.2]]), np.array([[0.0]]))
        gp = eta_embed(emb, 2)
        assert np.all(gp.point.entries[:, 1] == 0.0)
        assert gp.defect == 0.0

    def test_all_minors_vanish_for_wide_outputs(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            base = rng.random((3, 2)) - 0.5
            if np.linalg.svd(base, compute_uv=False)[-1] <= 1e-9:
                continue
            coeff = rng.random((2, 2)) - 0.5
            gp = eta_embed(EmbeddingInput(base, coeff), 4)
            assert gp.defect <= 1e-12

    def test_dependent_base_rejected(self):
        base = np.array([[0.2, 0.1], [0.4, 0.2], [-0.2, -0.1]])
        with pytest.raises(PreconditionError):
            EmbeddingInput(base, np.zeros((2, 2)))

    def test_coefficients_strictly_inside(self):
        with pytest.raises(PreconditionError):
            EmbeddingInput(np.array([[0.3], [-0.2]]), np.array([[0.5]]))

    def test_out_of_cube_combination(self):
        # m = 4: three base columns at the corner push a combination out
        base = np.full((4, 3), 0.5)
        base[1, 0] = -0.5
        base[2, 1] = -0.5
        base[3, 2] = -0.5
        coeff = np.full((1, 3), 0.45)
        with pytest.raises(OutOfCubeError):
            eta_embed(EmbeddingInput(base, coeff), 4)

    def test_injective_on_distinct_inputs(self):
        rng = np.random.default_rng(77)
        seen = set()
        points = sample_gamma_points(2, 2, 100, seed=123)
        assert len(points) == 100
        for gp in points:
            key = gp.point.entries.tobytes()
            assert key not in seen
            seen.add(key)

    def test_locally_bilipschitz_empirically(self):
        rng = np.random.default_rng(8)
        ratios = []
        for _ in range(50):
            base = rng.random((2, 1)) - 0.499
            coeff = rng.random((1, 1)) - 0.499
            bump = rng.normal(scale=1e-4, size=3)
            base2 = np.clip(base + bump[:2].reshape(2, 1), -0.5, 0.5)
            coeff2 = np.clip(coeff + bump[2:].reshape(1, 1), -0.499, 0.499)
            try:
                a = eta_embed(EmbeddingInput(base, coeff), 2)
                b = eta_embed(EmbeddingInput(base2, coeff2), 2)
            except PreconditionError:
                continue
            d_in = math.sqrt(
                np.sum((base - base2) ** 2) + np.sum((coeff - coeff2) ** 2)
            )
            d_out = float(np.linalg.norm(a.point.entries - b.point.entries))
            if d_in > 0:
                ratios.append(d_out / d_in)
        assert ratios
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) < 50.0  # recorded band, not a theorem


class TestCertification:
    def test_constant_value(self):
        assert absorption_constant(2) == 1.0
        assert absorption_constant(3) == 1.0
        assert absorption_constant(4) == 1.5

    def test_two_by_two_certified(self):
        psi = ApproximatingFunction.power(1.0, 1.5)
        for gp in sample_gamma_points(2, 2, 20, seed=3):
            cert = certify_A_membership(gp, psi, 20)
            assert cert.certified
            assert cert.c == 1.0

    def test_vacuous_flag_when_base_has_no_witnesses(self):
        # generic base with a fast-decaying psi: no witness below the cap
        emb = EmbeddingInput(np.array([[0.437201], [0.291444]]), np.array([[0.3]]))
        psi = ApproximatingFunction.power(1e-9, 6.0)
        gp = eta_embed(emb, 2)
        cert = certify_A_membership(gp, psi, 10)
        assert cert.certified and cert.vacuous

    def test_requires_construction_data(self):
        X = MatrixPoint(np.array([[0.25, 0.125], [-0.5, -0.25]]))
        from smallforms.manifold import GammaPoint

        gp = GammaPoint(X, True, 0.0, None)
        with pytest.raises(PreconditionError):
            certify_A_membership(gp, ApproximatingFunction.power(1, 2), 5)

    def test_three_by_three_certified(self):
        psi = ApproximatingFunction.power(1.0, 3.0)
        for gp in sample_gamma_points(3, 3, 10, seed=4):
            cert = certify_A_membership(gp, psi, 15)
            assert cert.certified


class TestSerialization:
    def test_gamma_point_round_trip(self):
        from smallforms.manifold import GammaPoint

        gp = sample_gamma_points(2, 3, 1, seed=55)[0]
        back = GammaPoint.from_json_dict(gp.to_json_dict())
        assert np.array_equal(back.point.entries, gp.point.entries)
        assert np.array_equal(back.construction.base, gp.construction.base)
        assert np.array_equal(back.construction.coefficients, gp.construction.coefficients)
        assert back.defect == gp.defect


class TestGammaDichotomy:
    def test_everything_hits_with_giant_psi(self):
        psi = ApproximatingFunction.power(50.0, 0.01)
        reps = gamma_dichotomy(2, 2, psi, (2, 4), 16, samples=300, seed=6)
        assert all(r.estimate == 1.0 for r in reps)

    def test_measure_label_recorded(self):
        psi = ApproximatingFunction.power(1.0, 1.0)
        reps = gamma_dichotomy(2, 2, psi, (2,), 8, samples=200, seed=7)
        assert reps[0].extras["measure"] == "eta-pushforward measure"

    def test_deterministic_and_thread_invariant(self):
        psi = ApproximatingFunction.power(1.0, 2.0)
        a = gamma_dichotomy(2, 2, psi, (2, 4), 16, samples=2000, seed=8, threads=1)
        b = gamma_dichotomy(2, 2, psi, (2, 4), 16, samples=2000, seed=8, threads=3)
        assert [r.hits for r in a] == [r.hits for r in b]

    def test_shape_validation(self):
        psi = ApproximatingFunction.power(1.0, 1.0)
        with pytest.raises(PreconditionError):
            gamma_dichotomy(3, 2, psi, (2,), 8, samples=10, seed=0)

    def test_eta_batches_stay_in_the_cube(self):
        # at m = 4 a combination column can leave the cube (sum |a_j| reaches 3/2)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
        xs, coeffs = _sample_eta_batch(rng, 1024, 4, 4)
        assert np.all(np.abs(xs) <= 0.5) and np.all(np.abs(coeffs) < 0.5)
        assert np.all(np.abs(np.linalg.det(xs)) <= 1e-12)


class TestConstantAbsorption:
    def test_identity_scaling(self):
        rep = constant_absorption_check(2, 2, DimensionFunction.power(3),
                                        ApproximatingFunction.power(1.0, 1.0), 1.0)
        assert rep.ok
        assert rep.ratio_min == pytest.approx(1.0)
        assert rep.ratio_max == pytest.approx(1.0)

    def test_volume_gauge_with_doubling(self):
        rep = constant_absorption_check(2, 2, DimensionFunction.power(3),
                                        ApproximatingFunction.power(1.0, 1.0), 2.0)
        assert rep.ok
        assert rep.c1 == pytest.approx(0.125)
        assert rep.ratio_max <= 8.0 + 1e-9

    def test_increasing_rescaled_gauge_rejected(self):
        with pytest.raises(PreconditionError):
            constant_absorption_check(2, 2, DimensionFunction.power(10),
                                      ApproximatingFunction.power(1.0, 1.0), 2.0)


class TestCrossModuleConsistency:
    def test_nonzero_defect_caps_witness_heights(self):
        # a square X off the variety admits only finitely many witnesses:
        # none above the inverse-norm obstruction
        rng = np.random.default_rng(31)
        psi = ApproximatingFunction.power(1.0, 2.0)
        done = 0
        while done < 10:
            X = MatrixPoint(rng.random((2, 2)) - 0.5)
            if minor_defect(X) <= 1e-2:
                continue
            done += 1
            q_star = height_obstruction(X, psi)
            probe = min(4 * q_star + 8, 80)
            for w in witnesses(X, psi, SearchBudget(probe)):
                assert w.height <= q_star
