import json
import math

import numpy as np
import pytest

from smallforms import (
    ApproximatingFunction,
    BudgetExceededError,
    PreconditionError,
    UbiquityConfig,
    estimate_E_t,
    estimate_delta_t,
    tail_dichotomy,
    ubiquity_density,
)
from smallforms.functions import OmegaFunction
from smallforms.measure import (
    CSV_COLUMNS,
    ExperimentReport,
    _const_witness_mask,
    _direct_union_mask,
    _rho_witness_mask_n1,
    batch_has_witness,
    delta_t_quadrature,
    reports_to_csv_rows,
    tail_quadrature,
    ubiquity_quadrature,
)
from smallforms.search import band_vectors, dirichlet_bound


class TestReport:
    def test_estimate_and_stderr(self):
        rep = ExperimentReport("demo", {}, 1, 400, 100)
        assert rep.estimate == 0.25
        assert rep.stderr == math.sqrt(0.25 * 0.75 / 400)

    def test_bounds_enforced(self):
        with pytest.raises(PreconditionError):
            ExperimentReport("demo", {}, 1, 10, 11)

    def test_json_dict_serializable(self):
        rep = ExperimentReport("demo", {"m": 2, "psi": "pow:1.0,2.0"}, 7, 10, 3,
                               parameter="t", parameter_value=4.0)
        payload = json.dumps(rep.to_json_dict())
        back = json.loads(payload)
        assert back["hits"] == 3 and back["seed"] == 7

    def test_csv_rows_round_trip(self):
        reps = [
            ExperimentReport("demo", {}, 1, 1000, k, parameter="N", parameter_value=float(k))
            for k in (1, 17, 333)
        ]
        rows = list(reports_to_csv_rows(reps))
        assert rows[0] == CSV_COLUMNS
        for rep, row in zip(reps, rows[1:]):
            assert float(row[3]) == rep.estimate       # repr round-trips exactly
            assert float(row[4]) == rep.stderr
            assert int(row[5]) == rep.hits


class TestEngineAgreement:
    """The interval fast paths must agree exactly with the direct scan."""

    def test_psi_witness_masks(self):
        rng = np.random.default_rng(71)
        for m, q_max in ((2, 20), (3, 9)):
            for _ in range(25):
                n_min = int(rng.integers(1, q_max + 1))
                psi = ApproximatingFunction.power(float(rng.uniform(0.1, 2.0)),
                                                  float(rng.uniform(0.3, 3.0)))
                xs = rng.random((80, m, 1)) - 0.5
                fast = batch_has_witness(xs, psi, n_min, q_max)
                vecs, heights = band_vectors(m, n_min, q_max)
                slow = _direct_union_mask(xs, vecs, psi(heights.astype(float)), False)
                assert np.array_equal(fast, slow)

    def test_psi_witness_mask_powerlog(self):
        rng = np.random.default_rng(72)
        psi = ApproximatingFunction.power_log(1.0, 1.0, 1.0)
        xs = rng.random((100, 2, 1)) - 0.5
        fast = batch_has_witness(xs, psi, 2, 15)
        vecs, heights = band_vectors(2, 2, 15)
        slow = _direct_union_mask(xs, vecs, psi(heights.astype(float)), False)
        assert np.array_equal(fast, slow)

    def test_const_witness_masks(self):
        rng = np.random.default_rng(73)
        for m, n in ((2, 1), (3, 1), (3, 2)):
            for _ in range(20):
                t = int(rng.integers(1, 5))
                bound = dirichlet_bound(m, n, t) * float(rng.uniform(0.3, 1.4))
                xs = rng.random((60, m, n)) - 0.5
                fast = _const_witness_mask(xs, bound, 2 ** t)
                vecs, _ = band_vectors(m, 1, 2 ** t)
                slow = _direct_union_mask(xs, vecs, np.full(len(vecs), bound), False)
                assert np.array_equal(fast, slow)

    def test_rho_witness_masks(self):
        rng = np.random.default_rng(74)
        for m in (2, 3):
            for _ in range(20):
                cap = int(rng.integers(2, 16))
                rho = float(rng.uniform(1e-4, 0.3))
                xs = rng.random((60, m)) - 0.5
                fast = _rho_witness_mask_n1(xs, rho, cap)
                vecs, _ = band_vectors(m, 1, cap)
                norms = np.linalg.norm(vecs.astype(float), axis=1)
                slow = _direct_union_mask(xs.reshape(-1, m, 1), vecs, rho * norms, True)
                assert np.array_equal(fast, slow)

    def test_general_n_falls_back_to_direct(self):
        rng = np.random.default_rng(75)
        psi = ApproximatingFunction.power(1.0, 1.0)
        xs = rng.random((40, 2, 2)) - 0.5
        mask = batch_has_witness(xs, psi, 1, 6)
        vecs, heights = band_vectors(2, 1, 6)
        slow = _direct_union_mask(xs, vecs, psi(heights.astype(float)), False)
        assert np.array_equal(mask, slow)


class TestDeltaT:
    def test_vanishing_widths(self):
        psi = ApproximatingFunction.power(1.0, 50.0)
        rep = estimate_delta_t(2, 1, psi, t=3, samples=2000, seed=1)
        assert rep.estimate < 0.01

    def test_covering_widths(self):
        # psi(r) = 2r makes the neighborhood width exceed the cube diameter
        psi = ApproximatingFunction.power(2.0, -1.0, strict=False)
        rep = estimate_delta_t(2, 1, psi, t=2, samples=500, seed=1)
        assert rep.estimate == 1.0

    def test_monotone_under_psi_enlargement(self):
        narrow = ApproximatingFunction.power(0.5, 1.5)
        wide = ApproximatingFunction.power(1.5, 1.5)
        a = estimate_delta_t(2, 1, narrow, t=3, samples=4000, seed=9)
        b = estimate_delta_t(2, 1, wide, t=3, samples=4000, seed=9)
        assert a.hits <= b.hits

    def test_deterministic_and_thread_invariant(self):
        psi = ApproximatingFunction.power(1.0, 2.0)
        a = estimate_delta_t(2, 1, psi, t=3, samples=9000, seed=5, threads=1)
        b = estimate_delta_t(2, 1, psi, t=3, samples=9000, seed=5, threads=4)
        assert a.hits == b.hits
        assert 0 < a.estimate < 1
        c = estimate_delta_t(2, 1, psi, t=3, samples=9000, seed=6)
        assert c.hits != a.hits  # different seed actually changes the draw

    def test_band_budget(self):
        psi = ApproximatingFunction.power(1.0, 1.0)
        with pytest.raises(BudgetExceededError):
            estimate_delta_t(3, 1, psi, t=11, samples=10 ** 6, seed=0)

    def test_grid_oracle_agreement_small(self):
        psi = ApproximatingFunction.power(1.0, 1.0)
        mc = estimate_delta_t(2, 1, psi, t=3, samples=20_000, seed=42)
        grid = delta_t_quadrature(2, 1, psi, t=3, resolution=512)
        comb = math.hypot(mc.stderr, grid.stderr)
        assert abs(mc.estimate - grid.estimate) <= 3 * comb

    def test_grid_oracle_agreement_full_scale(self):
        # the flagship configuration: 1e5 samples against a 2048^2 grid
        psi = ApproximatingFunction.power(1.0, 1.0)
        mc = estimate_delta_t(2, 1, psi, t=4, k=2.0, samples=100_000, seed=42)
        grid = delta_t_quadrature(2, 1, psi, t=4, k=2.0, resolution=2048)
        comb = math.hypot(mc.stderr, grid.stderr)
        assert abs(mc.estimate - grid.estimate) <= 3 * comb


class TestExcessHeight:
    def test_empty_height_range(self):
        omega = OmegaFunction.power(1.0, scale=1000.0)  # omega(t) >= 2^t for small t
        rep = estimate_E_t(3, 1, omega, t=4, samples=500, seed=3)
        assert rep.estimate == 0.0

    def test_unit_weight_is_bounded(self):
        rep = estimate_E_t(3, 1, lambda t: 1.0, t=4, samples=500, seed=3)
        assert 0.0 <= rep.estimate <= 1.0

    def test_decreasing_along_t(self):
        omega = OmegaFunction.power(1.0)
        ests = [estimate_E_t(3, 1, omega, t, samples=4000, seed=8).estimate for t in (4, 6, 8)]
        assert ests[0] > ests[1] > ests[2]

    def test_needs_more_rows_than_forms(self):
        with pytest.raises(PreconditionError):
            estimate_E_t(2, 2, OmegaFunction.power(1.0), t=3, samples=100, seed=0)

    def test_grid_agreement_small(self):
        # deterministic midpoint grid vs Monte Carlo on a 2-dim configuration
        omega = OmegaFunction.power(1.0)
        t = 4
        bound = dirichlet_bound(2, 1, t)
        cap = math.ceil(2 ** t / omega(t)) - 1
        mc = estimate_E_t(2, 1, omega, t, samples=30_000, seed=13)

        from smallforms.measure import _grid_source, _run

        hits, total = _run(
            _grid_source(2, 1024),
            lambda b: int(_const_witness_mask(b.reshape(len(b), 2, 1), bound, cap).sum()),
        )
        grid_est = hits / total
        comb = math.hypot(mc.stderr, math.sqrt(grid_est * (1 - grid_est) / total))
        assert abs(mc.estimate - grid_est) <= 3 * comb


class TestUbiquityDensity:
    def test_covering_rho(self):
        cfg = UbiquityConfig(2, 1, OmegaFunction.power(1.0, scale=1e9))
        rep = ubiquity_density(2, 1, cfg, t=1, samples=400, seed=2)
        assert rep.estimate == 1.0

    def test_monotone_in_rho(self):
        cfg1 = UbiquityConfig(2, 1, OmegaFunction.power(1.0))
        cfg2 = UbiquityConfig(2, 1, OmegaFunction.power(1.0, scale=2.0))
        a = ubiquity_density(2, 1, cfg1, t=4, samples=4000, seed=21)
        b = ubiquity_density(2, 1, cfg2, t=4, samples=4000, seed=21)
        assert a.hits <= b.hits

    def test_ball_must_sit_inside_cube(self):
        cfg = UbiquityConfig(2, 1, OmegaFunction.power(1.0))
        with pytest.raises(PreconditionError):
            ubiquity_density(2, 1, cfg, t=2, samples=10, seed=0,
                             ball_center=(0.4, 0.4), ball_radius=0.2)

    def test_grid_oracle_agreement_small(self):
        cfg = UbiquityConfig(2, 1, OmegaFunction.power(1.0))
        mc = ubiquity_density(2, 1, cfg, t=4, samples=20_000, seed=33,
                              ball_center=(0.125, 0.125), ball_radius=0.125)
        grid = ubiquity_quadrature(2, 1, cfg, t=4, resolution=256,
                                   ball_center=(0.125, 0.125), ball_radius=0.125)
        comb = math.hypot(mc.stderr, grid.stderr)
        assert abs(mc.estimate - grid.estimate) <= 3 * comb + 1e-9

    def test_grid_oracle_agreement_three_dim(self):
        cfg = UbiquityConfig(3, 1, OmegaFunction.power(1.0))
        kwargs = dict(ball_center=(0.125,) * 3, ball_radius=0.125)
        mc = ubiquity_density(3, 1, cfg, t=4, samples=20_000, seed=34, **kwargs)
        grid = ubiquity_quadrature(3, 1, cfg, t=4, resolution=48, **kwargs)
        assert grid.params["ball_center"] == mc.params["ball_center"] == (0.125,) * 3
        assert grid.params["ball_radius"] == mc.params["ball_radius"] == 0.125
        comb = math.hypot(mc.stderr, grid.stderr)
        assert abs(mc.estimate - grid.estimate) <= 3 * comb + 1e-9


class TestTailDichotomy:
    def test_everything_approximable_at_tiny_decay(self):
        psi = ApproximatingFunction.power(100.0, 0.01)
        reps = tail_dichotomy(2, 1, psi, (2, 4), 16, samples=500, seed=4)
        assert all(r.estimate == 1.0 for r in reps)

    def test_non_increasing_in_cutoff(self):
        psi = ApproximatingFunction.power(1.0, 2.0)
        reps = tail_dichotomy(2, 1, psi, (2, 4, 8), 32, samples=6000, seed=14)
        ests = [r.estimate for r in reps]
        assert ests == sorted(ests, reverse=True)

    def test_deterministic_and_thread_invariant(self):
        psi = ApproximatingFunction.power(1.0, 1.5)
        a = tail_dichotomy(3, 1, psi, (2, 4), 16, samples=4000, seed=15, threads=1)
        b = tail_dichotomy(3, 1, psi, (2, 4), 16, samples=4000, seed=15, threads=3)
        assert [r.hits for r in a] == [r.hits for r in b]

    def test_schedule_validation(self):
        psi = ApproximatingFunction.power(1.0, 2.0)
        with pytest.raises(PreconditionError):
            tail_dichotomy(2, 1, psi, (0, 4), 16, samples=10, seed=0)
        with pytest.raises(PreconditionError):
            tail_dichotomy(2, 1, psi, (4, 32), 16, samples=10, seed=0)

    def test_quadrature_agreement_small(self):
        psi = ApproximatingFunction.power(1.0, 2.0)
        mc = tail_dichotomy(2, 1, psi, (4,), 32, samples=20_000, seed=16)[0]
        quad = tail_quadrature(2, 1, psi, 4, 32, points=1 << 14)
        comb = math.hypot(mc.stderr, quad.stderr)
        assert abs(mc.estimate - quad.estimate) <= 3 * comb + 1e-9
