import ast
import csv
import io
import json
import math
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import smallforms
from smallforms import (
    ApproximatingFunction,
    BudgetExceededError,
    MatrixPoint,
    PreconditionError,
    SearchBudget,
    UbiquityConfig,
    estimate_E_t,
    estimate_delta_t,
    tail_dichotomy,
    ubiquity_density,
    witnesses,
)
from smallforms import lattice, measure
from smallforms.boxdim import boxdim_estimate, coupled_schedule, truncated_box_count
from smallforms.cli import parse_omega, parse_psi
from smallforms.forms import form_columns
from smallforms.functions import OmegaFunction
from smallforms.manifold import _sample_eta_batch, absorption_constant, gamma_dichotomy
from smallforms.measure import (
    CSV_COLUMNS,
    ExperimentReport,
    _box_witness_mask,
    _direct_union_mask,
    _rho_question,
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


def box_mask(xs, bound, cap):
    """The constant box question: one height block, no extra filter."""
    return _box_witness_mask(xs, [(1, cap, bound)])


def _agreement_inputs(rng, shape):
    """Uniform samples of ``shape`` plus degenerate ones: zero and tiny
    leading entries, dyadic entries (exact values) and, for n = 2, a zero
    first column of the leading row."""
    xs = rng.random(shape) - 0.5
    zero_lead, tiny_lead = xs.copy(), xs.copy()
    zero_lead[::2, 0] = 0.0
    tiny_lead[:, 0] *= 1e-2
    inputs = [xs, zero_lead, tiny_lead, np.floor(xs * 16) / 16]
    if len(shape) == 3 and shape[2] == 2:
        zero_col = xs.copy()
        zero_col[:, 0, 0] = 0.0
        inputs.append(zero_col)
    return inputs


def recheck_near_ties(fast, xs, vecs, thr, inclusive=False, rho=None):
    """Recheck in exact arithmetic on the float inputs every sample whose
    least value - threshold over ``vecs`` lies within 4 ulps of the
    threshold: the mask ``fast`` must give the exact answer there.  With
    ``rho`` the threshold is the exact rho |q|_2, compared by squares.
    Returns the number of samples rechecked."""
    values = np.abs(vecs.astype(float) @ xs).max(axis=2)
    gap = values - thr
    least = gap.argmin(axis=1)
    near = np.abs(gap[np.arange(len(xs)), least]) <= 4 * np.spacing(thr[least])
    for s in np.nonzero(near)[0]:
        x = [[Fraction(float(v)) for v in row] for row in xs[s]]
        hit = False
        for k, q in enumerate(vecs.tolist()):
            value = max(abs(sum(qi * x[i][j] for i, qi in enumerate(q))) for j in range(len(x[0])))
            if rho is None:
                lhs, rhs = value, Fraction(float(thr[k]))
            else:
                lhs, rhs = value * value, Fraction(rho) ** 2 * sum(qi * qi for qi in q)
            hit = lhs < rhs or (inclusive and lhs == rhs)
            if hit:
                break
        assert hit == bool(fast[s]), (s, xs[s].tolist())
    return int(near.sum())


def engine_spy(monkeypatch):
    """Record every call of the box engine; returns the call list."""
    engine, calls = measure._box_witness_mask, []
    monkeypatch.setattr(measure, "_box_witness_mask", lambda *a: calls.append(1) or engine(*a))
    return calls


@pytest.fixture
def small_chunks(monkeypatch):
    """A cell budget of 128 splits most tail blocks into several chunks of
    live samples, so drop-out between chunks and blocks is exercised."""
    monkeypatch.setattr(measure, "_CELL_BUDGET", 128)


@pytest.fixture
def lattice_only(monkeypatch):
    """Every block takes the lattice reduction, however few points its box
    holds."""
    monkeypatch.setattr(lattice, "_DIRECT_BOX", 0)


@pytest.mark.usefixtures("small_chunks")
class TestEngineAgreement:
    """The lattice box engine must agree exactly with the direct scan, and
    with exact arithmetic at every near tie."""

    def test_psi_witness_masks(self):
        rng = np.random.default_rng(71)
        for m, n, q_max, draws in ((2, 1, 20, 25), (3, 1, 9, 25), (2, 2, 12, 10), (3, 2, 6, 6),
                                   (2, 3, 10, 6)):
            for _ in range(draws):
                n_min = int(rng.integers(1, q_max + 1))
                psi = ApproximatingFunction.power(float(rng.uniform(0.1, 2.0)),
                                                  float(rng.uniform(0.3, 3.0)))
                vecs, heights = band_vectors(m, n_min, q_max)
                for xs in _agreement_inputs(rng, (80, m, n)):
                    fast = batch_has_witness(xs, psi, n_min, q_max)
                    slow = _direct_union_mask(xs, vecs, psi(heights.astype(float)), False)
                    assert np.array_equal(fast, slow)
                    recheck_near_ties(fast, xs, vecs, psi(heights.astype(float)))

    def test_psi_inner_end_candidate(self):
        # the only witness, (4, 1), has its leading entry at the cutoff N = 4
        # while the minimum of |q_1 x_1 + x_2| lies at q_1 = 6.5
        xs = np.array([[[0.02], [-0.13]]])
        psi = ApproximatingFunction.power(300.0, 6.0)
        vecs, heights = band_vectors(2, 4, 8)
        values = np.abs(vecs @ xs[0, :, 0])
        assert vecs[values < psi(heights.astype(float))].tolist() == [[4, 1]]
        assert batch_has_witness(xs, psi, 4, 8).tolist() == [True]

    def test_psi_witness_mask_powerlog(self):
        rng = np.random.default_rng(72)
        psi = ApproximatingFunction.power_log(1.0, 1.0, 1.0)
        vecs, heights = band_vectors(2, 2, 15)
        for xs in _agreement_inputs(rng, (100, 2, 1)):
            fast = batch_has_witness(xs, psi, 2, 15)
            slow = _direct_union_mask(xs, vecs, psi(heights.astype(float)), False)
            assert np.array_equal(fast, slow)
            recheck_near_ties(fast, xs, vecs, psi(heights.astype(float)))

    @pytest.mark.usefixtures("lattice_only")
    def test_const_witness_masks(self):
        rng = np.random.default_rng(73)
        for m, n in ((2, 1), (3, 1), (3, 2)):
            for _ in range(20):
                t = int(rng.integers(1, 5))
                bound = dirichlet_bound(m, n, t) * float(rng.uniform(0.3, 1.4))
                vecs, _ = band_vectors(m, 1, 2 ** t)
                for xs in _agreement_inputs(rng, (60, m, n)):
                    fast = box_mask(xs, bound, 2 ** t)
                    slow = _direct_union_mask(xs, vecs, np.full(len(vecs), bound), False)
                    assert np.array_equal(fast, slow)
                    recheck_near_ties(fast, xs, vecs, np.full(len(vecs), bound))

    @pytest.mark.parametrize("m", [2, 3])
    def test_psi_witness_mask_powerlog_negative_kappa(self, monkeypatch, m):
        # kappa < 0 (a convex table) takes the lattice box engine
        rng = np.random.default_rng(76 + m)
        psi = ApproximatingFunction.power_log(1.0, 2.0, -0.3)
        calls = engine_spy(monkeypatch)
        q_max = 12 if m == 2 else 6
        for n_min in (1, 3, q_max):
            vecs, heights = band_vectors(m, n_min, q_max)
            for xs in _agreement_inputs(rng, (80, m, 1)):
                fast = batch_has_witness(xs, psi, n_min, q_max)
                slow = _direct_union_mask(xs, vecs, psi(heights.astype(float)), False)
                assert np.array_equal(fast, slow)
                recheck_near_ties(fast, xs, vecs, psi(heights.astype(float)))
        assert len(calls) == 12

    def test_nonconvex_powerlog_table_takes_direct_scan(self, monkeypatch):
        # a table that is not convex takes the engine too; the direct scan
        # is only the oracle
        psi = ApproximatingFunction.power_log(1.0, 1.0, -3.0)
        table = psi(np.arange(1.0, 17.0))
        assert np.all(np.diff(table) <= 0) and np.any(np.diff(table, 2) < 0)

        def forbidden(*args):
            raise AssertionError("batch_has_witness reached the direct scan")

        calls = engine_spy(monkeypatch)
        monkeypatch.setattr(measure, "_direct_union_mask", forbidden)
        xs = np.random.default_rng(78).random((50, 2, 1)) - 0.5
        vecs, heights = band_vectors(2, 2, 16)
        assert np.array_equal(batch_has_witness(xs, psi, 2, 16),
                              _direct_union_mask(xs, vecs, psi(heights.astype(float)), False))
        assert len(calls) == 1

    def test_rho_witness_masks(self, monkeypatch):
        rng = np.random.default_rng(74)
        calls = engine_spy(monkeypatch)
        for m, n, draws in ((2, 1, 20), (3, 1, 20), (2, 2, 10), (3, 2, 6), (2, 3, 6)):
            for _ in range(draws):
                cap = int(rng.integers(2, 16))
                rho = float(rng.uniform(1e-4, 0.3))
                vecs, _ = band_vectors(m, 1, cap)
                norms = np.linalg.norm(vecs.astype(float), axis=1)
                for xs in _agreement_inputs(rng, (60, m, n)):
                    fast = measure._box_witness_mask(xs, *_rho_question(m, rho, cap))
                    slow = _direct_union_mask(xs, vecs, rho * norms, True)
                    assert np.array_equal(fast, slow)
                    recheck_near_ties(fast, xs, vecs, rho * norms, True, rho)
        assert len(calls) == 4 * (20 + 20) + 5 * (10 + 6) + 4 * 6
        ubiquity_density(2, 1, UbiquityConfig(2, 1, OmegaFunction.power(1.0)), 3, samples=50)
        assert len(calls) == 4 * (20 + 20) + 5 * (10 + 6) + 4 * 6 + 1

    @pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_nonconvex_powerlog_agreement(self, m, n):
        # powlog:1,1,-3 is non-increasing but not convex
        rng = np.random.default_rng(180 + 10 * m + n)
        psi = ApproximatingFunction.power_log(1.0, 1.0, -3.0)
        q_max = {1: 16, 2: 10}[n] if m == 2 else 6
        for n_min in (1, 2, 5):
            vecs, heights = band_vectors(m, n_min, q_max)
            thr = psi(heights.astype(float))
            for xs in _agreement_inputs(rng, (60, m, n)):
                fast = batch_has_witness(xs, psi, n_min, q_max)
                assert np.array_equal(fast, _direct_union_mask(xs, vecs, thr, False))
                recheck_near_ties(fast, xs, vecs, thr)

    @pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (2, 2)])
    def test_nonmonotone_table_agreement(self, m, n):
        # a strict=False table that rises and falls: each block's bound is
        # the largest table value on it
        rng = np.random.default_rng(190 + 10 * m + n)
        psi = ApproximatingFunction.from_table(
            [(1, 0.004), (2, 0.05), (4, 0.01), (5, 0.08), (7, 0.002), (9, 0.03)], strict=False)
        q_max = 12 if m == 2 else 6
        for n_min in (1, 3, 6):
            vecs, heights = band_vectors(m, n_min, q_max)
            thr = psi(heights.astype(float))
            for xs in _agreement_inputs(rng, (60, m, n)):
                fast = batch_has_witness(xs, psi, n_min, q_max)
                assert np.array_equal(fast, _direct_union_mask(xs, vecs, thr, False))
                recheck_near_ties(fast, xs, vecs, thr)

    def test_gamma_points_with_scale(self):
        # the variety's eta-sampled points; gamma_dichotomy scales psi by the
        # absorption constant, which is 1 at m = 2, so other scales are tried
        rng = np.random.default_rng(197)
        xs = _sample_eta_batch(rng, 300, 2, 2)[0]
        for psi, c in ((ApproximatingFunction.power(1.0, 3.0), 2.5),
                       (ApproximatingFunction.power(0.3, 1.0), 0.7),
                       (ApproximatingFunction.power(1.0, 2.0), absorption_constant(4))):
            for n_min, q_max in ((2, 16), (4, 16), (8, 12)):
                vecs, heights = band_vectors(2, n_min, q_max)
                thr = c * psi(heights.astype(float))
                fast = batch_has_witness(xs, psi, n_min, q_max, scale=c)
                assert np.array_equal(fast, _direct_union_mask(xs, vecs, thr, False))
                recheck_near_ties(fast, xs, vecs, thr)

    @pytest.mark.parametrize("m, n, res, cap, draws", [(2, 1, 64, 6, None), (3, 1, 128, 4, 4000),
                                                       (2, 2, 32, 3, 4000)])
    def test_rho_ties_at_inclusive_bound(self, m, n, res, cap, draws):
        # X on the grid (1/res) Z (all of it, or seeded draws) and rho = 1/res:
        # |q.x_j| = rho |q|_2 can hold exactly, for axis vectors, q = (3, 4)
        # or q = (1, 2, 2), so some samples are decided by a tie, which the
        # inclusive bound counts as a hit
        rho = 1 / res
        if draws is None:
            axes = np.meshgrid(*[np.arange(-res // 2, res // 2) / res] * (m * n), indexing="ij")
            xs = np.stack([a.ravel() for a in axes], axis=1).reshape(-1, m, n)
        else:
            xs = np.random.default_rng(res).integers(-res // 2, res // 2, (draws, m, n)) / res
        vecs, _ = band_vectors(m, 1, cap)
        norms = np.linalg.norm(vecs.astype(float), axis=1)
        below = float(np.nextafter(rho, 0.0))
        fast = measure._box_witness_mask(xs, *_rho_question(m, rho, cap))
        assert np.array_equal(fast, _direct_union_mask(xs, vecs, rho * norms, True))
        fast_below = measure._box_witness_mask(xs, *_rho_question(m, below, cap))
        assert np.array_equal(fast_below, _direct_union_mask(xs, vecs, below * norms, True))
        assert np.sum(fast & ~fast_below) > 0       # samples a tie decides
        assert recheck_near_ties(fast, xs, vecs, rho * norms, True, rho) > 0

    def test_general_n_falls_back_to_direct(self):
        # n = 2 takes the same box engine as n = 1; its mask must still equal
        # the direct shell scan it once fell back to
        rng = np.random.default_rng(75)
        psi = ApproximatingFunction.power(1.0, 1.0)
        xs = rng.random((40, 2, 2)) - 0.5
        mask = batch_has_witness(xs, psi, 1, 6)
        vecs, heights = band_vectors(2, 1, 6)
        slow = _direct_union_mask(xs, vecs, psi(heights.astype(float)), False)
        assert np.array_equal(mask, slow)
        recheck_near_ties(mask, xs, vecs, psi(heights.astype(float)))


@pytest.mark.usefixtures("lattice_only")
class TestBoxEngine:
    """The lattice reduction and enumeration of the box engine."""

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (3, 2), (4, 1)])
    def test_pigeonhole_totality(self, m, n):
        rng = np.random.default_rng(80 + 10 * m + n)
        for t in range(1, 13):
            for xs in _agreement_inputs(rng, (40, m, n)):
                assert box_mask(xs, dirichlet_bound(m, n, t), 2 ** t).all(), t

    @pytest.mark.usefixtures("small_chunks")
    @pytest.mark.parametrize("m, n", [(3, 1), (3, 2)])
    def test_monotone_in_cap_and_bound(self, m, n):
        rng = np.random.default_rng(90 + n)
        xs = rng.random((300, m, n)) - 0.5
        base = dirichlet_bound(m, n, 6)
        masks = {(cap, f): box_mask(xs, f * base, cap)
                 for cap in (1, 5, 20, 64, 200) for f in (0.01, 0.1, 0.5, 2.0)}
        for (cap, f), mask in masks.items():
            for (cap2, f2), mask2 in masks.items():
                if cap <= cap2 and f <= f2:
                    assert not np.any(mask & ~mask2)
        counts = [masks[(cap, 0.1)].sum() for cap in (1, 5, 20, 64, 200)]
        assert counts == sorted(counts) and counts[0] < counts[-1]

    def test_direct_agreement_at_height_2_7(self):
        # the direct scan over slabs q_1 = k >= 0 of the box (one of each +-q),
        # valued by a matrix product; a sample hits iff its least value is
        # below the bound
        rng = np.random.default_rng(94)
        cap = 2 ** 7
        xs = np.concatenate(_agreement_inputs(rng, (16, 3, 1)))
        side = np.arange(-cap, cap + 1)
        tails = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
        least = np.full(len(xs), np.inf)
        for k in range(cap + 1):
            rows = tails if k else tails[np.any(tails != 0, axis=1)]
            vecs = np.column_stack([np.full(len(rows), k), rows])
            least = np.minimum(least, np.abs(vecs.astype(float) @ xs[:, :, 0].T).min(axis=0))
        for factor in (0.01, 0.02, 0.05):
            bound = factor * dirichlet_bound(3, 1, 7)
            slow = least < bound
            assert 0 < slow.sum() < len(xs)
            assert np.array_equal(box_mask(xs, bound, cap), slow)

    @pytest.mark.usefixtures("small_chunks")
    def test_enumeration_finds_what_the_rows_miss(self, monkeypatch):
        # at small bounds some samples have a witness that no row of the
        # reduced transform gives; only the coefficient enumeration finds it
        rng = np.random.default_rng(95)
        coefficient_box = measure._coefficient_box
        missed = 0
        for m, n, t, factor in ((3, 1, 4, 0.1), (4, 1, 2, 0.02), (4, 1, 3, 0.02), (3, 2, 4, 0.1)):
            vecs, _ = band_vectors(m, 1, 2 ** t)
            bound = factor * dirichlet_bound(m, n, t)
            for xs in _agreement_inputs(rng, (200, m, n)):
                slow = _direct_union_mask(xs, vecs, np.full(len(vecs), bound), False)
                assert np.array_equal(box_mask(xs, bound, 2 ** t), slow)
                monkeypatch.setattr(measure, "_coefficient_box",
                                    lambda bounds: np.zeros((0, len(bounds)), dtype=np.int64))
                missed += int(np.sum(slow & ~box_mask(xs, bound, 2 ** t)))
                monkeypatch.setattr(measure, "_coefficient_box", coefficient_box)
        assert missed >= 10

    @pytest.mark.usefixtures("small_chunks")
    def test_zero_matrix_and_zero_row(self):
        zero = np.zeros((3, 3, 2))
        assert box_mask(zero, 1e-9, 1).all()
        xs = np.array([[[0.3], [0.0]], [[0.3], [0.2]]])   # x_2 = 0: q = e_2
        assert box_mask(xs, 1e-9, 1).tolist() == [True, False]
        assert not box_mask(zero, 0.5, 0).any()   # no height at all

    @pytest.mark.parametrize("h, j", [(3, 0), (5, 7), (7, 123)])
    def test_corner_witness_needs_the_rounding_margin(self, h, j):
        # q0 = (H, H) is the only witness of height H/2 .. H, at a corner of
        # the scaled box: |q0_i| = H and |q0.x| one ulp below b.  The reduced
        # basis is {(1, 1), r} with r orthogonal to q0 B, so q0 = H (1, 1)
        # sits on the enumeration bound itself: sqrt(3) |d_1| exceeds H by
        # less than an ulp, and only the margin keeps the coefficient H.  The
        # table psi is tiny below H, so the least multiple (H/2)(1, 1) of the
        # reduced row misses and only the enumeration can find q0.
        H, ulp = 2 ** h, 2.0 ** -60
        b = (2 ** 52 + 1 + 2 * H * j) * ulp           # mantissa = 1 mod 2H
        v0 = float(np.nextafter(b, 0.0))
        k = -(-(2 * H - 2) // 3)                       # x1 >= 2b
        x2 = -(1 + k * (2 + (v0 / b) ** 2)) * b * b / (v0 * H)
        x2 = round(x2 / (2 * ulp)) * 2 * ulp
        x1 = v0 / H - x2
        xs = np.array([[[x1], [x2]]])
        exact = [Fraction(x1), Fraction(x2)]
        assert H * (exact[0] + exact[1]) == Fraction(v0) == Fraction(b) - Fraction(ulp)
        psi = ApproximatingFunction.from_table([(1, b * 1e-6), (H, b)], strict=False)
        vecs, heights = band_vectors(2, H // 2, H)
        thr = psi(heights.astype(float))
        assert thr[heights == H].tolist() == [b] * int(np.sum(heights == H))
        hits = [q for q, t in zip(vecs.tolist(), thr.tolist())
                if abs(q[0] * exact[0] + q[1] * exact[1]) < Fraction(t)]
        assert hits == [[H, H]]
        assert batch_has_witness(xs, psi, H // 2, H).tolist() == [True]

    def test_exact_tie_is_not_a_witness(self):
        # dyadic X: every |q.x| is exact, and the strict bound excludes the minimum
        xs = np.array([[[330 / 1024], [459 / 1024], [-257 / 1024]]])
        vecs, _ = band_vectors(3, 1, 3)
        values = np.abs(vecs.astype(float) @ xs[0, :, 0])
        best = float(values.min())
        assert best == 1 / 1024 and vecs[values == best].tolist() == [[2, -2, -1]]
        assert box_mask(xs, best, 3).tolist() == [False]
        assert box_mask(xs, np.nextafter(best, 1.0), 3).tolist() == [True]

    @pytest.mark.parametrize("m, n, t", [(2, 1, 30), (3, 1, 18)])
    def test_rounding_guard(self, m, n, t):
        # (2, 1) trips the a priori bound, (3, 1) the bound of the reduced bases
        with pytest.raises(BudgetExceededError):
            estimate_E_t(m, n, OmegaFunction.power(1.0), t, samples=200, seed=0)


class TestOneExpression:
    """The engine, its band-scan oracle and the witness search value q.X by
    the one expression of :func:`~smallforms.forms.form_columns`, so they
    agree at near ties, whatever BLAS build runs them."""

    FOUND = ([[0.16284295251679926], [-0.2246911842388707]], 40, 0.0023262422552798867)

    def test_engine_agrees_with_its_oracle_at_a_near_tie(self):
        # q = (40, 29) lies 2^-53 below b in exact arithmetic and the one
        # expression rounds its value to b, so neither path takes it; a BLAS
        # matrix product may round it below b in one path and not the other
        x, cap, b = self.FOUND
        xs = np.array([x])
        exact = abs(40 * Fraction(x[0][0]) + 29 * Fraction(x[1][0]))
        assert exact < Fraction(b) and abs(float(form_columns([40, 29], xs[0])[0])) == b
        vecs, _ = band_vectors(2, 1, cap)
        oracle = _direct_union_mask(xs, vecs, np.full(len(vecs), b), False)
        assert _box_witness_mask(xs, [(1, cap, b)]).tolist() == oracle.tolist() == [False]

    @pytest.mark.parametrize("m, n, cap, whole", [
        (2, 1, 6, True), (2, 1, 40, False), (3, 1, 3, True), (3, 1, 8, False),
        (4, 1, 1, True), (4, 1, 3, False), (3, 2, 3, True), (3, 2, 6, False),
        (2, 2, 5, True), (2, 2, 20, False),
    ])
    def test_engine_decides_at_the_least_band_value(self, m, n, cap, whole):
        # bound = the least value of the band: no q is below it, and one ulp
        # above it the least q is
        rng = np.random.default_rng(300 + 10 * m + n + cap)
        xs = rng.random((48, m, n)) - 0.5
        assert lattice._direct_box(xs, cap) == whole
        vecs, _ = band_vectors(m, 1, cap)
        for x in xs:
            b = float(np.abs(form_columns(vecs, x)).max(axis=1).min())
            assert _box_witness_mask(x[None], [(1, cap, b)]).tolist() == [False], x.tolist()
            assert _box_witness_mask(x[None], [(1, cap, np.nextafter(b, 1.0))]).tolist() == [True]

    @pytest.mark.parametrize("m, n, tau", [(2, 1, 2.5), (3, 1, 4.0), (3, 2, 2.0), (2, 2, 1.0)])
    def test_batch_has_witness_agrees_with_witnesses(self, m, n, tau):
        rng = np.random.default_rng(320 + 10 * m + n)
        xs = rng.random((60, m, n)) - 0.5
        psi = ApproximatingFunction.power(1.0, tau)
        n_min, q_max = 4, 24
        found = [any(w.height >= n_min for w in witnesses(MatrixPoint(x), psi, SearchBudget(q_max)))
                 for x in xs]
        assert 0 < sum(found) < len(xs)
        assert batch_has_witness(xs, psi, n_min, q_max).tolist() == found


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

    def test_empty_band_reports_zero_hits(self):
        # no integer height lies in [1.1, 1.21]: the union is empty
        psi = ApproximatingFunction.power(1.0, 2.0)
        rep = estimate_delta_t(2, 1, psi, t=2, k=1.1, samples=10, seed=1)
        assert (rep.hits, rep.samples, rep.extras["q_count"]) == (0, 10, 0)
        grid = delta_t_quadrature(2, 1, psi, t=2, k=1.1, resolution=8)
        assert (grid.hits, grid.samples, grid.extras["q_count"]) == (0, 64, 0)

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

    @pytest.mark.usefixtures("small_chunks", "lattice_only")
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
            lambda b: int(box_mask(b.reshape(len(b), 2, 1), bound, cap).sum()),
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

    def test_config_of_another_shape_is_refused(self):
        # a (3, 2) config asked at (2, 1) would use the (3, 2) rho
        cfg = UbiquityConfig(3, 2, OmegaFunction.power(1.0))
        with pytest.raises(PreconditionError):
            ubiquity_density(2, 1, cfg, 3, samples=10, seed=0)
        with pytest.raises(PreconditionError):
            ubiquity_quadrature(2, 1, cfg, 3, resolution=4)

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


class TestEstimator:
    """Every report comes from ``measure._estimate``, and every report's
    params, with its seed and sample count, are enough to re-run it."""

    def test_reports_built_in_one_place(self):
        package = Path(smallforms.__file__).parent
        built, in_estimate = set(), set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExperimentReport":
                    built.add((path.name, node.lineno))
                if isinstance(node, ast.FunctionDef) and node.name == "_estimate":
                    in_estimate |= {(path.name, n.lineno) for n in ast.walk(node)
                                    if isinstance(n, ast.Call)
                                    and getattr(n.func, "id", None) == "ExperimentReport"}
        assert built and built == in_estimate
        assert {name for name, _ in built} == {"measure.py"}

    @staticmethod
    def _rerun(rep):
        """The experiment of ``rep`` called again from its serialized params,
        seed and sample count alone; a dichotomy report at cutoff N re-runs
        as the one-cutoff schedule [N]."""
        record = json.loads(json.dumps(rep.to_json_dict()))
        p, samples = record["params"], record["samples"]
        m, n = p["m"], p["n"]
        drawn = {"samples": samples, "seed": record["seed"]}
        psi = parse_psi(p["psi"]) if "psi" in p else None
        omega = parse_omega(p["omega"]) if "omega" in p else None
        window = {"ball_center": p.get("ball_center"), "ball_radius": p.get("ball_radius")}
        return {
            "delta-t": lambda: estimate_delta_t(m, n, psi, p["t"], p["k"], **drawn),
            "delta-t-quadrature": lambda: delta_t_quadrature(m, n, psi, p["t"], p["k"],
                                                             p["resolution"]),
            "excess-height": lambda: estimate_E_t(m, n, omega, p["t"], **drawn),
            "ubiquity-density": lambda: ubiquity_density(
                m, n, UbiquityConfig(m, n, omega, p["k"]), p["t"], **window, **drawn),
            "ubiquity-quadrature": lambda: ubiquity_quadrature(
                m, n, UbiquityConfig(m, n, omega, p["k"]), p["t"], p["resolution"], **window),
            "tail-dichotomy": lambda: tail_dichotomy(m, n, psi, [p["N"]], p["Q"], **drawn)[0],
            "tail-quadrature": lambda: tail_quadrature(m, n, psi, p["N"], p["Q"], points=samples),
            "gamma-dichotomy": lambda: gamma_dichotomy(m, n, psi, [p["N"]], p["Q"], **drawn)[0],
        }[rep.experiment]()

    def test_quadratures_rerun_from_params(self):
        # every estimator, the sampled ones included; the dichotomies at each
        # cutoff of a nested schedule, which pins the nested tester
        psi = ApproximatingFunction.power(0.05, 1.5)
        omega = OmegaFunction.power(1.0, scale=0.01)
        window = {"ball_center": (0.1, -0.2), "ball_radius": 0.25}
        reports = [
            estimate_delta_t(2, 1, psi, 3, samples=3000, seed=1),
            delta_t_quadrature(2, 1, psi, 3, resolution=64),
            estimate_E_t(3, 1, OmegaFunction.power(1.0), 6, samples=2000, seed=2),
            ubiquity_density(2, 1, UbiquityConfig(2, 1, omega), 3, samples=3000, seed=3,
                             **window),
            ubiquity_quadrature(2, 1, UbiquityConfig(2, 1, omega), 3, resolution=32, **window),
            *tail_dichotomy(2, 1, psi, (2, 4, 8, 16), 64, samples=3000, seed=4),
            *tail_dichotomy(3, 1, ApproximatingFunction.power(0.02, 2.0), (2, 4, 8), 32,
                            samples=2000, seed=5),
            *tail_dichotomy(3, 2, ApproximatingFunction.power(0.1, 1.0), (2, 4), 16,
                            samples=1000, seed=6),
            tail_quadrature(2, 1, psi, 4, 64, points=5000),
            *gamma_dichotomy(2, 2, ApproximatingFunction.power(0.1, 2.0), (2, 4, 8), 64,
                             samples=2000, seed=7),
            *gamma_dichotomy(2, 3, ApproximatingFunction.power(0.1, 1.0), (2, 4), 16,
                             samples=1000, seed=8),
        ]
        for rep in reports:
            again = self._rerun(rep)
            assert (again.seed, again.samples, again.hits) == (rep.seed, rep.samples, rep.hits), \
                (rep.experiment, rep.params)
            assert again.params == rep.params, rep.experiment
        assert len({rep.experiment for rep in reports}) == 8
        assert all(0 < rep.hits < rep.samples for rep in reports)

        report = boxdim_estimate(3, 1, 1.5, coupled_schedule(3, 1, 1.5, range(4, 8)))
        record = json.loads(json.dumps(asdict(report)))
        again = boxdim_estimate(record["m"], record["n"], record["tau"],
                                [(q_max, delta, h_min) for delta, q_max, h_min, _ in record["points"]])
        assert json.loads(json.dumps(asdict(again))) == record

    def test_omega_is_recorded_by_its_spec(self):
        omega = OmegaFunction.power(0.5, scale=2.0)
        for rep in (estimate_E_t(3, 1, omega, 4, samples=10, seed=0),
                    ubiquity_density(2, 1, UbiquityConfig(2, 1, omega), 2, samples=10, seed=0),
                    ubiquity_quadrature(2, 1, UbiquityConfig(2, 1, omega), 2, resolution=4)):
            assert rep.params["omega"] == "pow:0.5,2.0"
            assert "omega_t" in rep.params or "rho_t" in rep.params
        bare = estimate_E_t(3, 1, lambda t: t, 4, samples=10, seed=0)
        assert bare.params["omega"] is None
        assert bare.hits == estimate_E_t(3, 1, OmegaFunction.power(1.0), 4, samples=10, seed=0).hits

    def test_ball_center_is_python_floats(self):
        cfg = UbiquityConfig(2, 1, OmegaFunction.power(1.0))
        for rep in (ubiquity_density(2, 1, cfg, 2, samples=10, seed=0, ball_center=(0.125, -0.125),
                                     ball_radius=0.125),
                    ubiquity_quadrature(2, 1, cfg, 2, resolution=4)):
            assert [type(c) for c in rep.params["ball_center"]] == [float, float]

    def test_sources_record_their_provenance(self):
        assert measure._seeded_source(10, 5, measure._uniform_draw(2))[3:] == (5, {}, {})
        assert measure._grid_source(2, 8)[3:] == (None, {"resolution": 8},
                                                  {"method": "midpoint-grid"})
        assert measure._kronecker_source(2, 10)[3:] == (None, {"kind": "kronecker"},
                                                        {"method": "kronecker"})

    def test_csv_row_is_the_fields(self):
        rep = ExperimentReport("demo", {}, None, 10, 3, parameter="t", parameter_value=2.0)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(reports_to_csv_rows([rep]))
        assert buf.getvalue().splitlines()[1] == \
            f"demo,t,2.0,0.3,{rep.stderr!r},3,10,,max-column-euclidean"


class TestIdentities:
    """Questions asked along different paths that agree exactly, by theory or
    by construction: oracles that need no tolerance."""

    @pytest.mark.usefixtures("lattice_only")
    @pytest.mark.parametrize("c, tau, n_min, q_max", [(1.0, 3.0, 2, 64), (0.3, 1.5, 4, 256),
                                                      (1.0, 2.0, 4, 32), (0.05, 2.0, 1, 1024)])
    def test_variety_at_2_2_is_the_base_at_2_1(self, c, tau, n_min, q_max):
        # an eta sample X = (x, a x) has |a| < 1/2, so |qX|_inf = |q.x|, and
        # the embedding's constant is 1 at m = 2; every block is reduced, and
        # the coefficient boxes of the two shapes differ
        xs = _sample_eta_batch(np.random.default_rng(int(tau * 10) + n_min), 4000, 2, 2)[0]
        psi = ApproximatingFunction.power(c, tau)
        full = batch_has_witness(xs, psi, n_min, q_max, 1.0)
        assert np.array_equal(full, batch_has_witness(xs[:, :, :1], psi, n_min, q_max, 1.0))
        assert 0 < full.sum() < len(xs)

    @pytest.mark.parametrize("m, n, q_max, t, rho_cap", [(2, 1, 256, 10, 64), (3, 1, 32, 7, 16),
                                                         (2, 2, 32, 6, 16), (3, 2, 16, 6, 8)])
    def test_row_sign_flips(self, m, n, q_max, t, rho_cap):
        # negating row i of X (with q_i) leaves every product of
        # form_columns bit-identical, so every engine mask is invariant
        rng = np.random.default_rng(300 + 10 * m + n)
        xs = rng.random((600, m, n)) - 0.5
        psi = ApproximatingFunction.power(0.5, (m + n) / n)
        one_block = [(1, 2 ** t - 1, dirichlet_bound(m, n, t) / 64)]
        rho_question = _rho_question(m, 0.3 * rho_cap ** (-m / n), rho_cap)

        def masks(x):
            return (batch_has_witness(x, psi, 2, q_max), _box_witness_mask(x, one_block),
                    _box_witness_mask(x, *rho_question))

        base = masks(xs)
        assert all(0 < mask.sum() < len(xs) for mask in base)
        for i in range(m):
            flipped = xs.copy()
            flipped[:, i] *= -1
            for mask, again in zip(base, masks(flipped)):
                assert np.array_equal(mask, again), i

    @pytest.mark.parametrize("m, n, t", [(2, 1, 12), (3, 1, 8), (3, 2, 8)])
    def test_one_block_is_the_dyadic_blocks(self, m, n, t):
        # the e-t question, one block (1, cap, b), against a constant
        # threshold b walked through dyadic blocks with warm starts
        xs = np.random.default_rng(400 + 10 * m + n).random((600, m, n)) - 0.5
        cap, bound = 2 ** t - 1, dirichlet_bound(m, n, t) / 64
        one = _box_witness_mask(xs, [(1, cap, bound)])
        constant = ApproximatingFunction.power(bound, 0.0, strict=False)
        assert np.array_equal(one, batch_has_witness(xs, constant, 1, cap))
        assert 0 < one.sum() < len(xs)

    def test_reductions_are_written_back(self):
        # a block leaves each sample's reduction in ``start`` for the next
        # block: a fixed point of the reduction, and not the identity
        xs = np.random.default_rng(410).random((50, 2, 1)) - 0.5
        start = np.tile(np.eye(2, dtype=np.int64), (50, 1, 1))
        measure._block_witness_mask(xs, start, 1, 1000, 1e-4, None)
        basis = lattice._box_basis(xs, 1000, 1e-4)
        assert np.array_equal(lattice._lll_transform(basis, start), start)
        assert not np.array_equal(start, np.tile(np.eye(2, dtype=np.int64), (50, 1, 1)))


@pytest.mark.parametrize("refused, cap", [
    (lambda: lattice._canonical_box((100,) * 4), lattice._BOX_CELL_CAP),
    (lambda: estimate_delta_t(2, 1, ApproximatingFunction.power(1.0, 1.0), 8, samples=10 ** 6),
     measure._SCAN_BUDGET),
    (lambda: lattice._rounding_prior(2, 1 << 30, 0.5, 1e-9), lattice._least_bound(2, 1 << 30, 0.5)),
    (lambda: estimate_E_t(3, 1, OmegaFunction.power(1.0), 18, samples=200, seed=0),
     lattice._ROUNDING_LIMIT),
    (lambda: truncated_box_count(2, 1, 2.0, 4, 2.0 ** -13), 12),
    (lambda: truncated_box_count(3, 1, 2.0, 100, 0.25), 64),
], ids=["box-cells", "scan", "least-bound", "rounding-limit", "box-level", "box-height"])
def test_budget_refusals_name_their_cap(refused, cap):
    with pytest.raises(BudgetExceededError) as info:
        refused()
    assert repr(cap) in str(info.value)
