import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from smallforms import (
    ApproximatingFunction,
    BudgetExceededError,
    GridSpec,
    PreconditionError,
    boxdim_estimate,
    cover_count,
    truncated_box_count,
)
from smallforms import boxdim
from smallforms.boxdim import _cell_range, _gamma_window, coupled_schedule
from smallforms.search import band_vectors


def rasterize_union(q_list, thresholds, level, m):
    """Independent per-cell rasterizer: checks the q.x interval over every
    cell against each slab; strict positive-measure overlap."""
    w = 1 << level
    delta = 2.0 ** -level
    count = 0
    for cell in itertools.product(range(w), repeat=m):
        lo_corner = np.array(cell) * delta - 0.5
        hit = False
        for q, thr in zip(q_list, thresholds):
            qv = np.asarray(q, dtype=float)
            lo = sum(qq * (c if qq >= 0 else c + delta) for qq, c in zip(qv, lo_corner))
            hi = sum(qq * (c + delta if qq >= 0 else c) for qq, c in zip(qv, lo_corner))
            if lo < thr and hi > -thr:
                hit = True
                break
        count += hit
    return count


def dense_slab_masks(q_list, thresholds, level, m):
    """Independent dense rasterizer: per slab, the boolean (w,)*m mask of the
    cells whose q.x interval hull (corner sums over the whole cell) meets
    |q.x| < thr on positive measure."""
    w = 1 << level
    delta = 2.0 ** -level
    corner = np.arange(w) * delta - 0.5
    for q, thr in zip(q_list, thresholds):
        lo = hi = 0.0
        for axis, qi in enumerate(q):
            a, b = float(qi) * corner, float(qi) * (corner + delta)
            shape = [1] * m
            shape[axis] = w
            lo = lo + np.minimum(a, b).reshape(shape)
            hi = hi + np.maximum(a, b).reshape(shape)
        yield (lo < thr) & (hi > -thr)


def dense_union_count(q_list, thresholds, level, m):
    covered = np.zeros((1 << level,) * m, dtype=bool)
    for mask in dense_slab_masks(q_list, thresholds, level, m):
        covered |= mask
    return int(covered.sum())


def full_row_union_count(m, level, q_rows, thresholds, row_block=4096, first_drop=256):
    """Every-row union count of the slabs |q.x| <= thr: the painter that
    preceded the orthant cut, kept as the oracle of ``truncated_box_count``.

    Each slab gives one last-coordinate range [j0, j1) per outer row (all
    coordinates but the last), painted into a flat int32 difference buffer
    per block of about ``row_block`` rows; fully covered rows drop out after
    ``first_drop`` slabs and at each doubling of the slab count.
    """
    w = 1 << level
    step = max(1, row_block // w ** (m - 2))
    total = 0
    for a in range(0, w, step):
        b = min(a + step, w)
        live = None
        base = np.arange((b - a) * w ** (m - 2), dtype=np.int64) * (w + 1)
        diff = np.zeros(len(base) * (w + 1), dtype=np.int32)
        check = first_drop
        for s, (q, thr) in enumerate(zip(q_rows, thresholds)):
            if s == check:
                check *= 2
                cover = np.cumsum(diff, dtype=np.int32).reshape(-1, w + 1)[:, :-1]
                full = np.all(cover > 0, axis=1)
                total += w * int(np.count_nonzero(full))
                kept = np.flatnonzero(~full)
                live = kept if live is None else live[kept]
                diff = diff.reshape(-1, w + 1)[kept].ravel()
                base = base[: len(kept)]
                if not len(kept):
                    break
            j0, j1 = full_row_ranges(q, thr, level, a, b, live)
            diff[base + j0] += 1
            diff[base + j1] -= 1
        total += int(np.count_nonzero(np.cumsum(diff, dtype=np.int32)))
    return total


def full_row_ranges(q, threshold, level, a, b, rows=None):
    """Last-coordinate ranges [j0, j1) of the slab |q.x| <= threshold over
    every outer row whose first cell index lies in [a, b), or the ``rows``
    of them; the outer hull is the broadcast sum of per-axis cell
    contributions, summed from the last outer axis down."""
    w = 1 << level
    left = np.arange(w) * (2.0 ** -level) - 0.5
    right = left + 2.0 ** -level
    lo = hi = None
    for axis in range(len(q) - 2, -1, -1):
        qi = float(q[axis])
        lo_c, hi_c = (qi * left, qi * right) if qi >= 0 else (qi * right, qi * left)
        if axis == 0:
            lo_c, hi_c = lo_c[a:b], hi_c[a:b]
        if lo is None:
            lo, hi = lo_c, hi_c
        else:
            lo = (lo_c[:, None] + lo[None, :]).ravel()
            hi = (hi_c[:, None] + hi[None, :]).ravel()
    if rows is not None:
        lo, hi = lo[rows], hi[rows]
    q_last = float(q[-1])
    if q_last == 0.0:
        meets = (lo < threshold) & (hi > -threshold)
        return np.zeros(len(lo), dtype=np.int64), np.where(meets, w, 0).astype(np.int64)
    lo_j = (-threshold - hi) / q_last
    hi_j = (threshold - lo) / q_last
    return _cell_range(np.minimum(lo_j, hi_j), np.maximum(lo_j, hi_j), level)


def dense_gamma_mask(level):
    """4-dim cells (x11, x21, x12, x22) whose determinant interval
    [min x11 x22 - max x12 x21, max x11 x22 - min x12 x21] contains 0."""
    w = 1 << level
    delta = 2.0 ** -level
    lo = np.arange(w) * delta - 0.5
    ends = np.stack([lo, lo + delta])                        # (2, w)
    prods = ends[:, None, :, None] * ends[None, :, None, :]  # (2, 2, w, w)
    p_lo, p_hi = prods.min(axis=(0, 1)), prods.max(axis=(0, 1))
    x11_x22_lo = p_lo[:, None, None, :]                     # axes (i1, i4)
    x11_x22_hi = p_hi[:, None, None, :]
    x12_x21_lo = p_lo.T[None, :, :, None]                   # axes (i3, i2)
    x12_x21_hi = p_hi.T[None, :, :, None]
    return (x11_x22_lo - x12_x21_hi <= 0.0) & (x11_x22_hi - x12_x21_lo >= 0.0)


def gamma_mask_2x2(level, start=0, stop=None):
    """Dense :func:`smallforms.boxdim._gamma_window` over the first-axis
    cells [start, stop) (all of them by default)."""
    w = 1 << level
    return _gamma_window(level)(*np.ogrid[start:w if stop is None else stop, :w, :w, :w])


def band_slabs(psi, m, h_min, q_max):
    vecs, heights = band_vectors(m, h_min, q_max)
    thresholds = psi.big_psi(heights.astype(float)) * np.linalg.norm(vecs.astype(float), axis=1)
    return [tuple(int(v) for v in q) for q in vecs], thresholds


def psi_with_width(width_at, height, tau=1.0):
    """Power-family psi so the neighborhood width Psi(height) equals width_at."""
    c = width_at * height ** (tau + 1.0) / 1.0
    return ApproximatingFunction.power(c, tau)


class TestCoverCount:
    def test_axis_slab_arithmetic(self):
        # width 1/4 slab around x1 = 0 on a 4x4 grid: 2 cells across, 4 along
        psi = psi_with_width(0.25, 1)
        assert cover_count([1, 0], psi, 0.25) == 8

    def test_full_cover(self):
        psi = psi_with_width(1.0, 1)
        assert cover_count([1, 0], psi, 0.25) == 16
        assert cover_count([1, 0], psi, 2.0 ** -5) == 4 ** 5

    @pytest.mark.parametrize("q, c, tau", [((1,), 0.25, 1.0), ((-3,), 0.3, 1.5), ((7,), 2.0, 0.5)])
    def test_one_dimensional_slab_matches_brute_count(self, q, c, tau):
        # m = 1: the slab |q x| <= Psi(|q|) |q|_2 is an interval of half-width
        # Psi(|q|); a cell counts when it meets it on positive measure, not
        # at an edge alone
        psi = ApproximatingFunction.power(c, tau)
        k = abs(q[0])
        half = psi.big_psi(float(k)) * k / k   # as rounded from Psi |q|_2
        for level in range(1, 9):
            delta = 2.0 ** -level
            brute = sum(1 for j in range(1 << level)
                        if (j + 1) * delta - 0.5 > -half and j * delta - 0.5 < half)
            assert cover_count(q, psi, delta) == brute, level

    def test_tilted_slab_matches_independent_rasterizer(self):
        q = (2, 3)
        psi = psi_with_width(1.0 / 16.0, 3)
        for level in (4, 5, 6):
            thr = psi.big_psi(3.0) * math.hypot(2, 3)
            expected = rasterize_union([q], [thr], level, 2)
            assert cover_count(q, psi, 2.0 ** -level) == expected

    def test_tilted_slab_count_near_matched_scale(self):
        # at delta = Psi(|q|) the count stays within a small factor of 1/Psi
        q = (2, 3)
        psi = psi_with_width(1.0 / 16.0, 3)
        count = cover_count(q, psi, 1.0 / 16.0)
        assert 16 <= count <= 4 * 16

    def test_symmetry_under_negation_and_permutation(self):
        psi = ApproximatingFunction.power(0.7, 1.3)
        rng = np.random.default_rng(2)
        for _ in range(25):
            q = tuple(int(v) for v in rng.integers(-6, 7, size=2))
            if not any(q):
                continue
            c = cover_count(q, psi, 2.0 ** -5)
            assert cover_count([-q[0], -q[1]], psi, 2.0 ** -5) == c
            assert cover_count([q[1], q[0]], psi, 2.0 ** -5) == c

    def test_matched_scale_band_over_random_heights(self):
        # count * Psi stays inside a fixed band at delta = Psi(|q|) over 100
        # random q with heights in [2, 64]
        psi = ApproximatingFunction.power(1.0, 1.0)
        rng = np.random.default_rng(3)
        ratios = []
        while len(ratios) < 100:
            q = tuple(int(v) for v in rng.integers(-64, 65, size=2))
            h = max(abs(v) for v in q) if any(q) else 0
            if h < 2:
                continue
            width = psi.big_psi(float(h))
            level = max(1, round(-math.log2(width)))
            count = cover_count(q, psi, 2.0 ** -level)
            ratios.append(count * width)
        assert 0.5 <= min(ratios) and max(ratios) <= 12.0


    def test_higher_dim_slabs_match_independent_rasterizer(self):
        # m = 4 at level 5 has 32^3 rows: several row blocks
        psi = ApproximatingFunction.power(0.05, 1.5)
        level = 5
        for q in [(1, 0, 0), (0, 0, 1), (2, -3, 0), (1, -2, 3), (-3, 1, -1), (0, 2, -1),
                  (1, -2, 0, 3), (2, 1, -1, 0)]:
            height = max(abs(v) for v in q)
            thr = psi.big_psi(float(height)) * math.sqrt(sum(v * v for v in q))
            expected = dense_union_count([q], [thr], level, len(q))
            assert 0 < expected < (1 << level) ** len(q)
            assert cover_count(q, psi, 2.0 ** -level) == expected


class TestUnionEngine:
    """The blocked union engine against the dense rasterizer above: several
    row blocks, the covered-row drop-out, slabs with last coordinate 0 and
    with negative entries."""

    def test_three_dim_union_over_several_row_blocks(self):
        m, level = 3, 7
        psi = ApproximatingFunction.power(0.01, 1.5)
        assert (1 << level) ** (m - 1) > boxdim._ROW_BLOCK
        qs, thr = band_slabs(psi, m, 1, 2)
        assert any(q[-1] == 0 for q in qs) and any(min(q) < 0 for q in qs)
        expected = dense_union_count(qs, thr, level, m)
        assert 0 < expected < (1 << level) ** m
        assert truncated_box_count(m, 1, 1.5, 2, 2.0 ** -level, psi=psi) == expected

    @pytest.mark.parametrize("m, c, tau, h_min, q_max, level", [
        (2, 0.1, 0.5, 5, 12, 7),    # 59% of the rows fully covered
        (3, 0.03, 1.5, 2, 2, 6),    # 46%
        (3, 0.01, 3.0, 1, 3, 6),    # 99.4%
        (3, 0.1, 1.5, 2, 3, 6),     # every row: the block empties
    ])
    def test_small_blocks_and_row_dropout(self, monkeypatch, m, c, tau, h_min, q_max, level):
        # tiny blocks and an early first drop exercise every branch of the
        # paint on grids the dense rasterizer affords
        monkeypatch.setattr(boxdim, "_ROW_BLOCK", 64)
        monkeypatch.setattr(boxdim, "_FIRST_DROP", 4)
        monkeypatch.setattr(boxdim, "_PAIR_BLOCK", 256)
        painted, chunks = [], []
        ranges = boxdim._slab_ranges

        def spy(qs, thresholds, level, rows):
            j0, j1 = ranges(qs, thresholds, level, rows)
            chunks.append(j0.shape[0])
            painted.append(j0.shape[1])
            return j0, j1

        monkeypatch.setattr(boxdim, "_slab_ranges", spy)
        psi = ApproximatingFunction.power(c, tau)
        qs, thr = band_slabs(psi, m, h_min, q_max)
        expected = dense_union_count(qs, thr, level, m)
        got = truncated_box_count(m, 1, tau, q_max, 2.0 ** -level, h_min=h_min, psi=psi)
        assert got == expected
        assert min(painted) < 64 <= max(painted)   # some rows were dropped
        assert max(chunks) > 1                     # one call ranged several slabs

    @pytest.mark.parametrize("m", [2, 3])
    def test_orthant_count_matches_full_row_oracle(self, m):
        # random bands at every level 1..8 (level 1 has one orthant cell per
        # axis), a third of them from height 1 so that q with a zero last
        # coordinate are painted, and a non-power psi for another third; the
        # widths scale with the cells, yet every slab crosses the coarse grids,
        # so only the finer levels leave the union partial
        rng = np.random.default_rng(15 + m)
        cap = {2: 24, 3: 4}[m]
        partial = 0
        for level in range(1, 9):
            for k in range(3):
                q_max = int(rng.integers(1, cap + 1))
                h_min = 1 if k == 0 else int(rng.integers(1, q_max + 1))
                tau = float(rng.uniform(0.5, 3.0))
                c = float(rng.uniform(0.02, 0.5)) * 2.0 ** -level * h_min ** tau
                psi = (ApproximatingFunction.power_log(c, tau, 2.0) if k == 2
                       else ApproximatingFunction.power(c, tau))
                qs, thr = band_slabs(psi, m, h_min, q_max)
                expected = full_row_union_count(m, level, qs, thr)
                got = truncated_box_count(m, 1, tau, q_max, 2.0 ** -level, h_min=h_min, psi=psi)
                assert got == expected, (level, h_min, q_max, psi)
                partial += 0 < got < (1 << level) ** m
        assert partial >= 8
        assert any(q[-1] == 0 for q in band_slabs(psi, m, 1, 1)[0])

    def test_column_masks_match_dense_rasterizer(self):
        psi = ApproximatingFunction.power_log(0.2, 2.0, 1.0)
        qs, thr = band_slabs(psi, 2, 1, 5)
        for level in range(1, 7):
            masks = boxdim._column_masks(np.array(qs, dtype=float), thr, level)
            assert np.array_equal(masks, np.stack(list(dense_slab_masks(qs, thr, level, 2))))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_outer_flip_mirrors_the_hull(self, m):
        # negating outer coordinate i and mirroring the cells along axis i
        # (j -> w - 1 - j) gives the same hull bit for bit: the precondition
        # of the orthant count
        rng = np.random.default_rng(m)
        for level in (1, 3, 5):
            w = 1 << level
            rows = [r.ravel() for r in np.indices((w,) * (m - 1))]
            qs = rng.integers(-64, 65, size=(20, m)).astype(float)
            qs[::4, 1 % (m - 1)] = 0.0
            lo, hi = boxdim._outer_hull(qs, rows, level)
            for axis in range(m - 1):
                flipped = qs.copy()
                flipped[:, axis] *= -1
                mirrored = list(rows)
                mirrored[axis] = w - 1 - rows[axis]
                f_lo, f_hi = boxdim._outer_hull(flipped, mirrored, level)
                assert np.array_equal(f_lo.view(np.int64), lo.view(np.int64))
                assert np.array_equal(f_hi.view(np.int64), hi.view(np.int64))

    @pytest.mark.parametrize("gamma_window", [True, False])
    @pytest.mark.parametrize("h_min, q_max, level", [(2, 3, 4), (2, 3, 5), (3, 3, 5)])
    def test_product_union_matches_dense_rasterizer(self, gamma_window, h_min, q_max, level):
        psi = ApproximatingFunction.power(1.0, 3.0)
        qs, thr = band_slabs(psi, 2, h_min, q_max)
        w = 1 << level
        union = np.zeros((w,) * 4, dtype=bool)
        for mask in dense_slab_masks(qs, thr, level, 2):
            union |= mask[:, :, None, None] & mask[None, None, :, :]
        if gamma_window:
            union &= dense_gamma_mask(level)
        expected = int(union.sum())
        assert 0 < expected < w ** 4
        got = truncated_box_count(2, 2, 3.0, q_max, 2.0 ** -level, h_min=h_min,
                                  gamma_window=gamma_window)
        assert got == expected

    def test_gamma_mask_blocks_match_dense(self):
        level = 4
        dense = dense_gamma_mask(level)
        assert np.array_equal(gamma_mask_2x2(level), dense)
        assert np.array_equal(gamma_mask_2x2(level, 3, 7), dense[3:7])

    def test_counts_match_benchmark_references(self):
        # the exact counts that the benchmark's boxdim part checks; the
        # schedules are those of perfbench/workloads.py (BOXDIM_SCHEDULES)
        schedules = {
            "2x1_tau0.5": (2, 1, 0.5, range(4, 11)),
            "3x1_tau1.5": (3, 1, 1.5, range(4, 8)),
            "3x1_tau3": (3, 1, 3.0, range(4, 9)),
            "2x2_tau3": (2, 2, 3.0, range(3, 7)),
        }
        path = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
        refs = json.loads(path.read_text())["boxdim"]["outputs"]
        assert set(refs) == set(schedules)
        for label, (m, n, tau, levels) in schedules.items():
            counts = [truncated_box_count(m, n, tau, q_max, delta, h_min=h_min)
                      for q_max, delta, h_min in coupled_schedule(m, n, tau, levels)]
            assert counts == refs[label], label


class TestTruncatedCount:
    def test_height_one_union_matches_rasterizer(self):
        tau = 3.0
        psi = ApproximatingFunction.power(0.125, tau)
        level = 5
        qs = [(0, 1), (1, -1), (1, 0), (1, 1)]
        thr = [psi.big_psi(1.0) * np.linalg.norm(q) for q in qs]
        expected = rasterize_union(qs, thr, level, 2)
        got = truncated_box_count(2, 1, tau, 1, 2.0 ** -level, psi=psi)
        assert got == expected

    def test_huge_decay_approaches_hyperplane_union(self):
        # at tau = 50 the heights >= 2 contribute hairline slabs around the
        # resonant hyperplanes; refining the grid doubles the count
        n_coarse = truncated_box_count(2, 1, 50.0, 3, 2.0 ** -6, h_min=2)
        n_fine = truncated_box_count(2, 1, 50.0, 3, 2.0 ** -7, h_min=2)
        assert n_fine == pytest.approx(2 * n_coarse, rel=0.2)

    def test_subadditive_in_cover_counts(self):
        tau = 2.0
        psi = ApproximatingFunction.power(1.0, tau)
        level = 6
        total = truncated_box_count(2, 1, tau, 3, 2.0 ** -level, h_min=2, psi=psi)
        from smallforms.search import band_vectors

        vecs, _ = band_vectors(2, 2, 3)
        sum_parts = sum(cover_count(tuple(q), psi, 2.0 ** -level) for q in vecs)
        assert total <= sum_parts

    def test_refinement_monotonicity(self):
        counts = [truncated_box_count(2, 1, 2.0, 4, 2.0 ** -lv) for lv in (4, 5, 6)]
        assert counts[0] <= counts[1] <= counts[2]

    def test_budget_guards(self):
        with pytest.raises(BudgetExceededError):
            truncated_box_count(2, 1, 2.0, 1000, 0.25)
        with pytest.raises(BudgetExceededError):
            truncated_box_count(2, 1, 2.0, 4, 2.0 ** -13)
        with pytest.raises(BudgetExceededError):
            truncated_box_count(3, 2, 2.0, 4, 0.25)

    def test_gamma_window_shrinks_counts(self):
        full = truncated_box_count(2, 2, 3.0, 2, 2.0 ** -4, gamma_window=False)
        windowed = truncated_box_count(2, 2, 3.0, 2, 2.0 ** -4, gamma_window=True)
        assert 0 < windowed <= full

    def test_gamma_mask_contains_rank_deficient_cells(self):
        mask = gamma_mask_2x2(3)
        # the all-zero matrix cell (center block) is rank deficient
        c = (1 << 3) // 2
        assert mask[c, c, c, c]
        # a cell hull far from the variety is excluded: X ~ diag(0.4, 0.4)
        hi = int((0.4 + 0.5) * 8)
        assert not mask[hi, c, c, hi]


class TestBoxDimEstimate:
    def test_schedule_validation(self):
        with pytest.raises(PreconditionError):
            boxdim_estimate(2, 1, 2.0, [(2, 0.25)])
        with pytest.raises(PreconditionError):
            boxdim_estimate(2, 1, 2.0, [(2, 0.25)] * 4)

    def test_smoke_slope_near_target(self):
        sched = coupled_schedule(2, 1, 2.0, range(4, 9))
        rep = boxdim_estimate(2, 1, 2.0, sched)
        assert rep.target == pytest.approx(5 / 3)
        assert 1.3 <= rep.slope <= 2.0
        assert rep.label == "box-dimension proxy"
        assert len(rep.points) == 5

    @pytest.mark.parametrize("tau, band_ratio", [
        (math.nan, 1.2), (-1.0, 1.2), (-3.0, 1.2), (math.inf, 1.2),
        (2.0, math.nan), (2.0, math.inf), (2.0, 1.0),
    ])
    def test_coupled_schedule_rejects_bad_input(self, tau, band_ratio):
        with pytest.raises(PreconditionError):
            coupled_schedule(2, 1, tau, range(4, 8), band_ratio)

    def test_coupled_schedule_overflow_is_a_budget_error(self):
        with pytest.raises(BudgetExceededError):
            coupled_schedule(2, 1, -0.999, range(4, 8))

    def test_coupled_schedule_matches_width(self):
        for q_max, delta, h_min in coupled_schedule(2, 1, 2.0, range(4, 10)):
            # Psi(Q) <= delta < Psi(Q - 1) approximately: Q = ceil(delta^(-1/3))
            assert q_max == math.ceil(delta ** (-1 / 3) - 1e-9)
            assert 1 <= h_min <= q_max


class TestGridSpec:
    def test_dyadic_enforced(self):
        with pytest.raises(PreconditionError):
            GridSpec.from_delta(0.3, 2)
        spec = GridSpec.from_delta(0.125, 2)
        assert spec.level == 3 and spec.per_axis == 8
