"""Box-counting machinery: exact counts of dyadic grid boxes meeting
resonant-neighborhood unions, and the coupled-schedule slope estimator for
the dimension of the approximable set.

All box-slab intersection tests are interval arithmetic on the linear forms
(evaluate q . x over the box's interval hull per column), so counts are
exact and deterministic: no sampling inside boxes, no false negatives.

A slab gives, per outer row (all coordinates but the last), one range of
last-coordinate cells.  The ranges are computed only on the rows of the
positive orthant of the outer axes, every outer index in [w/2, w): the cell
edges are exact dyadic numbers, so negating q_i and mirroring axis i
reproduces the hull bit for bit.  A full height band is closed under those
sign flips, so the union count is 2^(m-1) times the orthant's, and
:func:`cover_count` and the (2, 2) masks get the other rows from the flipped
q.  At m = 3 a full band is also closed under swapping q_0 and q_1, and the
two-term hull sum commutes, so row (i1, i0) has the union of row (i0, i1):
the (3, 1) union paints only the triangle i0 <= i1 of the orthant and
weights each row 2 off the diagonal and 1 on it.

The estimator couples the height bound to the box side, Q(delta) with
Psi(Q) ~ delta, and counts the dyadic height band below Q at each scale:
the local structure of the limsup set at scale delta is produced by heights
near Psi^{-1}(delta), while the truncated union over *all* heights up to Q
is dominated by the thick low-height slabs (for power psi the height-1
neighborhood already swallows the cube) and its counts scale like the
ambient dimension instead.  Reports label results "box-dimension proxy".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .functions import ApproximatingFunction
from .lattice import band_vectors
from .series import dimension_formula

__all__ = [
    "GridSpec",
    "BoxDimReport",
    "cover_count",
    "truncated_box_count",
    "boxdim_estimate",
    "coupled_schedule",
]

# the supported shapes and their (level, height) caps, keeping bitmap memory and scan time sane
_SHAPE_CAPS = {(2, 1): (12, 512), (3, 1): (9, 64), (2, 2): (6, 16)}
# rows of w cells painted per block, so a block's buffer stays small
_ROW_BLOCK = 4096
# slab-row pairs whose ranges one call computes, so its arrays stay small
_PAIR_BLOCK = 1 << 14
# slabs painted into a block before its fully covered rows are first dropped
_FIRST_DROP = 256


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid of closed boxes of side 2^-level tiling the cube."""

    level: int
    dim: int

    def __post_init__(self):
        if self.level < 1:
            raise PreconditionError("grid level must be >= 1")
        if self.dim < 1:
            raise PreconditionError("grid dimension must be >= 1")

    @property
    def delta(self) -> float:
        return 2.0 ** -self.level

    @property
    def per_axis(self) -> int:
        return 1 << self.level

    @classmethod
    def from_delta(cls, delta, dim) -> "GridSpec":
        level = round(-math.log2(delta))
        if not (2.0 ** -level == delta and level >= 1):
            raise PreconditionError("box side must be a power of 1/2, at most 1/2")
        return cls(level, dim)


def _axis_edges(level):
    """Left edges of the 2^level cells of [-1/2, 1/2]."""
    w = 1 << level
    return np.arange(w) * (2.0 ** -level) - 0.5


def _cell_range(lo_bound, hi_bound, level):
    """Index range [j0, j1) of cells overlapping [lo, hi] on positive measure.

    Touching at a single boundary point does not count: a slab of half-width
    1/4 on a grid of side 1/4 covers two cells across, not four.
    """
    delta = 2.0 ** -level
    w = 1 << level
    # cell j = [j delta - 1/2, (j+1) delta - 1/2]; need (j+1) delta - 1/2 > lo
    # and j delta - 1/2 < hi, both strict
    j0 = np.floor((lo_bound + 0.5) / delta - 1.0).astype(np.int64)
    j0 += 1
    j1 = np.ceil((hi_bound + 0.5) / delta).astype(np.int64)
    np.minimum(np.maximum(j0, 0, out=j0), w, out=j0)
    np.minimum(j1, w, out=j1)
    return j0, np.maximum(j0, j1, out=j1)   # j0 >= 0 also clips j1 below


def _first_axis_blocks(start, stop, rows_per_cell):
    """First-axis cell ranges [a, b) tiling [start, stop), each spanning about
    ``_ROW_BLOCK`` rows when one first-axis cell holds ``rows_per_cell`` rows."""
    step = max(1, _ROW_BLOCK // rows_per_cell)
    return [(a, min(a + step, stop)) for a in range(start, stop, step)]


def _orthant_row_blocks(m, level, swap=False):
    """The outer rows of the positive orthant, every outer index in
    [w/2, w), in blocks of up to about ``_ROW_BLOCK`` rows: per block, one
    cell index array per outer axis (last axis fastest) and each row's weight.

    With ``swap`` (m = 3) only the triangle i0 <= i1 is generated, and a row
    stands for itself and for its swap (i1, i0): weight 2 off the diagonal
    and 1 on it.  Otherwise every row is generated with weight 1.
    """
    half = 1 << (level - 1)
    w = 2 * half
    for a, b in _first_axis_blocks(half, w, half ** (m - 2)):
        if swap:
            i0 = np.repeat(np.arange(a, b), np.arange(w - a, w - b, -1))
            i1 = np.concatenate([np.arange(i, w) for i in range(a, b)])
            yield [i0, i1], np.where(i0 < i1, 2, 1)
        else:
            shape = (b - a,) + (half,) * (m - 2)
            rows = [c.ravel() + off for c, off in zip(np.indices(shape), (a,) + (half,) * (m - 2))]
            yield rows, np.ones(len(rows[0]), dtype=np.int64)


def _outer_hull(qs, rows, level):
    """(K, R) interval hulls of q_0 x_0 + ... + q_{m-2} x_{m-2} for the K
    vectors ``qs`` over the R outer cells given by the per-axis indices
    ``rows``, summed from the last outer axis down.

    The cell edges are exact dyadic numbers, and mirroring axis i (index
    j -> w - 1 - j) negates them: the mirror's left edge is minus the right
    edge.  Rounding is symmetric under negation, so a q with q_i negated has
    on the mirrored cells the same products, hence the same hull, bit for bit.
    At m = 3 the hull adds two products, and float addition commutes, so q
    with q_0 and q_1 swapped has on cell (i1, i0) the hull of q on (i0, i1).
    """
    delta = 2.0 ** -level
    lo = hi = 0.0
    for axis in range(len(rows) - 1, -1, -1):
        left = rows[axis] * delta - 0.5
        qi = qs[:, axis, None]
        ends = qi * left, qi * (left + delta)
        lo = np.minimum(*ends) + lo
        hi = np.maximum(*ends) + hi
    return lo, hi


def _slab_ranges(qs, thresholds, level, rows):
    """(K, R) last-coordinate cell ranges [j0, j1) of the slabs
    |q.x| <= threshold of the K float vectors ``qs`` over the outer rows
    ``rows`` (per-axis index arrays of length R)."""
    outer_lo, outer_hi = _outer_hull(qs, rows, level)
    thr = thresholds[:, None]
    q_last = qs[:, -1:]
    zero = q_last[:, 0] == 0.0
    step = np.where(zero[:, None], 1.0, q_last)
    lo = (-thr - outer_hi) / step
    hi = (thr - outer_lo) / step
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    if zero.any():
        # a slab parallel to the last axis spans the whole row or none of it:
        # [-1, 1] contains the row's extent [-1/2, 1/2], [1, 1] misses it
        meets = (outer_lo[zero] < thr[zero]) & (outer_hi[zero] > -thr[zero])
        lo[zero] = np.where(meets, -1.0, 1.0)
        hi[zero] = 1.0
    return _cell_range(lo, hi, level)


def _outer_flips(q):
    """The 2^(m-1) sign patterns of q's outer coordinates, as float rows."""
    m = len(q)
    signs = 1 - 2 * ((np.arange(1 << (m - 1))[:, None] >> np.arange(m - 1)) & 1)
    return np.column_stack([signs * q[:-1], np.full(len(signs), q[-1])]).astype(float)


def cover_count(q, psi: ApproximatingFunction, delta) -> int:
    """Exact number of side-delta grid boxes meeting Delta(R_q, Psi(|q|)).

    The neighborhood is the n-fold product of the same m-dimensional slab
    {x : |q.x| <= Psi(|q|) |q|_2}, so the count is the m-dimensional slab
    count raised to the n-th power; n is implied as 1 here and the caller
    raises the power (see :func:`truncated_box_count` for unions).

    A row outside the positive orthant of the outer axes gets the ranges of
    its mirror row inside it under the q with those outer signs flipped, so
    the count sums the orthant ranges of the 2^(m-1) sign patterns.
    """
    q_arr = np.asarray(q, dtype=np.int64)
    if q_arr.ndim != 1 or not np.any(q_arr):
        raise PreconditionError("q must be a nonzero integer vector")
    spec = GridSpec.from_delta(delta, q_arr.size)
    height = int(np.max(np.abs(q_arr)))
    threshold = psi.big_psi(float(height)) * float(np.linalg.norm(q_arr.astype(float)))
    if q_arr.size == 1:
        half = threshold / abs(float(q_arr[0]))
        j0, j1 = _cell_range(np.array([-half]), np.array([half]), spec.level)
        return int(j1[0] - j0[0])
    flips = _outer_flips(q_arr)
    thresholds = np.full(len(flips), threshold)
    total = 0
    for rows, _ in _orthant_row_blocks(q_arr.size, spec.level):
        j0, j1 = _slab_ranges(flips, thresholds, spec.level, rows)
        total += int(np.sum(j1 - j0))
    return total


def _union_count_paint(m, level, qs, thresholds):
    """Boxes covered by the union of slabs, via per-row difference painting
    on the positive orthant of the outer axes, and at m = 3 on its triangle
    i0 <= i1.

    Preconditions, both held by a full height band of ``band_vectors`` with
    thresholds Psi(|q|) |q|_2 (up to +-q, which paints identically):

    * the slabs are closed under flipping the sign of any outer coordinate
      of q with the threshold unchanged.  Every row with an outer index
      below w/2 then has a mirror row in the orthant with the same union
      (see :func:`_outer_hull`), so the count is 2^(m-1) times the
      orthant's.  The last axis is not mirrored: rounding in
      :func:`_cell_range` is not symmetric about the center;
    * at m = 3, the slabs are closed under swapping q_0 and q_1 with the
      threshold bit for bit unchanged (the squared norm of a small integer
      vector is exact).  The two-term hull sum of :func:`_outer_hull`
      commutes, so row (i1, i0) under the swapped q has the ranges of row
      (i0, i1) under q, and the union on row (i1, i0) is the union on
      (i0, i1).  Only the triangle i0 <= i1 is painted; each row's covered
      cells count with its weight, 2 off the diagonal and 1 on it.

    The rows are painted in blocks of about ``_ROW_BLOCK`` rows into one
    flat int32 buffer of ``w + 1`` slots per row.  The ranges of a chunk of
    slabs, at most ``_PAIR_BLOCK`` slab-row pairs, come from one call of
    :func:`_slab_ranges` and are painted by one unbuffered ``np.add.at`` and
    one ``np.subtract.at``, which count an index as often as it repeats
    (slabs of one chunk may share a start); an empty range cancels itself.
    Each row's slots sum to zero, so one flat cumsum restarts at every row
    and its nonzero entries are exactly the covered cells.

    After ``_FIRST_DROP`` slabs, and again each time the slab count doubles,
    the rows already fully covered are counted, w cells times their weight,
    and dropped from the buffer; the later slabs paint only the rows still
    live.
    """
    w = 1 << level
    total = 0
    for rows, weights in _orthant_row_blocks(m, level, swap=m == 3):
        base = np.arange(len(weights), dtype=np.int64) * (w + 1)
        diff = np.zeros(len(base) * (w + 1), dtype=np.int32)
        check = _FIRST_DROP
        s = 0
        while s < len(qs):
            if s == check:
                check *= 2
                cover = np.cumsum(diff, dtype=np.int32).reshape(-1, w + 1)[:, :-1]
                full = np.all(cover > 0, axis=1)
                total += w * int(weights[full].sum())
                kept = np.flatnonzero(~full)
                rows = [r[kept] for r in rows]
                weights = weights[kept]
                diff = diff.reshape(-1, w + 1)[kept].ravel()
                base = base[: len(kept)]
                if not len(kept):
                    break
            stop = min(len(qs), check, s + max(1, _PAIR_BLOCK // len(base)))
            j0, j1 = _slab_ranges(qs[s:stop], thresholds[s:stop], level, rows)
            ones = np.ones(j0.size, dtype=np.int32)
            np.add.at(diff, (j0 + base).ravel(), ones)
            np.subtract.at(diff, (j1 + base).ravel(), ones)
            s = stop
        np.cumsum(diff, dtype=np.int32, out=diff)   # the buffer's last use
        total += int(np.count_nonzero(diff.reshape(-1, w + 1), axis=1) @ weights)
    return total << (m - 1)


def _column_masks(qs, thresholds, level):
    """Boolean (K, w, w) masks of the 2-dim cells meeting the slabs
    |q.x| <= thr; the rows below w/2 are the mirrored orthant rows of the
    q with its first coordinate negated."""
    w = 1 << level
    k = len(qs)
    both = np.concatenate([qs, qs * np.array([-1.0, 1.0])])
    j0, j1 = _slab_ranges(both, np.concatenate([thresholds, thresholds]), level,
                          [np.arange(w // 2, w)])
    j0 = np.concatenate([j0[k:, ::-1], j0[:k]], axis=1)
    j1 = np.concatenate([j1[k:, ::-1], j1[:k]], axis=1)
    cols = np.arange(w)
    return (cols >= j0[:, :, None]) & (cols < j1[:, :, None])


def _gamma_window(level):
    """Test of the 4-dim cells (i1, i2, i3, i4), index arrays that broadcast,
    whose interval determinant hull contains 0 (rank <= 1).

    det_lo <= 0 is tested as a_lo <= b_hi: for finite floats the rounded
    difference is zero only at equality and otherwise keeps its sign.
    """
    delta = 2.0 ** -level
    lo = _axis_edges(level)
    hi = lo + delta

    # axes (i1, i2, i3, i4) = (x11, x21, x12, x22); det = a - b, where
    # a = x11 x22 over the cells (i1, i4) and b = x12 x21 over (i3, i2) are
    # read from one table of the product intervals of two axis cells
    cands = np.stack([lo[:, None] * lo[None, :], lo[:, None] * hi[None, :],
                      hi[:, None] * lo[None, :], hi[:, None] * hi[None, :]])
    p_lo, p_hi = cands.min(axis=0), cands.max(axis=0)
    w = len(lo)

    def window(i1, i2, i3, i4):
        ka, kb = i1 * w + i4, i3 * w + i2   # flat indices of (i1, i4) and (i3, i2)
        return (np.take(p_lo, ka) <= np.take(p_hi, kb)) & (np.take(p_hi, ka) >= np.take(p_lo, kb))

    return window


def _product_union_count(masks, level, gamma_window):
    """Cells (i1, i2, i3, i4) with masks[s, i1, i2] & masks[s, i3, i4] for
    some slab s, restricted to :func:`_gamma_window` when ``gamma_window``.

    Over each block of i1 the product union is the 0/1 matrix product of the
    flattened masks: every entry is an exact small integer in float32 (it
    counts the slabs covering the cell), so "> 0" is the exact union for any
    summation order.  The window is tested only at the cells of the union.
    """
    w = 1 << level
    flat = np.array(masks, dtype=np.float32).reshape(len(masks), w * w)
    window = _gamma_window(level) if gamma_window else None
    total = 0
    for a, b in _first_axis_blocks(0, w, w * w):
        union = (flat[:, a * w:b * w].T @ flat).reshape(b - a, w, w, w) > 0
        if window is None:
            total += int(np.count_nonzero(union))
        else:
            cells = np.flatnonzero(union)   # (((i1 - a) w + i2) w + i3) w + i4, w = 2^level
            i2, i3, i4 = ((cells >> k * level) & (w - 1) for k in (2, 1, 0))
            total += int(np.count_nonzero(window((cells >> 3 * level) + a, i2, i3, i4)))
    return total


def truncated_box_count(m, n, tau, q_max, delta, h_min=1, gamma_window=None,
                        psi=None) -> int:
    """Grid boxes of side delta meeting the union of Psi-neighborhoods over
    h_min <= |q| <= q_max.

    For (2, 2) the union has the per-column product structure and the count
    is restricted to boxes meeting the rank <= 1 variety when
    ``gamma_window`` is true (the default for that shape).  ``psi`` defaults
    to the pure power law with exponent tau.
    """
    if (m, n) not in _SHAPE_CAPS:
        raise BudgetExceededError(f"box counting takes the shapes {sorted(_SHAPE_CAPS)}, not ({m}, {n})")
    spec = GridSpec.from_delta(delta, m * n)
    max_level, max_q = _SHAPE_CAPS[(m, n)]
    if spec.level > max_level:
        raise BudgetExceededError(f"level {spec.level} over the ({m}, {n}) budget {max_level}")
    if q_max > max_q:
        raise BudgetExceededError(f"height bound {q_max} over the ({m}, {n}) budget {max_q}")
    if h_min < 1 or h_min > q_max:
        raise PreconditionError("need 1 <= h_min <= q_max")
    if psi is None:
        psi = ApproximatingFunction.power(1.0, tau)
    if gamma_window is None:
        gamma_window = (m, n) == (2, 2)
    if gamma_window and (m, n) != (2, 2):
        raise PreconditionError("the variety window only applies to the (2, 2) shape")

    vecs, heights = band_vectors(m, h_min, q_max)
    norms = np.linalg.norm(vecs.astype(float), axis=1)
    thresholds = psi.big_psi(heights.astype(float)) * norms
    qs = vecs.astype(float)

    if n == 1:
        return _union_count_paint(m, spec.level, qs, thresholds)

    # (2, 2): per-column product of identical 2-dim slabs
    return _product_union_count(_column_masks(qs, thresholds, spec.level),
                                spec.level, gamma_window)


def coupled_schedule(m, n, tau, levels, band_ratio=1.2):
    """(q_max, delta, h_min) triples with Psi(Q) ~ delta along dyadic levels.

    Q(delta) = ceil(delta^(-1/(tau+1))) so each scale sees the heights whose
    neighborhood width matches the boxes; the counted band is
    (Q/band_ratio, Q].  The default ratio keeps the band narrow enough that
    the union stays visibly unsaturated at desk-scale refinements; wide bands
    (say the full dyadic octave) push the counts toward the ambient grid size
    and bias the fitted slope upward.
    """
    if not (math.isfinite(tau) and tau + 1.0 > 0):
        raise PreconditionError("tau must be finite with tau + 1 > 0")
    if not 1 < band_ratio < math.inf:
        raise PreconditionError("band ratio must be finite and exceed 1")
    out = []
    for level in levels:
        delta = 2.0 ** -level
        try:
            q = max(1, math.ceil(delta ** (-1.0 / (tau + 1.0)) - 1e-9))
        except OverflowError:
            raise BudgetExceededError(
                f"height bound for tau={tau} at level {level} overflows"
            ) from None
        h_min = max(1, math.floor(q / band_ratio) + 1)
        out.append((q, delta, h_min))
    return out


@dataclass(frozen=True)
class BoxDimReport:
    """Least-squares slope of log2 N(delta) against log2 1/delta."""

    m: int
    n: int
    tau: float
    slope: float
    intercept: float
    target: float
    residuals: tuple
    points: tuple          # (delta, q_max, h_min, count) per scale
    label: str = "box-dimension proxy"

    def max_residual(self) -> float:
        return max(abs(r) for r in self.residuals)


def boxdim_estimate(m, n, tau, schedule) -> BoxDimReport:
    """Fit the box-count scaling exponent along a coupled schedule.

    ``schedule`` holds at least 4 (q_max, delta, h_min) triples, as
    :func:`coupled_schedule` builds them; counts come from
    :func:`truncated_box_count` with its default window.  The report carries
    the theoretical dimension target for comparison, and its (m, n, tau,
    points) fix the run: the schedule is (q_max, delta, h_min) of each point.
    """
    entries = [(int(q_max), float(delta), int(h_min)) for q_max, delta, h_min in schedule]
    if len(entries) < 4:
        raise PreconditionError("schedule needs at least 4 scales")
    if len({d for _, d, _ in entries}) < 4:
        raise PreconditionError("schedule must vary the box side")

    points = []
    for q_max, delta, h_min in entries:
        count = truncated_box_count(m, n, tau, q_max, delta, h_min=h_min)
        points.append((delta, q_max, h_min, count))
    xs = np.array([math.log2(1.0 / d) for d, _, _, c in points])
    ys = np.array([math.log2(max(c, 1)) for _, _, _, c in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return BoxDimReport(
        m,
        n,
        float(tau),
        float(slope),
        float(intercept),
        dimension_formula(m, n, tau),
        tuple(float(r) for r in resid),
        tuple(points),
    )
