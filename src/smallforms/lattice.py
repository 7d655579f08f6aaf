"""The one enumeration of integer vectors and the lattice box engine.

Canonical integer vectors are one of each +-q, first nonzero coordinate
positive.  :func:`_canonical_box` is the only box builder and cell-cap check;
:func:`_ball` caches the q with 0 < |q|_inf <= h in (height, lex) order, which
:func:`band_vectors` slices; :func:`_height_blocks` is the one dyadic cut.

The q with |q|_inf <= cap and |qX|_inf < bound are the points in the unit
cube of the lattice with basis rows (e_i / cap, x_i / bound).  The basis is
LLL-reduced (Lenstra, Lenstra & Lovász 1982), by numpy for a stack, in plain
Python for one, and the coefficients within the dual-norm bounds of Fincke &
Pohst (1985) give candidates that hold every answer; the caller decides each.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, PreconditionError

_BOX_CELL_CAP = 40_000_000      # hard cap keeping enumeration arrays at desk scale
_LLL_DELTA = 0.99               # Lovász constant of the reductions
_LLL_PASSES = 10_000            # pass cap of a reduction, against cycling under rounding
_ROUNDING_LIMIT = 0.25          # largest rounding bound the box engine answers under
_FLOOR_MARGIN = 64              # a bound floor over the least bound the a priori guard accepts
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# the one enumeration: canonical boxes, height balls and dyadic blocks
# ---------------------------------------------------------------------------

def _canonical_rows(box):
    """Rows whose first nonzero coordinate is positive; a zero row is not one."""
    keep = np.zeros(len(box), dtype=bool)
    undecided = np.ones(len(box), dtype=bool)   # all coordinates so far zero
    for column in box.T:
        keep |= undecided & (column > 0)
        undecided &= column == 0
    return keep


def _canonical_box(bounds):
    """Canonical nonzero q (one of each +-q) with |q_i| <= bounds[i], shape
    (P, len(bounds)), lexicographically ascending and read-only.  The only
    builder of integer boxes, so the only place the cell cap is checked."""
    if (cells := math.prod(2 * k + 1 for k in bounds)) > _BOX_CELL_CAP:
        raise BudgetExceededError(f"integer box {tuple(bounds)}: {cells} cells over the cap {_BOX_CELL_CAP}")
    if not bounds:
        box = np.zeros((0, 0), dtype=np.int64)
    else:
        axes = [np.arange(-k, k + 1, dtype=np.int64) for k in bounds]
        grids = np.meshgrid(*axes, indexing="ij", copy=False)   # views: one copy, in the stack
        box = np.stack(grids, axis=-1).reshape(-1, len(bounds))
        box = box[_canonical_rows(box)]
    box.flags.writeable = False
    return box


# the coefficient boxes c of the reduced bases, one of each +-c
_coefficient_box = lru_cache(maxsize=256)(_canonical_box)


@lru_cache(maxsize=64)
def _ball(m, h):
    """(vectors, heights) of the canonical q with 0 < |q|_inf <= h in
    (height, lex) order, both read-only; m = 0 gives empty arrays."""
    box = _canonical_box((h,) * m)
    heights = np.abs(box).max(axis=1, initial=0)
    order = np.argsort(heights, kind="stable")
    vecs, heights = box[order], heights[order]
    vecs.flags.writeable = heights.flags.writeable = False
    return vecs, heights


def band_vectors(m, h_lo, h_hi):
    """Canonical vectors with h_lo <= |q|_inf <= h_hi in (height, lex) order.

    Returns read-only (vectors, heights), a slice of the cached height ball
    of radius h_hi.  Raises :class:`BudgetExceededError` when the ball is too
    large to materialize.
    """
    if h_lo < 1 or h_hi < h_lo:
        raise PreconditionError("need 1 <= h_lo <= h_hi")
    vecs, heights = _ball(m, h_hi)
    start = int(np.searchsorted(heights, h_lo))
    return vecs[start:], heights[start:]


def _height_blocks(lo, hi):
    """Dyadic height blocks [a, 2a - 1] from a = lo while the next one fits
    whole, then one last block up to hi (less than 4a)."""
    blocks = []
    while 4 * lo - 1 <= hi:
        blocks.append((lo, 2 * lo - 1))
        lo *= 2
    return blocks + [(lo, hi)]


# ---------------------------------------------------------------------------
# the box engine: basis, reduction, coefficient box
# ---------------------------------------------------------------------------

def _least_bound(m, height_cap, x_max):
    """The least bound the box engine answers under at this height:
    (m + 2) eps cap max|x|, how far an exact |q.x_j| may exceed its rounded
    value, over ``_ROUNDING_LIMIT``."""
    return (m + 2) * _EPS * height_cap * x_max / _ROUNDING_LIMIT


def _bound_floor(m, height_cap, x_max):
    """A bound at which a box question at this height passes both rounding
    guards: ``_FLOOR_MARGIN`` times :func:`_least_bound`, so prior = 1/256.
    Asked there, rho of the reduced basis came to at most 6 priors (0.024)
    over 2,100 random, decimal and dyadic x of seven shapes up to (4, 2) and
    (2, 3), against the 64 priors the limit allows."""
    return _FLOOR_MARGIN * _least_bound(m, height_cap, x_max)


def _rounding_prior(m, height_cap, x_max, bound):
    """prior = (m + 2) eps cap max|x| / bound bounds, relative to the bound, how
    far an exact |q.x_j| may exceed its rounded value; below
    :func:`_least_bound`, :class:`BudgetExceededError`."""
    least = _least_bound(m, height_cap, x_max)
    if least > bound:   # compared unscaled: a tiny bound must not overflow
        raise BudgetExceededError(
            f"bound {bound!r} at height {height_cap} is below the least bound {least!r} the "
            "lattice basis rounds under; this box question is out of reach in double precision")
    return _ROUNDING_LIMIT * least / bound


def _box_basis(xs, height_cap, bound):
    """Rows (e_i / cap, x_i / bound) of one x (m, n) or of a stack (S, m, n)."""
    m = xs.shape[-2]
    scaled = np.broadcast_to(np.eye(m) / height_cap, xs.shape[:-1] + (m,))
    return np.concatenate([scaled, xs / bound], axis=-1)


def _gram_schmidt(b):
    """Gram-Schmidt coefficients mu (unit diagonal) and squared norms |b_i*|^2
    of the rows of every basis in the stack ``b`` (S, m, d)."""
    S, m, _ = b.shape
    mu = np.zeros((S, m, m))
    star = np.empty_like(b)
    norms = np.empty((S, m))
    for i in range(m):
        v = b[:, i].copy()
        for j in range(i):  # modified Gram-Schmidt
            mu[:, i, j] = np.einsum("sd,sd->s", v, star[:, j]) / norms[:, j]
            v -= mu[:, i, j, None] * star[:, j]
        star[:, i], norms[:, i], mu[:, i, i] = v, np.einsum("sd,sd->s", v, v), 1.0
    return mu, norms


def _lll_transform(basis, U):
    """Unimodular int64 U (S, m, m) such that the rows of U @ basis are
    LLL-reduced (Lovász constant ``_LLL_DELTA``), for a stack (S, m, d),
    starting from the unimodular stack ``U`` (a warm start).

    Every pass rebuilds the bases from U, size-reduces them and swaps each
    basis's first pair that fails the Lovász condition; a basis leaves once
    none does.  U changes only by integer row operations, so rounding can
    only weaken the reduction; ``_LLL_PASSES`` bounds the passes.
    """
    S, m, _ = basis.shape
    U = U.copy()
    live = np.arange(S if m > 1 else 0)
    for _ in range(_LLL_PASSES):
        if live.size == 0:
            break
        u = U[live]
        mu, norms = _gram_schmidt(u.astype(float) @ basis[live])
        for i in range(1, m):
            for j in range(i - 1, -1, -1):
                r = np.rint(mu[:, i, j])
                u[:, i] -= r.astype(np.int64)[:, None] * u[:, j]
                mu[:, i, : j + 1] -= r[:, None] * mu[:, j, : j + 1]
        sub = np.arange(1, m)
        bad = norms[:, 1:] < (_LLL_DELTA - mu[:, sub, sub - 1] ** 2) * norms[:, :-1]
        swap = np.nonzero(bad.any(axis=1))[0]
        k = np.argmax(bad[swap], axis=1) + 1
        u[swap, k - 1], u[swap, k] = u[swap, k], u[swap, k - 1].copy()
        U[live] = u
        live = live[swap]
    return U


def _lll_one(basis, U):
    """:func:`_lll_transform` of one basis (m, d) from U (m, m), its passes
    on Python lists: on a stack of one, numpy's per-call cost dominates."""
    m = len(basis)
    U = U.tolist()
    for _ in range(_LLL_PASSES):
        mu, star, norms = [[1.0] * m for _ in range(m)], [], []   # unit diagonal
        for i, v in enumerate((np.array(U, dtype=float) @ basis).tolist()):
            for j in range(i):  # modified Gram-Schmidt
                mu[i][j] = sum(a * s for a, s in zip(v, star[j])) / norms[j]
                v = [a - mu[i][j] * s for a, s in zip(v, star[j])]
            star.append(v)
            norms.append(sum(a * a for a in v))
        for i in range(1, m):
            for j in range(i - 1, -1, -1):
                r = round(mu[i][j])
                if r:
                    U[i] = [a - r * b for a, b in zip(U[i], U[j])]
                    mu[i][: j + 1] = [a - r * b for a, b in zip(mu[i], mu[j][: j + 1])]
        bad = [k for k in range(1, m) if norms[k] < (_LLL_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]]
        if not bad:
            break
        U[bad[0] - 1], U[bad[0]] = U[bad[0]], U[bad[0] - 1]
    return np.array(U, dtype=np.int64).reshape(m, m)


def _coefficient_bounds(basis, U, prior):
    """Bounds (S, m) of the coefficient boxes of the reduced bases U @ basis
    (S, m, m + n) of box questions with the rounding bound ``prior``.

    The ball of radius r = sqrt(m + n) (1 + prior) holds every q whose
    rounded |q.x_j| is below the bound; rounding can add candidates but not
    drop them.  B' is rebuilt from U with row errors
    e_k <= (m + 2) eps |(|U| |B|)_k|, so every c of the ball has
    |c_i| <= r |d_i| / (1 - rho), rho = sum_k e_k |d_k| (each |c_i| / |d_i|
    is at most r plus rho times the largest of them).  The computed dual
    norms carry a relative error below s = 2 (m + n + 2) eps
    (sum_k |b'_k| |d_k|)^2, which LLL keeps small.  The radius is widened by
    both; where rho or s pass ``_ROUNDING_LIMIT``, :class:`BudgetExceededError`.
    """
    S, m, d = basis.shape
    reduced = U.astype(float) @ basis
    gram = reduced @ reduced.transpose(0, 2, 1)
    dual_norms = np.sqrt(np.diagonal(np.linalg.inv(gram), axis1=1, axis2=2))
    row_norms = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    rebuild_err = (m + 2) * _EPS * np.linalg.norm(np.abs(U) @ np.abs(basis), axis=2)
    rho = (rebuild_err * dual_norms).sum(axis=1)
    slack = 2 * (d + 2) * _EPS * (row_norms * dual_norms).sum(axis=1) ** 2
    if max(rho.max(), slack.max()) > _ROUNDING_LIMIT:
        raise BudgetExceededError(
            f"rounding bounds rho {rho.max():.3g}, slack {slack.max():.3g} of the reduced bases "
            f"pass the limit {_ROUNDING_LIMIT}; this box question is out of reach in double precision")
    radius = math.sqrt(d) * (1.0 + prior) * (1.0 + slack) / (1.0 - rho)
    return np.floor(radius[:, None] * dual_norms).astype(np.int64)


_DIRECT_CELLS = 1 << 15         # cells (2 cap + 1)^m n up to which one matrix's box is valued whole
_DIRECT_BOX = 200               # canonical points up to which a stack's box is tested whole


def _direct_box(x, height_cap):
    """Whether a box question takes its whole height ball rather than a
    reduction.  One matrix x (m, n), reduced in plain Python: when the ball
    has at most ``_DIRECT_CELLS`` cells, cheaper than a reduction, or x = 0
    and all of it answers.  A stack (S, m, n), reduced together by numpy:
    when the ball has at most ``_DIRECT_BOX`` canonical points."""
    m, n = x.shape[-2:]
    if x.ndim == 3:
        return (2 * height_cap + 1) ** m <= 2 * _DIRECT_BOX
    return (2 * height_cap + 1) ** m * n <= _DIRECT_CELLS or not x.any()


def _box_candidates(x, height_cap, bound, U):
    """(q, heights, U) for one matrix x (m, n): canonical q, |q|_inf <= cap,
    holding every q whose rounded |qx|_inf is below ``bound`` > 0, and the
    reduction from the warm start U (see :func:`_direct_box`)."""
    m = len(x)
    if _direct_box(x, height_cap):
        return (*_ball(m, height_cap), U)
    prior = _rounding_prior(m, height_cap, float(np.max(np.abs(x))), bound)
    basis = _box_basis(x, height_cap, bound)
    U = _lll_one(basis, U)
    key = _coefficient_bounds(basis[None], U[None], prior)[0]
    q = _coefficient_box(tuple(key.tolist())) @ U
    q[~_canonical_rows(q)] *= -1
    heights = np.abs(q).max(axis=1)
    inside = heights <= height_cap
    return q[inside], heights[inside], U
