"""Integer witness search: exact minimization of |qX|_inf up to a height
bound, witness enumeration, the pigeonhole (Dirichlet-type) guarantee, and
the inverse-matrix height obstruction.

One enumeration of canonical integer vectors (one of each +-q, first
nonzero coordinate positive) serves the package: :func:`_canonical_box`,
the only box builder and cell-cap check; :func:`_ball`, the cached q with
0 < |q|_inf <= h in (height, lex) order, which :func:`band_vectors` slices;
and :func:`_height_blocks`, the one dyadic cut of heights.

Two engines back the public operations; both value q.X by the one float sum
of :func:`smallforms.forms.form_columns`:

* the *naive oracle* evaluates every vector of the band;
* the *per-tail interval engine* fixes the trailing m-1 coordinates
  ("tail", a row of the height ball in dimension m-1) and solves for the
  admissible leading coordinates analytically, which turns the per-vector
  scan into a per-tail scan.  One candidate routine, :func:`_tail_candidates`,
  serves :func:`min_form`, :func:`witnesses` and :func:`dirichlet_witness`; it
  values a candidate as its tail part plus q_1 x_1, the oracle's own
  expression, so both engines return the same vectors.

The interval engine is validated against the naive oracle in the test
suite; every public result (Witness values in particular) is recomputed
through :func:`smallforms.forms.form_value` before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BudgetExceededError,
    PreconditionError,
    SingularMatrixError,
    TheoremViolationError,
)
from .forms import MatrixPoint, Witness, form_columns
from .functions import ApproximatingFunction

__all__ = [
    "SearchBudget",
    "WitnessSearchResult",
    "min_form",
    "witnesses",
    "dirichlet_witness",
    "dirichlet_bound",
    "height_obstruction",
    "band_vectors",
]

# hard caps keeping cached enumeration arrays at desk scale
_BOX_CELL_CAP = 40_000_000


@dataclass(frozen=True)
class SearchBudget:
    """Truncation of the witness search.

    ``q_max`` is the height bound, ``max_witnesses`` an optional output cap,
    ``pruning`` selects the per-tail interval engine; ``False`` runs the
    naive band scan, the oracle the engine is tested against.
    """

    q_max: int
    max_witnesses: int | None = None
    pruning: bool = True

    def __post_init__(self):
        if self.q_max < 1:
            raise PreconditionError("height bound must be >= 1")
        if self.max_witnesses is not None and self.max_witnesses < 1:
            raise PreconditionError("witness cap must be >= 1 when present")


@dataclass(frozen=True)
class WitnessSearchResult:
    witnesses: tuple
    truncated: bool

    def __iter__(self):
        return iter(self.witnesses)

    def __len__(self):
        return len(self.witnesses)


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
    if math.prod(2 * k + 1 for k in bounds) > _BOX_CELL_CAP:
        raise BudgetExceededError(f"integer box {tuple(bounds)} is over budget")
    if not bounds:
        box = np.zeros((0, 0), dtype=np.int64)
    else:
        axes = [np.arange(-k, k + 1, dtype=np.int64) for k in bounds]
        grids = np.meshgrid(*axes, indexing="ij", copy=False)   # views: one copy, in the stack
        box = np.stack(grids, axis=-1).reshape(-1, len(bounds))
        box = box[_canonical_rows(box)]
    box.flags.writeable = False
    return box


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
# enumeration: the naive oracle and the public searches
# ---------------------------------------------------------------------------

def _min_form_naive(X: MatrixPoint, q_max):
    vecs, _ = band_vectors(X.m, 1, q_max)
    values = np.max(np.abs(form_columns(vecs, X.entries)), axis=1)
    idx = int(np.argmin(values))  # first occurrence = (height, lex) minimum
    return tuple(int(v) for v in vecs[idx])


def _min_form_tails(X: MatrixPoint, q_max):
    """The naive oracle's minimizer, found among the candidates at a bound
    just above B, the least value of some evaluated vectors: e_1 and, per
    tail, q_1 = rint(-p_0/lead_0), the best q_1 for column 0."""
    tails, tail_heights = _ball(X.m - 1, q_max)
    lead = X.entries[:1]
    p = form_columns(tails, X.entries[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        q1 = np.rint(-p[:, :1] / lead[0, 0])
    q1 = np.clip(np.nan_to_num(q1, nan=0.0), -q_max, q_max).astype(np.int64)
    guesses = np.vstack([form_columns([1], lead), form_columns(q1, lead, p)])
    bound = np.nextafter(np.abs(guesses).max(axis=1).min(), np.inf)
    vecs = _tail_candidates(X, tails, tail_heights, bound, q_max, lambda v, h: v == v.min())
    return tuple(int(v) for v in vecs[0])


def min_form(X: MatrixPoint, q_max, pruned=True) -> Witness:
    """Minimize |qX|_inf over 0 < |q|_inf <= q_max.

    Returns the canonical witness (one representative per +-q pair); among
    minimizers the one that height-then-lex ordered enumeration reaches first.
    ``pruned`` selects the per-tail interval engine; ``False`` runs the naive
    band scan, the oracle the engine is tested against.
    """
    if q_max < 1:
        raise PreconditionError("height bound must be >= 1")
    q = _min_form_tails(X, q_max) if pruned else _min_form_naive(X, q_max)
    return Witness.of(q, X)


def _witnesses_naive(X, psi, q_max):
    vecs, heights = band_vectors(X.m, 1, q_max)
    values = np.max(np.abs(form_columns(vecs, X.entries)), axis=1)
    thresholds = psi(heights.astype(float))
    mask = values < thresholds
    return [tuple(int(v) for v in row) for row in vecs[mask]]


def _witnesses_tails(X, psi, q_max):
    """Candidates at psi(max(tail height, 1)), valid as psi is non-increasing,
    filtered at psi(|q|) as the naive oracle does."""
    tails, tail_heights = _ball(X.m - 1, q_max)
    bound = psi(np.concatenate(([1], tail_heights)).astype(float))  # zero tail first
    vecs = _tail_candidates(X, tails, tail_heights, bound, q_max, lambda v, h: v < psi(h.astype(float)))
    return [tuple(int(v) for v in row) for row in vecs]


def witnesses(X: MatrixPoint, psi: ApproximatingFunction, budget: SearchBudget) -> WitnessSearchResult:
    """All canonical q with 0 < |q| <= Q and |qX|_inf < psi(|q|).

    Output is sorted by height then lexicographically; ``truncated`` reports
    whether the optional cap cut the list short.  The pruned engine needs a
    non-increasing psi and raises :class:`PreconditionError` otherwise.
    """
    if budget.pruning and not psi.non_increasing:
        raise PreconditionError("the pruned witness search needs a non-increasing psi")
    raw = (
        _witnesses_tails(X, psi, budget.q_max)
        if budget.pruning
        else _witnesses_naive(X, psi, budget.q_max)
    )
    truncated = budget.max_witnesses is not None and len(raw) > budget.max_witnesses
    if truncated:
        raw = raw[: budget.max_witnesses]
    return WitnessSearchResult(tuple(Witness.of(q, X) for q in raw), truncated)


# ---------------------------------------------------------------------------
# interval engine
# ---------------------------------------------------------------------------

def _interval_bounds(p, lead, bound):
    """Open interval (lo, hi) of real q_1 with |q_1 * lead_j + p_j| < bound, all j.

    ``p`` has shape (..., n); ``lead`` (n,) is the first row of X.  Columns
    with lead 0 constrain nothing when |p_j| < bound and kill the tail
    otherwise; the dead case is signalled by an empty interval.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        centers = -p / lead
        widths = bound / np.abs(lead)
        lo = centers - widths
        hi = centers + widths
    unconstrained = lead == 0.0
    if np.any(unconstrained):
        dead = unconstrained & ~(np.abs(p) < bound)
        lo = np.where(unconstrained, -np.inf, lo)
        hi = np.where(unconstrained, np.inf, hi)
        hi = np.where(dead, -np.inf, hi)  # empty interval
    return np.max(lo, axis=-1), np.min(hi, axis=-1)


def dirichlet_bound(m, n, t) -> float:
    """The pigeonhole bound m * (2^t)^(1 - m/n) on the minimal form value.

    Raises :class:`BudgetExceededError` when 2^t overflows a float.
    """
    return m * _float_power_of_two(t) ** (1.0 - m / n)


def _float_power_of_two(t) -> float:
    """2.0 ** t, or :class:`BudgetExceededError` when it overflows a float."""
    try:
        return 2.0 ** t
    except OverflowError:
        raise BudgetExceededError(f"2^{t} overflows a float") from None


def _k_range(lo, hi, cap):
    """Integer endpoints of the open interval (lo, hi) padded by 1,
    [floor(lo), ceil(hi)], clipped to [-cap, cap].

    Infinities and the fallout of 0/0 columns are sanitized before the floor
    and ceil; an empty range is signalled by k_lo > k_hi.
    """
    pad = float(cap + 2)
    lo = np.fmax(np.fmin(lo, pad), -pad)   # fmin and fmax send nan to the bound
    hi = np.fmin(np.fmax(hi, -pad), pad)
    return np.maximum(np.floor(lo).astype(np.int64), -cap), np.minimum(np.ceil(hi).astype(np.int64), cap)


def _tail_candidates(X: MatrixPoint, tails, tail_heights, bound, cap, keep):
    """Canonical q = +-(q_1, tail) with |q|_inf <= cap that pass ``keep``, in
    (height, lex) order.

    The tails are the rows of ``tails`` (heights ``tail_heights``) and the
    zero tail, added here with q_1 >= 1.  ``bound`` is a scalar or one bound
    per tail, zero tail first; per tail the open interval of q_1 with
    |qX|_inf < bound is solved and padded by 1 against rounding, so every q
    through the tail with |qX|_inf < bound is a candidate.  ``keep(values,
    heights)`` filters the candidates exactly, valued from the tail's
    columns and q_1 by :func:`form_columns`; only those that pass are built
    as vectors.  Raises :class:`BudgetExceededError` when the candidates
    would not fit the enumeration budget.
    """
    m = X.m
    tails = np.vstack([np.zeros((1, m - 1), dtype=np.int64), tails])
    bound = np.broadcast_to(np.asarray(bound, dtype=float), (len(tails),))[:, None]
    lead = X.entries[:1]
    p = form_columns(tails, X.entries[1:])
    k_lo, k_hi = _k_range(*_interval_bounds(p, lead[0], bound), cap)
    k_lo[0] = 1
    counts = np.maximum(k_hi - k_lo + 1, 0)
    total = int(counts.sum())
    if total * m > _BOX_CELL_CAP:
        raise BudgetExceededError(
            f"{total:.2e} candidate vectors up to height {cap} in dimension {m}, over budget"
        )
    tail_of = np.repeat(np.arange(len(tails)), counts)
    q1 = np.repeat(k_lo - (np.cumsum(counts) - counts), counts) + np.arange(total, dtype=np.int64)
    values = np.max(np.abs(form_columns(q1[:, None], lead, p[tail_of])), axis=1)
    heights = np.maximum(np.abs(q1), np.concatenate(([0], tail_heights))[tail_of])
    mask = keep(values, heights)
    q1, tail_of, heights = q1[mask], tail_of[mask], heights[mask]
    vecs = np.column_stack([q1, tails[tail_of]])
    vecs[q1 < 0] *= -1  # the canonical representative of the pair: same value
    return vecs[np.lexsort((*vecs.T[::-1], heights))]


def _dirichlet_first(X: MatrixPoint, height_cap, bound):
    """First (height, lex) canonical q with |q| <= cap and |qX|_inf < bound,
    or None.  The tail blocks of :func:`_height_blocks` go through
    :func:`_tail_candidates`, each cut at the least hit height so far, until
    a block starts above it."""
    tails, tail_heights = _ball(X.m - 1, height_cap)
    first, cap = None, height_cap
    for lo, hi in _height_blocks(1, height_cap):
        if lo > cap:
            break  # every q through later tails is strictly taller
        block = slice(*np.searchsorted(tail_heights, [lo, min(hi, cap) + 1]))
        vecs = _tail_candidates(X, tails[block], tail_heights[block], bound, cap, lambda v, h: v < bound)
        if len(vecs):
            q = tuple(int(v) for v in vecs[0])
            key = (max(abs(v) for v in q), q)
            if first is None or key < first:
                first, cap = key, key[0]
    return None if first is None else first[1]


def dirichlet_witness(X: MatrixPoint, t) -> Witness:
    """A nonzero q with |q| <= 2^t and |qX|_inf < m (2^t)^(1 - m/n).

    The pigeonhole principle guarantees existence; exhaustion raises
    :class:`TheoremViolationError` and is treated as a bug.  The returned
    witness is the first hit in height-then-lex canonical order.
    """
    if t < 1:
        raise PreconditionError("t must be >= 1")
    height_cap = 2 ** int(t)
    bound = dirichlet_bound(X.m, X.n, t)
    q = _dirichlet_first(X, height_cap, bound)
    if q is None:
        raise TheoremViolationError(
            f"no q with |q| <= 2^{t} and |qX| < {bound}; this contradicts the pigeonhole bound"
        )
    w = Witness.of(q, X)
    if not (w.value < bound and w.height <= height_cap):
        raise TheoremViolationError("interval engine returned a non-witness")
    return w


# ---------------------------------------------------------------------------
# height obstruction for invertible square X
# ---------------------------------------------------------------------------

def height_obstruction(X: MatrixPoint, psi: ApproximatingFunction, det_floor=1e-12) -> int:
    """Largest height Q* that any psi-witness of an invertible X can have.

    Uses |q|_inf = |q X X^-1|_inf <= C2(X) |qX|_inf with C2 the maximum
    column absolute sum of X^-1: a witness of height h forces
    h <= C2 psi(h), impossible once C2 psi(h) < 1.  Returns the largest h
    with psi(h) >= 1/C2, or 0 when even psi(1) < 1/C2.
    """
    if X.m != X.n:
        raise PreconditionError("height obstruction needs a square matrix")
    det = float(np.linalg.det(X.entries))
    if abs(det) <= det_floor:
        raise SingularMatrixError(f"|det X| = {abs(det):.2e} below the {det_floor} floor")
    inv = np.linalg.inv(X.entries)
    c2 = float(np.max(np.abs(inv).sum(axis=0)))
    level = 1.0 / c2
    if psi(1.0) < level:
        return 0
    # psi is non-increasing: exponential search then bisection
    hi = 1
    while psi(float(2 * hi)) >= level:
        hi *= 2
        if hi > 2 ** 62:
            raise PreconditionError("psi does not drop below 1/C2 at representable heights")
    lo = hi  # psi(lo) >= level
    hi = 2 * hi  # psi(hi) < level
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if psi(float(mid)) >= level:
            lo = mid
        else:
            hi = mid
    return lo
