"""Integer witness search: exact minimization of |qX|_inf up to a height
bound, witness enumeration, the pigeonhole (Dirichlet-type) guarantee, and
the inverse-matrix height obstruction.

Two engines decide on the one float sum of
:func:`smallforms.forms.form_columns`: the *naive oracle* values the whole
band, the *lattice engine* only the candidates of :mod:`smallforms.lattice`,
per dyadic height block, warm-starting each reduction from the last.  The
engine is tested against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    PreconditionError,
    SingularMatrixError,
    TheoremViolationError,
)
from .forms import MatrixPoint, Witness, form_columns
from .functions import ApproximatingFunction
from .lattice import _bound_floor, _box_basis, _box_candidates, _direct_box, _height_blocks
from .lattice import _lll_one, _rounding_prior, band_vectors

__all__ = [
    "SearchBudget",
    "WitnessSearchResult",
    "min_form",
    "witnesses",
    "dirichlet_witness",
    "dirichlet_bound",
    "height_obstruction",
]


@dataclass(frozen=True)
class SearchBudget:
    """Truncation of the witness search.

    ``q_max`` is the height bound, ``max_witnesses`` an optional output cap,
    ``pruning`` selects the lattice engine; ``False`` runs the naive band
    scan, the oracle the engine is tested against.
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
# the naive oracle and the lattice engine
# ---------------------------------------------------------------------------

def _band(X: MatrixPoint, q_max):
    """The naive oracle: (q, heights, values) of the band 1 <= |q| <= q_max."""
    vecs, heights = band_vectors(X.m, 1, q_max)
    return vecs, heights, np.max(np.abs(form_columns(vecs, X.entries)), axis=1)


def _box(X: MatrixPoint, height_cap, bound, U):
    """(q, heights, values, U): the q with |q|_inf <= cap and |qX|_inf < bound
    in (height, lex) order, by the lattice engine from the warm start U."""
    q, heights, U = _box_candidates(X.entries, height_cap, bound, U)
    values = np.max(np.abs(form_columns(q, X.entries)), axis=1)
    hit = np.nonzero(values < bound)[0]
    order = hit[np.lexsort((*q[hit].T[::-1], heights[hit]))]
    return q[order], heights[order], values[order], U


def _witness(q, heights, values, i=0):
    """Row i as a :class:`Witness`; its value is form_value's expression."""
    return Witness(tuple(q[i].tolist()), int(heights[i]), float(values[i]))


def _min_form_box(X: MatrixPoint, q_max):
    """Candidates holding every minimizer: a reduction at (Q, the pigeonhole
    bound m Q^(1 - m/n)), then one box one ulp above the least value of e_1
    and the reduced rows, or at the pigeonhole bound where that is too small
    to ask.  A small box is the band itself."""
    if _direct_box(X.entries, q_max):
        return _band(X, q_max)
    pigeonhole = _pigeonhole_bound(X.m, X.n, q_max)
    _rounding_prior(X.m, q_max, float(np.max(np.abs(X.entries))), pigeonhole)   # refused before its basis can overflow
    U = _lll_one(_box_basis(X.entries, q_max, pigeonhole), np.eye(X.m, dtype=np.int64))
    rows = np.vstack([np.eye(1, X.m, dtype=np.int64), U[np.abs(U).max(axis=1) <= q_max]])
    bound = np.nextafter(np.max(np.abs(form_columns(rows, X.entries)), axis=1).min(), np.inf)
    try:
        return _box(X, q_max, bound, U)[:3]
    except BudgetExceededError:
        return _box(X, q_max, max(bound, pigeonhole), U)[:3]


def min_form(X: MatrixPoint, q_max, pruned=True) -> Witness:
    """Minimize |qX|_inf over 0 < |q|_inf <= q_max.

    Returns the canonical witness (one representative per +-q pair); among
    minimizers the one that height-then-lex ordered enumeration reaches first.
    ``pruned`` selects the lattice engine; ``False`` runs the naive band
    scan, the oracle the engine is tested against.
    """
    if q_max < 1:
        raise PreconditionError("height bound must be >= 1")
    q, heights, values = (_min_form_box if pruned else _band)(X, q_max)
    return _witness(q, heights, values, int(np.argmin(values)))   # first occurrence = (height, lex) minimum


def witnesses(X: MatrixPoint, psi: ApproximatingFunction, budget: SearchBudget) -> WitnessSearchResult:
    """All canonical q with 0 < |q| <= Q and |qX|_inf < psi(|q|).

    Output is sorted by height then lexicographically; ``truncated`` reports
    whether the optional cap cut the list short.  The lattice engine asks
    each dyadic height block [lo, hi] at the bound psi(lo), or at the floor
    its rounding guards accept at hi where that is larger (a larger box still
    holds every witness), so it needs a non-increasing psi and raises
    :class:`PreconditionError` otherwise.
    """
    if budget.pruning and not psi.non_increasing:
        raise PreconditionError("the pruned witness search needs a non-increasing psi")
    if not budget.pruning:
        parts = [(*_band(X, budget.q_max), 1)]
    else:
        blocks = _height_blocks(1, budget.q_max)[::-1]   # the top box first: one over budget fails at once
        parts, U, x_max = [], np.eye(X.m, dtype=np.int64), float(np.max(np.abs(X.entries)))
        for (lo, hi), bound in zip(blocks, psi(np.array([lo for lo, _ in blocks], dtype=float))):
            if bound > 0:
                q, heights, values, U = _box(X, hi, max(bound, _bound_floor(X.m, hi, x_max)), U)
                parts.insert(0, (q, heights, values, lo))
    found = [_witness(q, heights, values, i) for q, heights, values, lo in parts
             for i in np.nonzero((heights >= lo) & (values < psi(heights.astype(float))))[0]]
    truncated = budget.max_witnesses is not None and len(found) > budget.max_witnesses
    return WitnessSearchResult(tuple(found[: budget.max_witnesses]), truncated)


def dirichlet_bound(m, n, t) -> float:
    """The pigeonhole bound m * (2^t)^(1 - m/n) on the minimal form value;
    :class:`BudgetExceededError` where 2^t overflows or the bound underflows."""
    return _pigeonhole_bound(m, n, _float_power_of_two(t))


def _pigeonhole_bound(m, n, height) -> float:
    """m height^(1 - m/n), which some q with 0 < |q|_inf <= height beats;
    :class:`BudgetExceededError` where it underflows a float."""
    bound = m * float(height) ** (1.0 - m / n)
    if not bound > 0:
        raise BudgetExceededError(f"the pigeonhole bound at height {height:g} underflows a float")
    return bound


def _float_power_of_two(t) -> float:
    """2.0 ** t, or :class:`BudgetExceededError` when it overflows a float."""
    try:
        return 2.0 ** t
    except OverflowError:
        raise BudgetExceededError(f"2^{t} overflows a float") from None


def dirichlet_witness(X: MatrixPoint, t) -> Witness:
    """A nonzero q with |q| <= 2^t and |qX|_inf < m (2^t)^(1 - m/n).

    The pigeonhole principle guarantees existence; exhaustion raises
    :class:`TheoremViolationError` and is treated as a bug.  The returned
    witness is the first hit in height-then-lex canonical order, from the
    first dyadic block with a hit.  Raises :class:`BudgetExceededError` where
    the walk reaches a block that is reduced rather than valued whole and the
    engine's rounding bound at height 2^t is not small.
    """
    if t < 1:
        raise PreconditionError("t must be >= 1")
    height_cap = 2 ** int(t)
    bound = dirichlet_bound(X.m, X.n, t)
    U, x_max = np.eye(X.m, dtype=np.int64), float(np.max(np.abs(X.entries)))
    for _, hi in _height_blocks(1, height_cap):
        if not _direct_box(X.entries, hi):
            _rounding_prior(X.m, height_cap, x_max, bound)   # wherever a reduced walk's hit lies
        q, heights, values, U = _box(X, hi, bound, U)
        if len(q):
            w = _witness(q, heights, values)
            if not (w.value < bound and w.height <= height_cap):
                raise TheoremViolationError("lattice engine returned a non-witness")
            return w
    raise TheoremViolationError(
        f"no q with |q| <= 2^{t} and |qX| < {bound}; this contradicts the pigeonhole bound")


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
