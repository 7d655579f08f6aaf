"""Integer witness search: exact minimization of |qX|_inf up to a height
bound, witness enumeration, the pigeonhole (Dirichlet-type) guarantee, and
the inverse-matrix height obstruction.

Two engines back the public operations:

* the *naive oracle* materializes the canonical height shells (one
  representative per +-q pair, heights ascending, lexicographic within a
  shell) and evaluates every vector of the band;
* the *per-tail interval engine* fixes the trailing m-1 coordinates
  ("tail") and solves for the admissible leading coordinates analytically,
  which turns the per-vector scan into a per-tail scan.  One candidate
  expansion, :func:`_tail_candidates`, serves :func:`min_form`,
  :func:`witnesses` and the final pick of :func:`dirichlet_witness`; it
  filters its candidates with the oracle's own expression, so both engines
  return the same vectors.

The interval engine is validated against the naive oracle in the test
suite; every public result (Witness values in particular) is recomputed
through :func:`smallforms.forms.form_value` before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BudgetExceededError,
    PreconditionError,
    SingularMatrixError,
    TheoremViolationError,
)
from .forms import MatrixPoint, Witness
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
# canonical shells
# ---------------------------------------------------------------------------

def _canonical_rows(box):
    """Rows whose first nonzero coordinate is positive (rows must be nonzero)."""
    nz = box != 0
    first = np.argmax(nz, axis=1)
    lead = box[np.arange(box.shape[0]), first]
    return lead > 0


@lru_cache(maxsize=512)
def _shell(m, h):
    """Canonical vectors with |q|_inf == h, lexicographically ascending."""
    if (2 * h + 1) ** m > _BOX_CELL_CAP:
        raise BudgetExceededError(f"shell |q|={h} in dimension {m} is over budget")
    rng = np.arange(-h, h + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * m), indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=1)
    heights = np.max(np.abs(box), axis=1)
    box = box[heights == h]
    box = box[_canonical_rows(box)]
    box.flags.writeable = False
    return box


def band_vectors(m, h_lo, h_hi):
    """Canonical vectors with h_lo <= |q|_inf <= h_hi in (height, lex) order.

    Returns (vectors, heights).  Raises :class:`BudgetExceededError` when the
    band is too large to materialize.
    """
    if h_lo < 1 or h_hi < h_lo:
        raise PreconditionError("need 1 <= h_lo <= h_hi")
    est = (2 * h_hi + 1) ** m - (2 * h_lo - 1) ** m
    if est > _BOX_CELL_CAP:
        raise BudgetExceededError(
            f"band [{h_lo}, {h_hi}] in dimension {m} has ~{est:.2e} vectors, over budget"
        )
    shells = [_shell(m, h) for h in range(h_lo, h_hi + 1)]
    vecs = np.concatenate(shells, axis=0)
    heights = np.concatenate(
        [np.full(len(s), h, dtype=np.int64) for s, h in zip(shells, range(h_lo, h_hi + 1))]
    )
    return vecs, heights


@lru_cache(maxsize=64)
def _tails(m, h_max):
    """Canonical nonzero tails (q_2 .. q_m) with height <= h_max, sorted by
    height so height blocks are contiguous slices; returns (tails, heights)."""
    if m < 2:
        return np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    if (2 * h_max + 1) ** (m - 1) > _BOX_CELL_CAP:
        raise BudgetExceededError(f"tail box of height {h_max} in dimension {m} is over budget")
    rng = np.arange(-h_max, h_max + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * (m - 1)), indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=1)
    heights = np.max(np.abs(box), axis=1)
    keep = heights > 0
    box, heights = box[keep], heights[keep]
    canon = _canonical_rows(box)
    box, heights = box[canon], heights[canon]
    order = np.argsort(heights, kind="stable")
    box, heights = np.ascontiguousarray(box[order]), heights[order]
    box.flags.writeable = False
    heights.flags.writeable = False
    return box, heights


# ---------------------------------------------------------------------------
# enumeration: the naive oracle and the public searches
# ---------------------------------------------------------------------------

def _values_for_band(X: MatrixPoint, vecs):
    """|qX|_inf for every row q of ``vecs``."""
    prods = vecs.astype(float) @ X.entries
    return np.max(np.abs(prods), axis=1)


def _min_form_naive(X: MatrixPoint, q_max):
    vecs, heights = band_vectors(X.m, 1, q_max)
    values = _values_for_band(X, vecs)
    idx = int(np.argmin(values))  # first occurrence = (height, lex) minimum
    return tuple(int(v) for v in vecs[idx])


def _min_form_tails(X: MatrixPoint, q_max):
    """The naive oracle's minimizer, found among the candidates at a bound
    just above B, the least value of some evaluated vectors: e_1 and, per
    tail, q_1 = rint(-p_0/lead_0), the best q_1 for column 0."""
    tails, _ = _tails(X.m, q_max)
    lead = X.entries[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        q1 = np.rint(-(tails.astype(float) @ X.entries[1:, 0]) / lead[0])
    q1 = np.clip(np.nan_to_num(q1, nan=0.0), -q_max, q_max).astype(np.int64)
    guesses = np.vstack([np.eye(1, X.m, dtype=np.int64), np.column_stack([q1, tails])])
    bound = np.nextafter(_values_for_band(X, guesses).min(), np.inf)
    vecs = _tail_candidates(X, tails, bound, q_max, lambda v, h: v == v.min())
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
    values = _values_for_band(X, vecs)
    thresholds = psi(heights.astype(float))
    mask = values < thresholds
    return [tuple(int(v) for v in row) for row in vecs[mask]]


def _witnesses_tails(X, psi, q_max):
    """Candidates at psi(max(tail height, 1)), valid as psi is non-increasing,
    filtered at psi(|q|) as the naive oracle does."""
    tails, tail_heights = _tails(X.m, q_max)
    bound = psi(np.concatenate(([1], tail_heights)).astype(float))  # zero tail first
    vecs = _tail_candidates(X, tails, bound, q_max, lambda v, h: v < psi(h.astype(float)))
    return [tuple(int(v) for v in row) for row in vecs]


def witnesses(X: MatrixPoint, psi: ApproximatingFunction, budget: SearchBudget) -> WitnessSearchResult:
    """All canonical q with 0 < |q| <= Q and |qX|_inf < psi(|q|).

    Output is sorted by height then lexicographically; ``truncated`` reports
    whether the optional cap cut the list short.
    """
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
    """The pigeonhole bound m * (2^t)^(1 - m/n) on the minimal form value."""
    return m * (2.0 ** t) ** (1.0 - m / n)


def _k_range(lo, hi, cap):
    """Integer endpoints of the open interval (lo, hi) clipped to [-cap, cap].

    Infinities and the fallout of 0/0 columns are sanitized before the floor
    and ceil; an empty range is signalled by k_lo > k_hi.
    """
    pad = float(cap + 2)
    lo = np.clip(np.nan_to_num(lo, nan=pad, posinf=pad, neginf=-pad), -pad, pad)
    hi = np.clip(np.nan_to_num(hi, nan=-pad, posinf=pad, neginf=-pad), -pad, pad)
    k_lo = np.maximum(np.floor(lo).astype(np.int64) + 1, -cap)
    k_hi = np.minimum(np.ceil(hi).astype(np.int64) - 1, cap)
    return k_lo, k_hi


def _dyadic_tail_blocks(tail_heights, cap):
    """(th_min, slice) pairs cutting a height-sorted tail array dyadically."""
    bounds = [0]
    h = 1
    while h < cap:
        bounds.append(h)
        h *= 2
    bounds.append(cap)
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        a = int(np.searchsorted(tail_heights, lo, side="right"))
        b = int(np.searchsorted(tail_heights, hi, side="right"))
        if b > a:
            out.append((lo + 1, slice(a, b)))
    return out


def _tail_candidates(X: MatrixPoint, tails, bound, cap, keep):
    """Canonical q = +-(q_1, tail) with |q|_inf <= cap that pass ``keep``, in
    (height, lex) order.

    The tails are the rows of ``tails`` and the zero tail, added here with
    q_1 >= 1.  ``bound`` is a scalar or one bound per tail, zero tail first;
    per tail the open interval of q_1 with |qX|_inf < bound is solved and
    padded by 1 against rounding, so every q through the tail with
    |qX|_inf < bound is a candidate.  ``keep(values, heights)`` filters the
    candidates exactly: values come from :func:`_values_for_band`, the naive
    oracle's own expression.  Raises :class:`BudgetExceededError` when the
    candidates would not fit the enumeration budget.
    """
    m = X.m
    tails = np.vstack([np.zeros((1, m - 1), dtype=np.int64), tails])
    bound = np.broadcast_to(np.asarray(bound, dtype=float), (len(tails),))[:, None]
    p = tails.astype(float) @ X.entries[1:]
    k_lo, k_hi = _k_range(*_interval_bounds(p, X.entries[0], bound), cap)
    k_lo = np.maximum(k_lo - 1, -cap)
    k_hi = np.minimum(k_hi + 1, cap)
    k_lo[0] = 1
    counts = np.maximum(k_hi - k_lo + 1, 0)
    total = int(counts.sum())
    if total * m > _BOX_CELL_CAP:
        raise BudgetExceededError(
            f"{total:.2e} candidate vectors up to height {cap} in dimension {m}, over budget"
        )
    starts = np.repeat(k_lo - (np.cumsum(counts) - counts), counts)
    q1 = starts + np.arange(total, dtype=np.int64)
    vecs = np.column_stack([q1, np.repeat(tails, counts, axis=0)])
    vecs[q1 < 0] *= -1  # the canonical representative of the pair
    heights = np.max(np.abs(vecs), axis=1)
    mask = keep(_values_for_band(X, vecs), heights)
    vecs, heights = vecs[mask], heights[mask]
    return vecs[np.lexsort((*vecs.T[::-1], heights))]


def _dirichlet_scan(X: MatrixPoint, height_cap, bound):
    """Per-tail minimum witness heights, scanned in ascending height blocks.

    Returns (tails, tail_heights, tail_best, h_star): tail_best[i] is the
    smallest achievable |q|_inf through tail i (int64 max when none, or when
    the block scan stopped early because heights there could no longer beat
    h_star), and h_star is their minimum.
    Candidate leading coordinates are the nearest-to-zero admissible integers
    with +-1 padding, verified directly against the strict inequality.
    """
    tails, tail_heights = _tails(X.m, height_cap)
    lead = X.entries[0]
    rest = X.entries[1:]
    n = X.n
    sentinel = np.iinfo(np.int64).max
    tail_best = np.full(len(tails), sentinel, dtype=np.int64)
    h_star = sentinel
    for th_min, block in _dyadic_tail_blocks(tail_heights, height_cap):
        if th_min > h_star:
            break  # every q through later tails is strictly taller
        p = tails[block].astype(float) @ rest  # (k, n)
        lo, hi = _interval_bounds(p, lead, bound)
        k_lo, k_hi = _k_range(lo, hi, height_cap)
        minabs = np.where(k_lo > 0, k_lo, np.where(k_hi < 0, k_hi, 0))
        best = np.full(len(minabs), sentinel, dtype=np.int64)
        for shift in (-1, 0, 1):
            cand = np.clip(minabs + shift, -height_cap, height_cap)
            vals = np.abs(cand * lead[0] + p[:, 0])
            for j in range(1, n):
                np.maximum(vals, np.abs(cand * lead[j] + p[:, j]), out=vals)
            heights = np.maximum(np.abs(cand), tail_heights[block])
            good = vals < bound
            np.minimum(best, np.where(good, heights, sentinel), out=best)
        tail_best[block] = best
        if best.size:
            h_star = min(h_star, int(best.min()))
    return tails, tail_heights, tail_best, h_star


def _dirichlet_first(X: MatrixPoint, height_cap, bound):
    """First (height, lex) canonical q with |q| <= cap and |qX|_inf < bound.

    The scan finds the first hit's height h_star; the candidates of the
    tails reaching it, and of the zero tail, pick the hit.  Returns None when
    no vector qualifies.
    """
    tails, tail_heights, tail_best, h_star = _dirichlet_scan(X, height_cap, bound)
    if np.all(np.abs(X.entries[0]) < bound):
        h_star = min(h_star, 1)  # e_1
    cap = min(h_star, height_cap)
    k = int(np.searchsorted(tail_heights, cap, side="right"))  # tails no taller than the hit
    vecs = _tail_candidates(X, tails[:k][tail_best[:k] == h_star], bound, cap,
                            lambda v, h: v < bound)
    return tuple(int(v) for v in vecs[0]) if len(vecs) else None


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
