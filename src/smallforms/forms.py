"""Points of the ambient cube, integer witnesses, and exact evaluation of the
linear forms q X and of distances to the resonant hyperplane sets.

Conventions
-----------
A point X lives in the cube [-1/2, 1/2]^(m*n) and is stored column-wise: n
columns of length m.  For a nonzero integer vector q the resonant set
R_q = {Y : qY = 0} is the product over columns of the hyperplanes q.y = 0,
and the distance used throughout is

    dist(X, R_q) = max_j |q . x^(j)| / |q|_2,

the per-column Euclidean point-to-hyperplane distance aggregated by max.
Every experiment report carries this convention tag so results remain
comparable if a different metric is ever added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .functions import ApproximatingFunction

__all__ = [
    "DISTANCE_CONVENTION",
    "MatrixPoint",
    "Witness",
    "UbiquityConfig",
    "KRegularityReport",
    "form_value",
    "resonant_distance",
    "in_delta_neighborhood",
    "is_k_regular",
]

DISTANCE_CONVENTION = "max-column-euclidean"


def _int_vector(q, m=None):
    q_arr = np.asarray(q)
    if q_arr.ndim != 1:
        raise PreconditionError("q must be a flat integer vector")
    if not np.issubdtype(q_arr.dtype, np.integer):
        q_round = np.rint(q_arr)
        if np.any(q_round != q_arr):
            raise PreconditionError("q must have integer entries")
        q_arr = q_round.astype(np.int64)
    else:
        q_arr = q_arr.astype(np.int64)
    if m is not None and q_arr.size != m:
        raise PreconditionError(f"q has length {q_arr.size}, expected {m}")
    if not np.any(q_arr):
        raise PreconditionError("q must be nonzero")
    return q_arr


@dataclass(frozen=True)
class MatrixPoint:
    """A point of the cube, an m x n real matrix with entries in [-1/2, 1/2]."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise PreconditionError("entries must be a nonempty m x n matrix")
        if not np.all(np.isfinite(a)):
            raise PreconditionError("entries must be finite")
        if np.any(np.abs(a) > 0.5):
            raise PreconditionError("entries must lie in [-1/2, 1/2]")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_columns(cls, *columns) -> "MatrixPoint":
        return cls(np.column_stack([np.asarray(c, dtype=float) for c in columns]))

    @classmethod
    def from_flat(cls, values, m, n) -> "MatrixPoint":
        a = np.asarray(values, dtype=float)
        if a.size != m * n:
            raise PreconditionError(f"expected {m * n} entries, got {a.size}")
        return cls(a.reshape(m, n, order="F"))

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def column(self, j) -> np.ndarray:
        return self.entries[:, j]

    def __eq__(self, other):
        return isinstance(other, MatrixPoint) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())


@dataclass(frozen=True)
class Witness:
    """An integer vector q recorded against a specific point X.

    ``height`` is |q|_inf and ``value`` is |qX|_inf; the value must be exactly
    what :func:`form_value` recomputes from (q, X).
    """

    q: tuple
    height: int
    value: float

    def __post_init__(self):
        q_arr = _int_vector(self.q)
        object.__setattr__(self, "q", tuple(int(v) for v in q_arr))
        if self.height != int(np.max(np.abs(q_arr))):
            raise PreconditionError("stored height disagrees with |q|_inf")
        if self.value < 0:
            raise PreconditionError("form value is non-negative")

    @classmethod
    def of(cls, q, point: MatrixPoint) -> "Witness":
        q_arr = _int_vector(q, point.m)
        return cls(tuple(int(v) for v in q_arr), int(np.max(np.abs(q_arr))), form_value(q_arr, point))

    def check_against(self, point: MatrixPoint) -> bool:
        return form_value(self.q, point) == self.value


def form_value(q, X: MatrixPoint) -> float:
    """|qX|_inf = max over columns j of |sum_i q_i x_ij|."""
    q_arr = _int_vector(q, X.m)
    return float(np.max(np.abs(q_arr @ X.entries)))


def resonant_distance(X: MatrixPoint, q) -> float:
    """Distance from X to the resonant set R_q (see module docstring)."""
    q_arr = _int_vector(q, X.m)
    return float(np.max(np.abs(q_arr @ X.entries)) / np.linalg.norm(q_arr.astype(float)))


def in_delta_neighborhood(X: MatrixPoint, q, psi: ApproximatingFunction) -> bool:
    """Whether X lies within the Psi(|q|)-neighborhood of R_q, Psi = psi(r)/r."""
    q_arr = _int_vector(q, X.m)
    height = int(np.max(np.abs(q_arr)))
    return resonant_distance(X, q_arr) <= psi.big_psi(height)


@dataclass(frozen=True)
class UbiquityConfig:
    """Parameters of the neighborhood-density machinery.

    gamma and delta are the resonant-set and ambient dimensions (m-1)*n and
    m*n; rho(t) = m * (k**t)**(-m/n) * omega(t) is derived, never stored.
    """

    m: int
    n: int
    omega: object            # OmegaFunction | StepOmega | callable
    k: float = 2.0
    density_kappa: float = 0.5

    def __post_init__(self):
        if self.m < 2 or self.n < 1:
            raise PreconditionError("need m >= 2 and n >= 1")
        if self.k <= 1:
            raise PreconditionError("dyadic base k must exceed 1")
        if not 0 < self.density_kappa < 1:
            raise PreconditionError("density constant must lie in (0, 1)")
        if not callable(self.omega):
            raise PreconditionError("omega must be callable")

    @property
    def gamma(self) -> int:
        return (self.m - 1) * self.n

    @property
    def delta(self) -> int:
        return self.m * self.n

    def rho(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = self.m * (self.k ** t_arr) ** (-self.m / self.n) * np.asarray(self.omega(t_arr), dtype=float)
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def validate_omega(self, t_grid=None, doubling_bound=8.0) -> None:
        """Grid check that omega is positive, increasing, with 1/omega -> 0."""
        if t_grid is None:
            t_grid = np.arange(1, 65, dtype=float)
        vals = np.asarray(self.omega(t_grid), dtype=float)
        if np.any(vals <= 0):
            raise PreconditionError("omega must be positive")
        if np.any(np.diff(vals) < 0):
            raise PreconditionError("omega must be non-decreasing")
        if vals[-1] <= vals[0]:
            raise PreconditionError("omega must grow along the grid (1/omega -> 0)")
        half = vals[: len(vals) // 2]
        doubled = np.asarray(self.omega(2 * t_grid[: len(half)]), dtype=float)
        if np.any(doubled >= doubling_bound * half):
            raise PreconditionError("omega violates the doubling bound on the grid")


@dataclass(frozen=True)
class KRegularityReport:
    """Outcome of the numeric k-regularity check."""

    regular: bool
    lam: float          # smallest ratio bound holding from t_start on (when regular)
    t_start: int
    ratios: tuple

    def __bool__(self):
        return self.regular


def is_k_regular(u, k, horizon, t_min=1) -> KRegularityReport:
    """Numerically test u(k^(t+1)) <= lam * u(k^t) with some lam < 1 eventually.

    Samples t = t_min .. horizon.  Returns the smallest observed suffix bound
    lam < 1 together with the first stage it holds from; reports failure when
    the suffix ratios reach 1 or higher all the way to the horizon.
    """
    if k <= 1:
        raise PreconditionError("k must exceed 1")
    if horizon < t_min + 1:
        raise PreconditionError("horizon too small to form any ratio")
    t_vals = np.arange(t_min, horizon + 1)
    samples = np.asarray([float(u(float(k) ** t)) for t in t_vals], dtype=float)
    if np.any(samples <= 0) or not np.all(np.isfinite(samples)):
        raise PreconditionError("u must be positive and finite on the sampled grid")
    ratios = samples[1:] / samples[:-1]
    # suffix maxima: lam(t0) = max ratio from stage t0 to the horizon
    suffix_max = np.maximum.accumulate(ratios[::-1])[::-1]
    ok = np.nonzero(suffix_max < 1.0)[0]
    if ok.size == 0:
        return KRegularityReport(False, float("nan"), -1, tuple(ratios))
    first = int(ok[0])
    return KRegularityReport(True, float(suffix_max[first]), int(t_vals[first]), tuple(ratios))
