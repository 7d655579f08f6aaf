"""Rank-deficiency certification and the embedding that populates the
approximable set on the determinantal variety when m <= n.

The variety Gamma is implemented as {X : every m x m column minor vanishes},
i.e. rank(X) <= m - 1; it has dimension (m-1)(n+1) = mn - (n-m+1).  Points
are produced by the embedding

    eta(X^(1), ..., X^(m-1), a) =
        (X^(1), ..., X^(m-1), sum_j a_j^(1) X^(j), ..., sum_j a_j^(n-m+1) X^(j)),

whose outputs are exactly rank-deficient by construction and inherit every
witness of the base block up to the constant c = max((m-1)/2, 1):
|q . sum_j a_j X^(j)| <= (sum_j |a_j|) psi(|q|) <= c psi(|q|).

"Uniform on Gamma" always means the pushforward of uniform base x uniform
coefficients under eta, never surface measure; reports carry that label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, OutOfCubeError, PreconditionError
from .forms import MatrixPoint, form_value
from .functions import ApproximatingFunction, DimensionFunction
from .measure import (_cutoff_schedule, _estimate, _nested_hits, _seed_sequence, _seeded_source,
                      batch_has_witness)
from .search import SearchBudget, witnesses
from .series import criterion_terms, _first_valid_r, _heights

__all__ = [
    "EmbeddingInput",
    "GammaPoint",
    "MembershipCertificate",
    "AbsorptionReport",
    "minor_defect",
    "eta_embed",
    "certify_A_membership",
    "gamma_dichotomy",
    "constant_absorption_check",
    "sample_gamma_points",
]

GAMMA_MEASURE_LABEL = "eta-pushforward measure"
_MINOR_BUDGET = 10_000
_BASE_SV_FLOOR = 1e-9
_DEFECT_TOLERANCE = 1e-12


def absorption_constant(m) -> float:
    """c = max((m-1)/2, 1), the witness inflation of the embedding."""
    return max((m - 1) / 2.0, 1.0)


@dataclass(frozen=True)
class EmbeddingInput:
    """Base block columns and combination coefficients feeding the embedding.

    ``base`` is m x (m-1) with linearly independent columns in the cube;
    ``coefficients`` is (n-m+1) x (m-1) with entries strictly inside
    (-1/2, 1/2).
    """

    base: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        coeff = np.asarray(self.coefficients, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1] + 1:
            raise PreconditionError("base block must be m x (m-1)")
        if np.any(np.abs(base) > 0.5):
            raise PreconditionError("base columns must lie in the cube")
        if coeff.ndim != 2 or coeff.shape[1] != base.shape[1]:
            raise PreconditionError("coefficients must be (n-m+1) x (m-1)")
        if np.any(np.abs(coeff) >= 0.5):
            raise PreconditionError("coefficients must lie strictly inside (-1/2, 1/2)")
        if np.linalg.svd(base, compute_uv=False)[-1] <= _BASE_SV_FLOOR:
            raise PreconditionError("base columns are numerically dependent")
        base = base.copy()
        coeff = coeff.copy()
        base.flags.writeable = False
        coeff.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coefficients", coeff)

    @property
    def m(self) -> int:
        return self.base.shape[0]


@dataclass(frozen=True)
class GammaPoint:
    """A cube point certified (or constructed) to have rank <= m-1.

    Construction data is present exactly when the point came out of the
    embedding; the defect field stores the largest column-minor determinant
    seen at certification time.
    """

    point: MatrixPoint
    rank_deficient: bool
    defect: float
    construction: EmbeddingInput | None = None

    @property
    def has_construction(self) -> bool:
        return self.construction is not None

    def to_json_dict(self) -> dict:
        """Lossless serialization including the construction data."""
        out = {
            "m": self.point.m,
            "n": self.point.n,
            "entries": [[float(v) for v in row] for row in self.point.entries],
            "rank_deficient": self.rank_deficient,
            "defect": self.defect,
        }
        if self.construction is not None:
            out["base"] = [[float(v) for v in row] for row in self.construction.base]
            out["coefficients"] = [
                [float(v) for v in row] for row in self.construction.coefficients
            ]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "GammaPoint":
        construction = None
        if "base" in data:
            construction = EmbeddingInput(
                np.asarray(data["base"], dtype=float),
                np.asarray(data["coefficients"], dtype=float),
            )
        return cls(
            MatrixPoint(np.asarray(data["entries"], dtype=float)),
            bool(data["rank_deficient"]),
            float(data["defect"]),
            construction,
        )


def minor_defect(X: MatrixPoint) -> float:
    """Largest |det| over all m x m column submatrices (0 iff rank <= m-1)."""
    if X.m > X.n:
        raise PreconditionError("minor defect needs m <= n")
    count = math.comb(X.n, X.m)
    if count > _MINOR_BUDGET:
        raise BudgetExceededError(f"{count} column minors exceed the {_MINOR_BUDGET} budget")
    worst = 0.0
    for cols in combinations(range(X.n), X.m):
        worst = max(worst, abs(float(np.linalg.det(X.entries[:, cols]))))
    return worst


def eta_embed(embedding: EmbeddingInput, n) -> GammaPoint:
    """Assemble the full m x n matrix whose last n-m+1 columns are the stated
    base-column combinations.

    Raises :class:`OutOfCubeError` when a combination column leaves the cube
    (possible once m > 3 since sum_j |a_j| can reach (m-1)/2 > 1).
    """
    m = embedding.m
    if n < m:
        raise PreconditionError("need n >= m")
    if embedding.coefficients.shape[0] != n - m + 1:
        raise PreconditionError(f"expected {n - m + 1} coefficient rows for n = {n}")
    combos = embedding.base @ embedding.coefficients.T  # (m, n-m+1)
    if np.any(np.abs(combos) > 0.5):
        raise OutOfCubeError("a combination column leaves the cube")
    full = np.column_stack([embedding.base, combos])
    point = MatrixPoint(full)
    defect = minor_defect(point)
    return GammaPoint(point, defect <= _DEFECT_TOLERANCE, defect, embedding)


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of replaying base-block witnesses against the full matrix."""

    certified: bool
    c: float
    witnesses_checked: tuple
    failures: tuple = ()
    vacuous: bool = False

    def __bool__(self):
        return self.certified


def certify_A_membership(point: GammaPoint, psi: ApproximatingFunction,
                         q_max) -> MembershipCertificate:
    """Check that every base-block psi-witness up to Q is a c*psi-witness of
    the full matrix, c = max((m-1)/2, 1).

    This restates a proved inclusion, so ``certified`` must come back True on
    valid constructions; a False is a bug, and the failing witnesses are
    returned for diagnosis.  When the base block has no witness below Q the
    certificate is vacuous and flagged as such.
    """
    if not point.has_construction:
        raise PreconditionError("certification needs the eta construction data")
    emb = point.construction
    m = emb.m
    c = absorption_constant(m)
    base_point = MatrixPoint(emb.base)
    base_wits = witnesses(base_point, psi, SearchBudget(q_max)).witnesses
    failures = []
    for w in base_wits:
        if not form_value(w.q, point.point) < c * psi(float(w.height)):
            failures.append(w)
    return MembershipCertificate(
        certified=not failures,
        c=c,
        witnesses_checked=base_wits,
        failures=tuple(failures),
        vacuous=not base_wits,
    )


# ---------------------------------------------------------------------------
# sampling the variety through the embedding
# ---------------------------------------------------------------------------

def _sample_eta_batch(rng, count, m, n):
    """Batch of full matrices from uniform base x coefficients, and the
    (count, n-m+1, m-1) coefficients.

    Rows with a near-dependent base, a coefficient on the cube's edge -1/2,
    or combination columns leaving the cube (possible once m > 3) are redrawn
    from the same stream until every row is a valid :class:`EmbeddingInput`.
    """
    out = np.empty((count, m, n))
    coeffs = np.empty((count, n - m + 1, m - 1))
    todo = np.arange(count)
    while todo.size:
        base = rng.random((todo.size, m, m - 1)) - 0.5
        coeff = rng.random((todo.size, n - m + 1, m - 1)) - 0.5
        combos = np.einsum("smj,scj->smc", base, coeff)
        good = np.linalg.svd(base, compute_uv=False)[..., -1] > _BASE_SV_FLOOR
        good &= np.all(np.abs(combos) <= 0.5, axis=(1, 2)) & np.all(coeff > -0.5, axis=(1, 2))
        out[todo[good]] = np.concatenate([base, combos], axis=2)[good]
        coeffs[todo[good]] = coeff[good]
        todo = todo[~good]
    return out, coeffs


def sample_gamma_points(m, n, count, seed) -> list:
    """Seeded GammaPoint draws under the eta-pushforward measure: one
    :func:`_sample_eta_batch` draw, each row embedded by :func:`eta_embed`."""
    if not 2 <= m <= n or count < 0:
        raise PreconditionError("need 2 <= m <= n and count >= 0")
    rng = np.random.Generator(np.random.PCG64(_seed_sequence(seed)))
    full, coeffs = _sample_eta_batch(rng, count, m, n)
    return [eta_embed(EmbeddingInput(x[:, : m - 1], a), n) for x, a in zip(full, coeffs)]


def gamma_dichotomy(m, n, psi: ApproximatingFunction, n_schedule, q_max,
                    samples=2000, seed=0, threads=1) -> list:
    """Tail dichotomy on the variety: fraction of eta-sampled points with a
    c*psi-witness of the full matrix at height N <= |q| <= Q, per cutoff N.

    The sampling measure is the eta-pushforward (uniform independent base
    block times uniform coefficients), which is what the product-measure
    argument on the variety uses; reports carry that label.
    """
    if not 2 <= m <= n:
        raise PreconditionError("need 2 <= m <= n")
    schedule = _cutoff_schedule(n_schedule, q_max)
    c = absorption_constant(m)
    # matrices are drawn per fixed-size batch (1024, which fixes the seeded
    # streams) from spawned substreams so the counts are independent of the
    # thread schedule
    source = _seeded_source(samples, seed, lambda rng, size: _sample_eta_batch(rng, size, m, n)[0],
                            batch=1024)
    return _estimate(
        "gamma-dichotomy",
        {"m": m, "n": n, "psi": psi.spec(), "Q": q_max, "c": c, "measure": GAMMA_MEASURE_LABEL},
        "N", schedule, source,
        _nested_hits(m, n, schedule, q_max, batch_has_witness, psi, c), threads,
        {"schedule": tuple(schedule), "measure": GAMMA_MEASURE_LABEL})


# ---------------------------------------------------------------------------
# constant absorption in the criterion sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsorptionReport:
    ok: bool
    c1: float                    # c^(-(m-1)(n+1))
    ratio_min: float
    ratio_max: float
    checkpoints: tuple = field(default=(), repr=False)

    def __bool__(self):
        return self.ok


def constant_absorption_check(m, n, f: DimensionFunction, psi: ApproximatingFunction,
                              c, horizon=1_000_000) -> AbsorptionReport:
    """Verify numerically that rescaling psi by 1/c only moves the criterion
    sum by a bounded factor.

    Needs r^(-(m-1)(n+1)) f(r) non-increasing; then partial sums for psi and
    psi/c stay within [c1, 1/c1] of each other, c1 = c^(-(m-1)(n+1)), and in
    particular diverge together.
    """
    if c < 1:
        raise PreconditionError("the absorption constant satisfies c >= 1")
    sheet = (m - 1) * (n + 1)
    if not f.scaled_decreasing(sheet):
        raise PreconditionError(
            "side condition failed: r^(-(m-1)(n+1)) f(r) must be non-increasing"
        )
    c1 = float(c) ** (-sheet)
    psi_scaled = psi.scaled(1.0 / c)
    r0 = max(_first_valid_r(f, psi.big_psi), _first_valid_r(f, psi_scaled.big_psi))
    r = _heights(r0, horizon)
    sums = np.cumsum(criterion_terms(m, n, f, psi, r))
    sums_c = np.cumsum(criterion_terms(m, n, f, psi_scaled, r))
    idx = np.unique(np.geomspace(1, len(r), 32).astype(int)) - 1
    ratios = sums[idx] / sums_c[idx]
    ok = bool(np.all(ratios >= c1 - 1e-12) and np.all(ratios <= 1.0 / c1 + 1e-12))
    return AbsorptionReport(
        ok,
        c1,
        float(ratios.min()),
        float(ratios.max()),
        tuple(zip((idx + r0).tolist(), ratios.tolist())),
    )
