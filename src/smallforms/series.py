"""Convergence criteria, measure-class verdicts, dimension formulas, and the
step-weight construction used on the divergence side.

Everything revolves around the criterion sum with general term

    u(r) = f(Psi(r)) * Psi(r)**(-(m-1)n) * r**(m-1),      Psi(r) = psi(r)/r,

evaluated through f itself.  :func:`verdict` states the dichotomy once: a
convergent sum gives f-content zero, a divergent one that of the reference
set, read off the limit of r**(-D) f(r) at 0+: the cube (D = mn) for m > n,
the rank <= m-1 variety (D = (m-1)(n+1)) for 2 <= m <= n.

For the power or power-log families the term collapses to r**E * (log r)**K
with exactly computable rational exponents, so convergence is decided in
closed form; explicit tables only get a clearly-flagged partial-sum
heuristic.  Numeric sums stop with :class:`BudgetExceededError` past
``_TERM_BUDGET`` heights or where a term leaves the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, HorizonTooSmallError, PreconditionError
from .functions import ApproximatingFunction, DimensionFunction, StepOmega, _as_fraction

__all__ = [
    "SeriesBehavior",
    "Verdict",
    "classify_series",
    "criterion_terms",
    "verdict",
    "dimension_formula",
    "build_omega",
    "sum_equivalence_check",
    "SumEquivalenceReport",
]


# the most heights one partial sum runs over: 32 times the default horizon
_TERM_BUDGET = 1 << 25


def _check_mn(m, n):
    if m < 1 or n < 1:
        raise PreconditionError("need m >= 1 and n >= 1")


# ---------------------------------------------------------------------------
# series classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesBehavior:
    """Convergence record for the criterion sum.

    ``r_exponent`` / ``log_exponent`` are the exact exponents E and K of the
    asymptotic term r**E (log r)**K when the closed form applies.  The
    partial-sum path sets ``non_rigorous`` and leaves the exponents None.
    """

    convergent: bool
    method: str                      # "closed-form" | "partial-sum"
    r_exponent: Fraction | None = None
    log_exponent: Fraction | None = None
    non_rigorous: bool = False
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def divergent(self) -> bool:
        return not self.convergent

    def describe(self) -> str:
        tag = "convergent" if self.convergent else "divergent"
        if self.method == "closed-form":
            return f"{tag} (term ~ r^{self.r_exponent} log(r)^{self.log_exponent})"
        return f"{tag} (partial-sum heuristic, non-rigorous)"


def criterion_terms(m, n, f: DimensionFunction, psi: ApproximatingFunction, r):
    """General term f(Psi(r)) Psi(r)^(-(m-1)n) r^(m-1), vectorized over r."""
    _check_mn(m, n)
    r_arr = np.asarray(r, dtype=float)
    out = _float_terms("Psi", psi.big_psi(r_arr),
                       lambda g: f(g) * g ** (-(m - 1) * n) * r_arr ** (m - 1))
    return float(out) if np.ndim(r) == 0 else out


def _float_terms(name, g, term):
    """``term(g)`` for the threshold values g (Psi or psi) at the summed
    heights: a g that underflows to 0 (f is not defined there) or a term
    outside the float range is a :class:`BudgetExceededError`."""
    if np.any(g == 0):
        raise BudgetExceededError(f"{name}(r) underflows to 0: the summed terms leave the float range")
    with np.errstate(over="ignore", invalid="ignore"):
        out = term(g)
    if not np.all(np.isfinite(out)):
        raise BudgetExceededError("a summed term leaves the float range")
    return out


def _heights(r0, horizon):
    """The summed heights r0, ..., horizon as floats, within the term budget."""
    if horizon > _TERM_BUDGET:
        raise BudgetExceededError(f"horizon {horizon} exceeds the term budget {_TERM_BUDGET}")
    return np.arange(r0, horizon + 1, dtype=float)


def _first_valid_r(f, g, limit=1 << 12):
    """Smallest integer height at which the term is defined: 1 for power f,
    else the first r with g(r) < 1 (g is Psi, or psi in the sum comparison)."""
    if f.family == "power":
        return 1
    r = 1
    while r <= limit and g(float(r)) >= 1:
        r += 1
    if r > limit:
        raise PreconditionError("the threshold never drops below 1 on the probe range")
    return r


def classify_series(m, n, f: DimensionFunction, psi: ApproximatingFunction,
                    horizon=1 << 20) -> SeriesBehavior:
    """Decide convergence of  sum_r f(Psi(r)) Psi(r)^(-(m-1)n) r^(m-1).

    Closed form for power/power-log psi: with gamma = (m-1)n the term is
    asymptotically r**E (log r)**K where

        E = (m-1) - (tau+1) (s - gamma),    K = kappa_f - kappa_psi (s - gamma),

    convergent iff E < -1, or E = -1 and K < -1.  The E = -1, K = -1
    boundary (term ~ 1/(r log r)) is classified divergent.  Table psi falls
    back to a partial-sum growth heuristic flagged non-rigorous.
    """
    _check_mn(m, n)
    gamma = (m - 1) * n
    if psi.closed_form:
        s = _as_fraction(f.s)
        kf = _as_fraction(f.kappa)
        tau = _as_fraction(psi.tau)
        kp = _as_fraction(psi.kappa)
        excess = s - gamma
        e_exp = (m - 1) - (tau + 1) * excess
        k_exp = kf - kp * excess
        convergent = e_exp < -1 or (e_exp == -1 and k_exp < -1)
        return SeriesBehavior(convergent, "closed-form", e_exp, k_exp)

    # table psi: compare partial-sum increments on doubling windows
    r0 = _first_valid_r(f, psi.big_psi)
    partial = np.cumsum(criterion_terms(m, n, f, psi, _heights(r0, horizon)))
    checkpoints = [partial[min(len(partial), (horizon >> k)) - 1] for k in (2, 1, 0)]
    inc_old = checkpoints[1] - checkpoints[0]
    inc_new = checkpoints[2] - checkpoints[1]
    decaying = inc_new < 0.5 * inc_old or inc_new < 1e-12 * max(partial[-1], 1.0)
    return SeriesBehavior(
        bool(decaying),
        "partial-sum",
        non_rigorous=True,
        diagnostics={"partial_sum": float(partial[-1]), "increments": (float(inc_old), float(inc_new))},
    )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

_TAGS = ("zero", "full-lebesgue", "infinite-hf", "hf-of-gamma", "singleton")

# (case, limit of r^-D f at 0+) -> the tag and the close of the justification
# on the divergence side; D = mn if m > n (independent), else (m-1)(n+1)
_DIVERGENT = {
    ("independent", "infinity"): ("infinite-hf", " and the ambient f-content is infinite"),
    ("independent", "constant"): ("full-lebesgue", "; f is the ambient volume gauge so the set "
                                  "has full Lebesgue measure"),
    ("independent", "zero"): ("zero", " but the ambient f-content itself vanishes"),
    ("dependent", "infinity"): ("infinite-hf", " and r^(-(m-1)(n+1)) f(r) -> infinity"),
    ("dependent", "constant"): ("hf-of-gamma", " and f is comparable to the variety's volume "
                                "gauge; the set fills the rank-deficient variety"),
}


@dataclass(frozen=True)
class Verdict:
    """Measure class of the approximable set plus the reasoning trail."""

    tag: str
    justification: str
    series: SeriesBehavior | None = None
    side_conditions: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise PreconditionError(f"unknown verdict tag {self.tag!r}")


def verdict(m, n, f: DimensionFunction, psi: ApproximatingFunction) -> Verdict:
    """Measure-class verdict for the psi-approximable set under the gauge f.

    m = 1 collapses to a singleton.  Otherwise one path serves both cases:
    the side condition, then the series, then on divergence the limit of
    r^-D f(r) looked up in ``_DIVERGENT``.  For m > n (D = mn) the set has zero,
    full Lebesgue or infinite ambient f-content; for 2 <= m <= n it lives on
    the rank-deficient variety (D = (m-1)(n+1)), with infinite f-content or
    that of the variety.  Side-condition violations, and a limit of 0 in the
    dependent case, raise :class:`PreconditionError` naming the condition.
    """
    _check_mn(m, n)
    if m == 1:
        return Verdict(
            "singleton",
            "m = 1: |q x_j| < psi(|q|) infinitely often forces x = 0; "
            "the set is a single point with zero measure and dimension",
        )
    case, dim, limit_key = (("independent", m * n, "limit of r^-mn f") if m > n
                            else ("dependent", (m - 1) * (n + 1), "limit of r^-(m-1)(n+1) f"))
    # the dependent case's other condition, r^(-(n-m+1)(m-1)) f a dimension
    # function, follows: its exponent is s - (m-1)n + (m-1)^2 >= 1 once this holds
    checks = {"r^-(m-1)n f increasing": f.scaled_increasing((m - 1) * n)}
    if not checks["r^-(m-1)n f increasing"]:
        raise PreconditionError("side condition failed: r^(-(m-1)n) f(r) must be increasing")
    behavior = classify_series(m, n, f, psi)
    if behavior.convergent:
        return Verdict("zero", f"{case} case, criterion sum converges", behavior, checks)
    checks[limit_key] = f.scaled_limit(dim)
    if (case, checks[limit_key]) not in _DIVERGENT:
        raise PreconditionError(
            "side condition failed: r^(-(m-1)(n+1)) f(r) -> 0 is outside the dichotomy"
        )
    tag, reason = _DIVERGENT[case, checks[limit_key]]
    return Verdict(tag, f"{case} case, criterion sum diverges{reason}", behavior, checks)


def dimension_formula_exact(m, n, tau) -> Fraction:
    """Exact rational form of :func:`dimension_formula` (tau rational)."""
    _check_mn(m, n)
    tau = _as_fraction(tau)
    if tau <= 0:
        raise PreconditionError("tau must be positive")
    if m == 1:
        return Fraction(0)
    sloped = Fraction((m - 1) * n) + Fraction(m) / (tau + 1)
    if m > n:
        return sloped if tau > Fraction(m, n) - 1 else Fraction(m * n)
    return sloped if tau > Fraction(1, m - 1) else Fraction((m - 1) * (n + 1))


def dimension_formula(m, n, tau) -> float:
    """Hausdorff dimension of the tau-approximable set, piecewise in tau.

    m = 1 gives 0.  For m > n the critical threshold is tau = m/n - 1; for
    2 <= m <= n it is tau = m/(m-1) - 1 = 1/(m-1), with the full value being
    the variety dimension (m-1)(n+1) instead of mn.
    """
    return float(dimension_formula_exact(m, n, tau))


# ---------------------------------------------------------------------------
# the step weight of the divergence proof
# ---------------------------------------------------------------------------

def build_omega(m, n, f: DimensionFunction, psi: ApproximatingFunction,
                horizon) -> StepOmega:
    """Break a divergent criterion sum into blocks and return the step weight.

    Produces breakpoints 1 = r_0 < r_1 < ... <= horizon with inclusive block
    sums over [r_{i-1}, r_i] each exceeding 1 and r_i > 2 r_{i-1}; the weight
    is omega(r) = i**(1/n) on block i.  The weighted term u(r) omega(r)^(-n)
    then still diverges: block i keeps a contribution above 1/i.
    """
    behavior = classify_series(m, n, f, psi)
    if behavior.convergent:
        raise PreconditionError("block construction needs a divergent criterion sum")
    if horizon < 8:
        raise HorizonTooSmallError("horizon too small to build blocks")
    r0 = _first_valid_r(f, psi.big_psi)
    terms = criterion_terms(m, n, f, psi, _heights(r0, horizon))
    cum = np.concatenate([np.zeros(r0), np.cumsum(terms)])  # cum[r] = sum_{1..r}

    breakpoints = [1]
    while True:
        prev = breakpoints[-1]
        target = cum[prev - 1] + 1.0  # inclusive sum over [prev, r] must exceed 1
        idx = int(np.searchsorted(cum, target, side="right"))
        # stretching to satisfy the doubling constraint only grows the sum
        r_next = max(idx, 2 * prev + 1)
        if idx > horizon or r_next > horizon:
            break
        breakpoints.append(r_next)
    if len(breakpoints) < 3:
        raise HorizonTooSmallError(
            f"only {len(breakpoints) - 1} block(s) fit below horizon {horizon}"
        )
    return StepOmega(tuple(breakpoints), n)


# ---------------------------------------------------------------------------
# dyadic vs linear partial sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumEquivalenceReport:
    equivalent: bool
    band: float                  # observed C with ratios inside [1/C, C]
    ratios: tuple

    def __bool__(self):
        return self.equivalent


def sum_equivalence_check(alpha, beta, psi: ApproximatingFunction,
                          f: DimensionFunction, k, horizon=1 << 20) -> SumEquivalenceReport:
    """Compare sum_t k^(t alpha) f(psi(k^t)) psi(k^t)^beta against
    sum_r r^(alpha-1) f(psi(r)) psi(r)^beta.

    Both partial-sum sequences are evaluated at the matched checkpoints
    r = k^t; the report carries the observed ratio band C and whether the
    ratio drift over the tail is flat enough to call the sums equivalent
    (a condensation sanity check, not a proof).
    """
    if not 1 < k < math.inf:
        raise PreconditionError("k must be finite and exceed 1")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise PreconditionError("alpha and beta must be finite")
    t_max = int(math.floor(math.log(max(horizon, 1), k)))
    if t_max < 4:
        raise HorizonTooSmallError("horizon admits fewer than 4 dyadic checkpoints")

    r0 = _first_valid_r(f, psi)
    r_vals = _heights(r0, horizon)
    linear_terms = _float_terms("psi", psi(r_vals), lambda g: r_vals ** (alpha - 1) * f(g) * g ** beta)
    linear_cum = np.cumsum(linear_terms)

    t_vals = np.arange(1, t_max + 1, dtype=float)
    kt = float(k) ** t_vals
    keep = kt >= r0
    kt = kt[keep]
    dyadic_cum = np.cumsum(_float_terms("psi", psi(kt), lambda g: kt ** alpha * f(g) * g ** beta))

    ratios = []
    for i, r_ck in enumerate(kt):
        idx = min(int(r_ck) - r0, len(linear_cum) - 1)
        denom = linear_cum[idx]
        ratios.append(dyadic_cum[i] / denom if denom > 0 else math.inf)
    ratios = np.asarray(ratios)
    finite = np.isfinite(ratios) & (ratios > 0)
    if not np.all(finite[len(finite) // 2 :]):
        return SumEquivalenceReport(False, math.inf, tuple(ratios))
    band = float(np.max(np.maximum(ratios[finite], 1.0 / ratios[finite])))
    # drift test: slope of log ratio against t over the tail half
    tail = np.log(ratios[len(ratios) // 2 :])
    ts = np.arange(len(tail), dtype=float)
    slope = float(np.polyfit(ts, tail, 1)[0]) if len(tail) >= 2 else 0.0
    return SumEquivalenceReport(abs(slope) < 0.02, band, tuple(float(x) for x in ratios))
