"""Parametric families for the approximating function psi and the dimension
function f.

Only power / power-log families plus explicit tables are supported.  That is
enough for every configuration the laboratory runs, and it keeps the
monotonicity side conditions decidable from the parameters instead of needing
symbolic analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import PreconditionError

__all__ = [
    "ApproximatingFunction",
    "DimensionFunction",
    "OmegaFunction",
    "StepOmega",
]

_E = math.e
# a power-log psi is non-increasing on r >= 1 iff kappa >= -tau * this ratio:
# the minimum over r >= 1 of (1 + e/r) ln(e + r), reached where r = e ln(e + r)
_POWERLOG_KAPPA_RATIO = 3.1461932206205825


def _as_fraction(x) -> Fraction:
    """Exact rational view of a parameter (floats converted losslessly)."""
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# psi: positive decreasing functions of the height r >= 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximatingFunction:
    """The function psi controlling how small the forms must be at height r.

    Families:
      * ``power``:     psi(r) = c * r**(-tau)
      * ``powerlog``:  psi(r) = c * r**(-tau) * log(e + r)**(-kappa)
      * ``table``:     explicit (r, psi(r)) pairs, step-interpolated

    A valid approximating function is positive, non-increasing and tends to 0.
    Construction rejects parameters violating that unless ``strict=False`` is
    passed; the escape hatch exists so covering experiments can use inflated
    widths (e.g. psi(r) = m*r) that trivially swallow the whole cube.
    Non-finite parameters or table entries are always rejected.
    """

    family: str
    c: float = 1.0
    tau: float = 0.0
    kappa: float = 0.0
    table_r: tuple = field(default=(), repr=False)
    table_v: tuple = field(default=(), repr=False)
    strict: bool = True

    def __post_init__(self):
        if self.family not in ("power", "powerlog", "table"):
            raise PreconditionError(f"unknown psi family {self.family!r}")
        if self.family == "table":
            r = np.asarray(self.table_r, dtype=float)
            v = np.asarray(self.table_v, dtype=float)
            if r.size < 2 or r.size != v.size:
                raise PreconditionError("table psi needs >= 2 (r, value) pairs")
            if not np.all(np.isfinite(np.concatenate([r, v]))):
                raise PreconditionError("table entries must be finite")
            if np.any(np.diff(r) <= 0):
                raise PreconditionError("table heights must be strictly increasing")
            if np.any(v <= 0):
                raise PreconditionError("table values must be positive")
            if self.strict and not self.non_increasing:
                raise PreconditionError("table values must be non-increasing")
            return
        if not all(math.isfinite(x) for x in (self.c, self.tau, self.kappa)):
            raise PreconditionError("psi parameters c, tau and kappa must be finite")
        if not self.c > 0:
            raise PreconditionError("psi scale c must be positive")
        if self.family == "power" and self.kappa != 0.0:
            raise PreconditionError("power family carries no log exponent")
        if self.strict:
            decays = self.tau > 0 or (self.tau == 0 and self.kappa > 0)
            if not decays:
                raise PreconditionError(
                    "psi must decrease to 0: need tau > 0 (or tau = 0 with kappa > 0)"
                )
            if not self.non_increasing:
                raise PreconditionError(
                    f"power-log psi increases somewhere on r >= 1: need kappa >= "
                    f"-{_POWERLOG_KAPPA_RATIO:.4f} tau"
                )

    # -- constructors -------------------------------------------------------

    @classmethod
    def power(cls, c, tau, strict=True) -> "ApproximatingFunction":
        # parameters are kept as passed so exact rationals survive for the
        # series engine's exponent bookkeeping
        return cls("power", c=c, tau=tau, strict=strict)

    @classmethod
    def power_log(cls, c, tau, kappa, strict=True) -> "ApproximatingFunction":
        return cls("powerlog", c=c, tau=tau, kappa=kappa, strict=strict)

    @classmethod
    def from_table(cls, pairs, strict=True) -> "ApproximatingFunction":
        pairs = sorted((float(r), float(v)) for r, v in pairs)
        return cls(
            "table",
            table_r=tuple(p[0] for p in pairs),
            table_v=tuple(p[1] for p in pairs),
            strict=strict,
        )

    # -- evaluation ---------------------------------------------------------

    def __call__(self, r):
        """psi(r); accepts scalars or numpy arrays, r > 0."""
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0):
            raise PreconditionError("psi is only defined for positive heights")
        if self.family == "power":
            out = float(self.c) * r_arr ** (-float(self.tau))
        elif self.family == "powerlog":
            out = (
                float(self.c)
                * r_arr ** (-float(self.tau))
                * np.log(_E + r_arr) ** (-float(self.kappa))
            )
        else:
            # step interpolation: value of the largest tabulated height <= r,
            # clamped to the table ends
            idx = np.clip(np.searchsorted(self.table_r, r_arr, side="right") - 1, 0, len(self.table_r) - 1)
            out = np.asarray(self.table_v, dtype=float)[idx]
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def big_psi(self, r):
        """Psi(r) = psi(r) / r, the neighborhood width at height r."""
        r_arr = np.asarray(r, dtype=float)
        out = self(r_arr) / r_arr
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def scaled(self, factor) -> "ApproximatingFunction":
        """The function factor * psi, same family."""
        if self.family == "table":
            return ApproximatingFunction.from_table(
                zip(self.table_r, (factor * v for v in self.table_v)), strict=self.strict
            )
        return ApproximatingFunction(
            self.family, c=factor * float(self.c), tau=self.tau, kappa=self.kappa,
            strict=self.strict,
        )

    @property
    def non_increasing(self) -> bool:
        """Whether psi is non-increasing on r >= 1.

        For the power-log family (log psi)' = -tau/r - kappa/((e + r) ln(e + r)),
        which is <= 0 on r >= 1 exactly when tau >= 0 and
        kappa >= -tau min_{r >= 1} (1 + e/r) ln(e + r).  The strict
        construction and the pruned witness search both check this.
        """
        if self.family == "table":
            return bool(np.all(np.diff(self.table_v) <= 0))
        return self.tau >= 0 and self.kappa >= -self.tau * _POWERLOG_KAPPA_RATIO

    @property
    def closed_form(self) -> bool:
        return self.family in ("power", "powerlog")

    def spec(self) -> str:
        """Shell-grammar rendering of this family (see the CLI)."""
        if self.family == "power":
            return f"pow:{float(self.c)!r},{float(self.tau)!r}"
        if self.family == "powerlog":
            return f"powlog:{float(self.c)!r},{float(self.tau)!r},{float(self.kappa)!r}"
        return "table:<inline>"


# ---------------------------------------------------------------------------
# f: dimension functions near 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionFunction:
    """Gauge function f used to grade Hausdorff-type content.

    Families:
      * ``power``:    f(r) = r**s
      * ``powerlog``: f(r) = r**s * log(1/r)**kappa   (r < 1)

    Near 0 every member is eventually monotone, and the behaviour of the
    rescalings r**(-b) * f(r) is decidable exactly from (s, kappa); those
    predicates are what the verdict engine consumes.
    """

    family: str
    s: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.family not in ("power", "powerlog"):
            raise PreconditionError(f"unknown f family {self.family!r}")
        if not (math.isfinite(self.s) and math.isfinite(self.kappa)):
            raise PreconditionError("f parameters s and kappa must be finite")
        if self.s < 0:
            raise PreconditionError("f exponent s must be >= 0")
        if self.family == "power" and self.kappa != 0.0:
            raise PreconditionError("power family carries no log exponent")
        if not self.vanishes_at_zero():
            raise PreconditionError("f(r) must tend to 0 as r -> 0 (s > 0, or s = 0 with kappa < 0)")

    @classmethod
    def power(cls, s) -> "DimensionFunction":
        return cls("power", s=s)

    @classmethod
    def power_log(cls, s, kappa) -> "DimensionFunction":
        return cls("powerlog", s=s, kappa=kappa)

    def __call__(self, r):
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0):
            raise PreconditionError("f is only defined for positive arguments")
        if self.family == "power":
            out = r_arr ** float(self.s)
        else:
            if np.any(r_arr >= 1):
                raise PreconditionError("power-log f is only defined for r < 1")
            out = r_arr ** float(self.s) * np.log(1.0 / r_arr) ** float(self.kappa)
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    # -- exact behaviour of r**(-b) * f(r) as r -> 0+ -----------------------

    def _decay(self, b=0) -> int:
        """(s - b, -kappa) against (0, 0) in lexicographic order: 1 where
        r**(-b) * f(r) -> 0, 0 where it is constant, -1 where it blows up."""
        key = (_as_fraction(self.s) - _as_fraction(b), -_as_fraction(self.kappa))
        return (key > (0, 0)) - (key < (0, 0))

    def vanishes_at_zero(self) -> bool:
        return self._decay() > 0

    def scaled_limit(self, b) -> str:
        """Limit of r**(-b) * f(r) at 0+: 'zero', 'constant' or 'infinity'."""
        return ("infinity", "constant", "zero")[self._decay(b) + 1]

    def scaled_increasing(self, b) -> bool:
        """True when r**(-b) * f(r) is (weakly) increasing in r near 0."""
        return self._decay(b) >= 0

    def scaled_decreasing(self, b) -> bool:
        """True when r**(-b) * f(r) is (weakly) decreasing in r near 0."""
        return self._decay(b) <= 0

    def scaled(self, b) -> "DimensionFunction":
        """The transform r -> r**(-b) * f(r) as a new family member.

        Raises if the result is not itself a dimension function.
        """
        s_new = _as_fraction(self.s) - _as_fraction(b)
        if self.family == "power":
            return DimensionFunction.power(s_new)
        return DimensionFunction.power_log(s_new, self.kappa)

    def spec(self) -> str:
        if self.family == "power":
            return f"pow:{float(self.s)!r}"
        return f"powlog:{float(self.s)!r},{float(self.kappa)!r}"


# ---------------------------------------------------------------------------
# omega: slowly growing weight functions of the dyadic stage t
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaFunction:
    """Positive increasing weight omega(t) with 1/omega(t) -> 0.

    Families: ``power`` (omega(t) = scale * t**exponent) and ``table``.
    Step functions built from a divergent series live in :class:`StepOmega`.
    """

    family: str
    exponent: float = 1.0
    scale: float = 1.0
    table_t: tuple = field(default=(), repr=False)
    table_v: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.family not in ("power", "table"):
            raise PreconditionError(f"unknown omega family {self.family!r}")
        if self.family == "power":
            if not (0 < self.exponent < math.inf and 0 < self.scale < math.inf):
                raise PreconditionError("power omega needs a positive finite scale and exponent")
        else:
            t = np.asarray(self.table_t, dtype=float)
            v = np.asarray(self.table_v, dtype=float)
            if t.size < 2 or t.size != v.size:
                raise PreconditionError("table omega needs >= 2 points")
            if (not np.all(np.isfinite(np.concatenate([t, v]))) or np.any(np.diff(t) <= 0)
                    or np.any(v <= 0) or np.any(np.diff(v) < 0)):
                raise PreconditionError("table omega must be finite, positive and non-decreasing")

    @classmethod
    def power(cls, exponent, scale=1.0) -> "OmegaFunction":
        return cls("power", exponent=float(exponent), scale=float(scale))

    @classmethod
    def from_table(cls, pairs) -> "OmegaFunction":
        pairs = sorted((float(t), float(v)) for t, v in pairs)
        return cls("table", table_t=tuple(p[0] for p in pairs), table_v=tuple(p[1] for p in pairs))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr <= 0):
            raise PreconditionError("omega is only defined for positive stages")
        if self.family == "power":
            out = self.scale * t_arr ** self.exponent
        else:
            idx = np.clip(np.searchsorted(self.table_t, t_arr, side="right") - 1, 0, len(self.table_t) - 1)
            out = np.asarray(self.table_v, dtype=float)[idx]
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def doubling_bounded(self, c_bound, t_grid) -> bool:
        """Check omega(2t) < c_bound * omega(t) along a stage grid."""
        t_grid = np.asarray(t_grid, dtype=float)
        return bool(np.all(self(2 * t_grid) < c_bound * self(t_grid)))

    def spec(self) -> str:
        """Shell-grammar rendering of this family (see the CLI)."""
        if self.family == "power":
            return f"pow:{float(self.exponent)!r},{float(self.scale)!r}"
        return "table:<inline>"


@dataclass(frozen=True)
class StepOmega:
    """Step function omega(r) = i**(1/n) on the i-th block (r_{i-1}, r_i].

    Built by the series engine from the blocks of a divergent criterion sum;
    below the first breakpoint, and past the last, the nearest block value is
    used.
    """

    breakpoints: tuple   # r_0 < r_1 < ... < r_B
    n: int

    def __post_init__(self):
        if len(self.breakpoints) < 3:
            raise PreconditionError("step omega needs at least two blocks")
        if any(lo >= hi for lo, hi in zip(self.breakpoints, self.breakpoints[1:])):
            raise PreconditionError("breakpoints must increase")

    @property
    def block_count(self) -> int:
        return len(self.breakpoints) - 1

    def __call__(self, r):
        r_arr = np.asarray(r, dtype=float)
        bp = np.asarray(self.breakpoints, dtype=float)
        # block index i >= 1 with r in (r_{i-1}, r_i]; clamp outside the range
        idx = np.clip(np.searchsorted(bp, r_arr, side="left"), 1, self.block_count)
        out = idx.astype(float) ** (1.0 / self.n)
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out
