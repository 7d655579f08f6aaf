"""Monte Carlo estimation of the Lebesgue measure of resonant-neighborhood
unions, plus the deterministic quadrature oracles the estimates are checked
against.

Every estimator runs one loop.  A point source ``(points, n_batches, make)``
builds batch i from i alone: seeded draws (uniform, or eta on the variety)
from child i of ``SeedSequence(master_seed)``, or chunk i of a midpoint grid
or Kronecker sequence.  The runner ``_run`` has each worker thread build and
test its own batch, so at most ``threads`` batches are alive at once, and sums
the counts in batch order, so reports are bit-identical for a fixed master
seed at any thread count.  Counts below 1 raise :class:`PreconditionError`.

Membership in a union of neighborhoods is decided either by the cached-shell
scan (every canonical q in the relevant height range against every sample)
or, for single-form configurations, by the per-tail interval engine from
:mod:`smallforms.search`; the two are cross-validated in the test suite.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .forms import DISTANCE_CONVENTION
from .functions import ApproximatingFunction
from .search import (_dyadic_tail_blocks, _interval_bounds, _k_range, _tails, band_vectors,
                     dirichlet_bound)

__all__ = [
    "ExperimentReport",
    "estimate_delta_t",
    "estimate_E_t",
    "ubiquity_density",
    "tail_dichotomy",
    "delta_t_quadrature",
    "tail_quadrature",
    "ubiquity_quadrature",
    "reports_to_csv_rows",
    "CSV_COLUMNS",
]

_BATCH = 4096
_CELL_BUDGET = 1 << 21          # target elementwise cells per vector pass
_SCAN_BUDGET = 60_000_000_000   # q-cells * samples guard for the direct scan


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "experiment",
    "parameter",
    "parameter_value",
    "estimate",
    "stderr",
    "hits",
    "samples",
    "seed",
    "distance_convention",
)


@dataclass(frozen=True)
class ExperimentReport:
    """Reproducible record of one estimate.

    ``estimate`` is hits/samples with the binomial standard error
    sqrt(p(1-p)/samples); ``params`` carries every knob needed to re-run the
    experiment and ``parameter``/``parameter_value`` name the swept knob for
    CSV emission.
    """

    experiment: str
    params: dict
    seed: int | None
    samples: int
    hits: int
    parameter: str = ""
    parameter_value: float = float("nan")
    duration_s: float = 0.0
    distance_convention: str = DISTANCE_CONVENTION
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not 0 <= self.hits <= self.samples:
            raise PreconditionError("hit count must lie in [0, samples]")

    @property
    def estimate(self) -> float:
        return self.hits / self.samples if self.samples else float("nan")

    @property
    def stderr(self) -> float:
        if not self.samples:
            return float("nan")
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.samples)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "seed": self.seed,
            "samples": self.samples,
            "hits": self.hits,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "parameter": self.parameter,
            "parameter_value": self.parameter_value,
            "duration_s": self.duration_s,
            "distance_convention": self.distance_convention,
            "extras": {k: _jsonable(v) for k, v in self.extras.items()},
        }

    def csv_row(self) -> tuple:
        return (
            self.experiment,
            self.parameter,
            repr(self.parameter_value),
            repr(self.estimate),
            repr(self.stderr),
            self.hits,
            self.samples,
            self.seed if self.seed is not None else "",
            self.distance_convention,
        )


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    return str(v)


def reports_to_csv_rows(reports):
    yield CSV_COLUMNS
    for rep in reports:
        yield rep.csv_row()


# ---------------------------------------------------------------------------
# point sources and the batch runner
# ---------------------------------------------------------------------------

def _batch_count(points, batch):
    if points < 1:
        raise PreconditionError(f"sample and point counts must be >= 1, got {points}")
    return (points + batch - 1) // batch


def _seeded_source(samples, seed, draw, batch=_BATCH):
    """Batch i is ``draw(rng, size)`` with rng on child i of SeedSequence(seed)."""
    n_batches = _batch_count(samples, batch)
    children = np.random.SeedSequence(seed).spawn(n_batches)

    def make(i):
        size = min(batch, samples - i * batch)
        return draw(np.random.Generator(np.random.PCG64(children[i])), size)

    return samples, n_batches, make


def _uniform_draw(dim):
    """Draw for :func:`_seeded_source`: uniforms on [-1/2, 1/2)^dim."""
    return lambda rng, size: rng.random((size, dim)) - 0.5


def _grid_source(dim, res, batch=_BATCH):
    """Midpoint-rule grid on the cube, cut into index chunks."""
    if res < 1:
        raise PreconditionError(f"grid resolution must be >= 1, got {res}")
    total = res ** dim

    def make(i):
        ids = np.arange(i * batch, min((i + 1) * batch, total), dtype=np.int64)
        pts = np.empty((len(ids), dim))
        rem = ids
        for axis in range(dim - 1, -1, -1):
            pts[:, axis] = (rem % res + 0.5) / res - 0.5
            rem = rem // res
        return pts

    return total, _batch_count(total, batch), make


_KRONECKER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _kronecker_source(dim, count, batch=_BATCH):
    """Low-discrepancy Kronecker sequence x_k = frac(k alpha) - 1/2.

    The irrational generators frac(sqrt(p)) avoid the arithmetic alignment a
    rational lattice would have with integer linear forms.
    """
    alpha = np.array([math.sqrt(p) % 1.0 for p in _KRONECKER_PRIMES[:dim]])

    def make(i):
        ks = np.arange(i * batch + 1, min((i + 1) * batch, count) + 1, dtype=np.float64)
        return (ks[:, None] * alpha[None, :] + 0.5) % 1.0 - 0.5

    return count, _batch_count(count, batch), make


def _run(source, tester, threads=1):
    """Sum ``tester`` (batch array -> int or int vector) over a source.

    Each task builds its own batch from its index, so at most ``threads``
    batches are alive at once; counts are merged in batch-index order so
    thread scheduling cannot change the result.  Returns (counts, points).
    """
    points, n_batches, make = source
    if threads <= 1:
        parts = [tester(make(i)) for i in range(n_batches)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda i: tester(make(i)), range(n_batches)))
    return np.sum(np.asarray(parts), axis=0), points


def _cutoff_schedule(n_schedule, q_max):
    """Sorted distinct cutoffs N of a tail dichotomy, checked 1 <= N <= Q."""
    schedule = sorted(set(int(N) for N in n_schedule))
    if q_max is None or not schedule or schedule[0] < 1 or schedule[-1] > q_max:
        raise PreconditionError(f"cutoffs must satisfy 1 <= N <= Q; got N in {schedule}, Q={q_max}")
    return schedule


def _nested_hits(xs, schedule, has_witness):
    """Hit counts per ascending cutoff N, largest N first so only its misses
    are retested; ``has_witness(xs, N)`` masks the samples with a witness."""
    counts = np.zeros(len(schedule), dtype=np.int64)
    found = np.zeros(len(xs), dtype=bool)
    for i in range(len(schedule) - 1, -1, -1):
        todo = np.nonzero(~found)[0]
        if todo.size:
            found[todo] |= has_witness(xs[todo], schedule[i])
        counts[i] = found.sum()
    return counts


# ---------------------------------------------------------------------------
# membership testers
# ---------------------------------------------------------------------------

def _direct_union_mask(xs, vecs, thresholds, inclusive):
    """Mask of samples lying in union_q {max_j |q.x_j| (<=|<) thr_q}.

    ``xs`` has shape (S, m, n); ``vecs`` (K, m); ``thresholds`` (K,).
    """
    S, m, n = xs.shape
    K = len(vecs)
    if K == 0:
        return np.zeros(S, dtype=bool)
    out = np.zeros(S, dtype=bool)
    chunk = max(1, _CELL_BUDGET // max(K * n, 1))
    flat = xs.reshape(S, m * n)
    vf = vecs.astype(float)
    for s0 in range(0, S, chunk):
        block = flat[s0 : s0 + chunk]
        prods = vf @ block.reshape(len(block), m, n).transpose(1, 0, 2).reshape(m, -1)
        prods = np.abs(prods).reshape(K, len(block), n).max(axis=2)
        if inclusive:
            hit = prods <= thresholds[:, None]
        else:
            hit = prods < thresholds[:, None]
        out[s0 : s0 + chunk] = hit.any(axis=0)
    return out


def _psi_witness_mask_n1(xs, thr_by_height, n_min, q_max):
    """Single-form fast path: any q with n_min <= |q| <= q_max and
    |q.x| < thr(|q|), thr non-increasing and convex on integer heights.

    Works per tail: with the trailing coordinates fixed, |q_1 x_1 + p| is
    piecewise linear in q_1 and thr(max(|q_1|, tail_height)) is constant then
    convex decreasing, so the strict inequality can only be satisfied at one
    of a handful of candidate q_1 values (V-bottom, plateau clamp, inner
    interval endpoints); everything in between is excluded by convexity.
    Tails are scanned in ascending height blocks and samples drop out as soon
    as any block finds them a witness.
    """
    S, m = xs.shape
    n_eff = max(n_min, 1)
    out = np.zeros(S, dtype=bool)

    # q = q_1 e_1: |q_1||x_1| increasing vs thr non-increasing => test n_eff
    lead_all = xs[:, 0]
    out |= n_eff * np.abs(lead_all) < thr_by_height[n_eff]
    if m == 1:
        return out

    tails, th_all = _tails(m, q_max)
    thr = np.asarray(thr_by_height, dtype=float)
    for _, block in _dyadic_tail_blocks(th_all, q_max):
        alive = np.nonzero(~out)[0]
        if alive.size == 0:
            break
        t_block = tails[block]
        th = th_all[block]
        K = len(t_block)
        plateau = np.minimum(th, q_max)
        L = np.where(th >= n_min, 0, n_min).astype(np.int64)
        chunk = max(1, _CELL_BUDGET // max(K, 1))
        Lc = L[:, None]
        pc = plateau[:, None]
        for s0 in range(0, alive.size, chunk):
            idx = alive[s0 : s0 + chunk]
            x = xs[idx]
            lead = x[:, 0]
            p = t_block.astype(float) @ x[:, 1:].T  # (K, s)
            with np.errstate(divide="ignore", invalid="ignore"):
                v = -p / lead[None, :]
            v = np.clip(
                np.nan_to_num(v, nan=q_max + 2.0, posinf=q_max + 2.0, neginf=-(q_max + 2.0)),
                -(q_max + 2.0),
                q_max + 2.0,
            )
            f1 = np.floor(v)
            hit = np.zeros(p.shape, dtype=bool)
            for base in (f1, f1 + 1.0):
                for gate in ("box", "plateau", "pos", "neg"):
                    if gate == "box":
                        c = np.clip(base, -float(q_max), float(q_max))
                    elif gate == "plateau":
                        c = np.clip(base, -pc, pc)
                    elif gate == "pos":
                        c = np.clip(base, Lc.astype(float), float(q_max))
                    else:
                        c = np.clip(base, -float(q_max), -Lc.astype(float))
                    hit |= _psi_candidate_hit(c, lead, p, th, thr, n_min, q_max, L)
            # inner endpoints of the split ranges when the tail sits below n_min
            if np.any(L > 0):
                for sign in (1.0, -1.0):
                    c = sign * Lc.astype(float) * np.ones_like(p)
                    hit |= _psi_candidate_hit(c, lead, p, th, thr, n_min, q_max, L)
            out[idx] |= hit.any(axis=0)
    return out


def _psi_candidate_hit(c, lead, p, tail_heights, thr, n_min, q_max, L):
    """Strict-inequality check of candidate leading coordinates.

    ``c`` is (K, s) float candidates; validity: |c| <= q_max, |c| >= L when
    the tail is below the lower cutoff, and resulting height within range.
    """
    absc = np.abs(c)
    heights = np.maximum(absc.astype(np.int64), tail_heights[:, None])
    valid = (absc <= q_max) & ((L[:, None] == 0) | (absc >= L[:, None]))
    valid &= heights >= max(n_min, 1)
    vals = np.abs(c * lead[None, :] + p)
    return valid & (vals < thr[np.minimum(heights, len(thr) - 1)])


def _const_witness_mask(xs, bound, height_cap, inclusive=False):
    """Any nonzero q with |q| <= cap and max_j |q.x_j| < bound (or <=).

    General n: per tail the admissible leading coordinates form an interval
    intersection, so existence reduces to an integer-in-interval test.
    """
    S, m, n = xs.shape
    out = np.zeros(S, dtype=bool)
    if height_cap < 1:
        return out
    lead_all = xs[:, 0, :]                      # (S, n)
    lead_max = np.max(np.abs(lead_all), axis=1)
    out |= (lead_max <= bound) if inclusive else (lead_max < bound)
    if m == 1:
        return out

    tails, _ = _tails(m, height_cap)
    K = len(tails)
    chunk = max(1, _CELL_BUDGET // max(K * n, 1))
    for s0 in range(0, S, chunk):
        sl = slice(s0, min(s0 + chunk, S))
        todo = np.nonzero(~out[sl])[0]
        if todo.size == 0:
            continue
        x = xs[sl][todo]                        # (s, m, n)
        p = np.einsum("km,smn->ksn", tails.astype(float), x[:, 1:, :])
        lo, hi = _interval_bounds(p, x[:, 0, :][None, :, :] * np.ones((K, 1, 1)), bound)
        k_lo, k_hi = _k_range(lo, hi, height_cap)
        exists = k_lo <= k_hi
        if inclusive:
            # closed interval: admit endpoints that the open-interval floor/ceil dropped
            cand = np.stack([k_lo - 1, k_hi + 1], axis=-1).astype(float)
            vals = np.abs(cand[..., None] * x[:, 0, :][None, :, None, :] + p[:, :, None, :]).max(axis=-1)
            exists |= ((vals <= bound) & (np.abs(cand) <= height_cap)).any(axis=-1)
        out_block = out[sl]
        out_block[todo] |= exists.any(axis=0)
        out[sl] = out_block
    return out


def _rho_witness_mask_n1(xs, rho, height_cap):
    """Any nonzero q, |q| <= cap, with |q.x| <= rho |q|_2 (single form).

    Candidates: the V-bottom of |q_1 x_1 + p|, q_1 = 0, and the box ends;
    between them |q_1 x_1 + p| - rho |q|_2 is monotone, so these suffice.
    Scans tails in ascending height blocks with sample drop-out.
    """
    S, m = xs.shape
    out = np.zeros(S, dtype=bool)
    lead_all = np.abs(xs[:, 0])
    out |= lead_all <= rho          # q = q_1 e_1: |x_1| <= rho, any height
    if m == 1:
        return out

    tails, th_all = _tails(m, height_cap)
    cap_f = float(height_cap)
    for _, block in _dyadic_tail_blocks(th_all, height_cap):
        alive = np.nonzero(~out)[0]
        if alive.size == 0:
            break
        t_block = tails[block]
        K = len(t_block)
        tail_norm_sq = (t_block.astype(float) ** 2).sum(axis=1)
        chunk = max(1, _CELL_BUDGET // max(K, 1))
        for s0 in range(0, alive.size, chunk):
            idx = alive[s0 : s0 + chunk]
            x = xs[idx]
            lead = x[:, 0]
            p = t_block.astype(float) @ x[:, 1:].T   # (K, s)
            with np.errstate(divide="ignore", invalid="ignore"):
                v = -p / lead[None, :]
            v = np.clip(np.nan_to_num(v, nan=cap_f, posinf=cap_f, neginf=-cap_f), -cap_f, cap_f)
            hit = np.zeros(p.shape, dtype=bool)
            for c in (np.zeros_like(v), np.floor(v), np.floor(v) + 1.0,
                      np.full_like(v, -cap_f), np.full_like(v, cap_f)):
                c = np.clip(c, -cap_f, cap_f)
                lhs = np.abs(c * lead[None, :] + p)
                rhs = rho * np.sqrt(c * c + tail_norm_sq[:, None])
                hit |= lhs <= rhs
            out[idx] |= hit.any(axis=0)
    return out


def _fast_psi_path_ok(psi):
    """The single-form candidate argument needs thr convex non-increasing."""
    if psi.family == "power":
        return psi.tau > 0
    if psi.family == "powerlog":
        return psi.tau > 0 and psi.kappa >= 0
    return False


def batch_has_witness(xs, psi: ApproximatingFunction, n_min, q_max, scale=1.0):
    """Mask of samples having a witness n_min <= |q| <= q_max for scale*psi.

    ``xs`` is (S, m, n).  Dispatches to the single-form interval path when
    sound, otherwise to the direct cached-shell scan (budget-guarded).
    """
    S, m, n = xs.shape
    if n_min < 1 or q_max < n_min:
        raise PreconditionError("need 1 <= n_min <= q_max")
    if n == 1 and _fast_psi_path_ok(psi) and m >= 2:
        heights = np.arange(q_max + 1, dtype=float)
        thr = np.empty(q_max + 1)
        thr[0] = np.inf
        thr[1:] = scale * psi(heights[1:])
        return _psi_witness_mask_n1(xs.reshape(S, m), thr, n_min, q_max)
    est_cells = ((2 * q_max + 1) ** m // 2) * S * n
    if est_cells > _SCAN_BUDGET:
        raise BudgetExceededError(
            f"direct witness scan of ~{est_cells:.1e} cells is over budget"
        )
    vecs, heights = band_vectors(m, n_min, q_max)
    thr = scale * psi(heights.astype(float))
    return _direct_union_mask(xs, vecs, thr, inclusive=False)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _report(experiment, params, seed, total, hits, parameter, start, extras):
    """One report timed from ``start``; ``params[parameter]`` is the swept value."""
    return ExperimentReport(experiment, params, seed, int(total), int(hits), parameter=parameter,
                            parameter_value=float(params[parameter]),
                            duration_s=time.perf_counter() - start, extras=dict(extras))


def _delta_t(experiment, m, n, psi, t, k, source, seed, threads, budget, params, extras):
    """Shared body of :func:`estimate_delta_t` and :func:`delta_t_quadrature`."""
    if t < 1:
        raise PreconditionError("t must be >= 1")
    h_lo = max(1, math.ceil(k ** (t - 1)))
    h_hi = math.floor(k ** t)
    vecs, heights = band_vectors(m, h_lo, h_hi)
    if len(vecs) * source[0] * n > budget:
        raise BudgetExceededError("height band too large for this many points")
    norms = np.linalg.norm(vecs.astype(float), axis=1)
    thr = psi.big_psi(heights.astype(float)) * norms
    start = time.perf_counter()
    hits, total = _run(
        source,
        lambda b: int(_direct_union_mask(b.reshape(len(b), m, n), vecs, thr, True).sum()),
        threads,
    )
    return _report(
        experiment,
        {"m": m, "n": n, "psi": psi.spec(), "t": t, "k": k, **params},
        seed, total, hits, "t", start,
        {"band": (h_lo, h_hi), "q_count": len(vecs), **extras},
    )


def estimate_delta_t(m, n, psi: ApproximatingFunction, t, k=2.0, samples=10_000,
                     seed=0, threads=1) -> ExperimentReport:
    """Fraction of the cube covered by the height-band neighborhood union.

    Tests X against union of Delta(R_q, Psi(|q|)) over k^(t-1) <= |q| <= k^t
    with the max-column-euclidean distance convention.
    """
    source = _seeded_source(samples, seed, _uniform_draw(m * n))
    return _delta_t("delta-t", m, n, psi, t, k, source, seed, threads, _SCAN_BUDGET, {}, {})


def delta_t_quadrature(m, n, psi, t, k=2.0, resolution=256) -> ExperimentReport:
    """Deterministic midpoint-grid version of :func:`estimate_delta_t`."""
    return _delta_t("delta-t-quadrature", m, n, psi, t, k, _grid_source(m * n, resolution),
                    None, 1, 4 * _SCAN_BUDGET, {"resolution": resolution},
                    {"method": "midpoint-grid"})


def estimate_E_t(m, n, omega, t, samples=10_000, seed=0, threads=1) -> ExperimentReport:
    """Fraction of X with a pigeonhole witness of height below 2^t / omega(t).

    The strict height cutoff means the admissible range can be empty, in
    which case the estimate is exactly 0.
    """
    if m <= n:
        raise PreconditionError("the excess-height experiment needs m > n")
    if t < 1:
        raise PreconditionError("t must be >= 1")
    cutoff = 2.0 ** t / float(omega(t))
    height_cap = math.ceil(cutoff) - 1
    bound = dirichlet_bound(m, n, t)
    source = _seeded_source(samples, seed, _uniform_draw(m * n))
    start = time.perf_counter()
    hits, total = _run(
        source,
        lambda b: int(_const_witness_mask(b.reshape(len(b), m, n), bound, height_cap).sum()),
        threads,
    )
    return _report(
        "excess-height",
        {"m": m, "n": n, "t": t, "omega_t": float(omega(t))},
        seed, total, hits, "t", start,
        {"height_cap": height_cap, "bound": bound},
    )


def _ball_window(ball_center, ball_radius, dim):
    center = np.zeros(dim) if ball_center is None else np.asarray(ball_center, dtype=float)
    if center.size != dim:
        raise PreconditionError(f"ball center must have {dim} coordinates")
    if ball_radius <= 0 or np.any(np.abs(center) + ball_radius > 0.5 + 1e-15):
        raise PreconditionError("ball must sit inside the cube")
    return center, float(ball_radius)


def _ubiquity(experiment, m, n, config, t, source, seed, threads, center, radius,
              params, extras):
    """Shared body of :func:`ubiquity_density` and :func:`ubiquity_quadrature`."""
    if t < 1:
        raise PreconditionError("t must be >= 1")
    config.validate_omega(np.arange(1.0, 33.0))
    height_cap = math.floor(config.k ** t)
    rho = float(config.rho(t))

    if n != 1:
        est = ((2 * height_cap + 1) ** m // 2) * source[0] * n
        if est > _SCAN_BUDGET:
            raise BudgetExceededError("J(t) too large for the direct scan at this sample count")
    fast = n == 1 and m >= 2
    if not fast:
        vecs, _ = band_vectors(m, 1, height_cap)
        thresholds = rho * np.linalg.norm(vecs.astype(float), axis=1)

    def tester(batch):
        pts = center[None, :] + (2 * radius) * batch   # batch is uniform on [-1/2,1/2)
        xs = pts.reshape(len(pts), m, n)
        if fast:
            mask = _rho_witness_mask_n1(xs.reshape(len(xs), m), rho, height_cap)
        else:
            mask = _direct_union_mask(xs, vecs, thresholds, inclusive=True)
        return int(mask.sum())

    start = time.perf_counter()
    hits, total = _run(source, tester, threads)
    return _report(
        experiment,
        {"m": m, "n": n, "t": t, "k": config.k, "rho_t": rho, **params},
        seed, total, hits, "t", start,
        {"height_cap": height_cap, **extras},
    )


def ubiquity_density(m, n, config, t, samples=10_000, seed=0,
                     ball_center=None, ball_radius=0.5, threads=1) -> ExperimentReport:
    """Density of the rho-neighborhood union Delta(rho, t) inside a window.

    The window is the sup-norm ball [center - r, center + r]^(mn); membership
    means some 0 < |q| <= k^t has dist(X, R_q) <= rho(t).
    """
    center, radius = _ball_window(ball_center, ball_radius, m * n)
    source = _seeded_source(samples, seed, _uniform_draw(m * n))
    return _ubiquity("ubiquity-density", m, n, config, t, source, seed, threads, center, radius,
                     {"ball_center": tuple(center), "ball_radius": radius}, {})


def ubiquity_quadrature(m, n, config, t, resolution=256,
                        ball_center=None, ball_radius=0.5) -> ExperimentReport:
    """Midpoint-grid version of :func:`ubiquity_density` over the window."""
    center, radius = _ball_window(ball_center, ball_radius, m * n)
    return _ubiquity("ubiquity-quadrature", m, n, config, t, _grid_source(m * n, resolution),
                     None, 1, center, radius,
                     {"ball_center": tuple(center), "ball_radius": radius, "resolution": resolution},
                     {"method": "midpoint-grid"})


def _tail_reports(experiment, m, n, psi, schedule, q_max, source, has_witness, seed, threads,
                  params, extras):
    """Shared body of the tail dichotomies: one report per cutoff N in ``schedule``,
    counting the points of ``source`` with ``has_witness(xs, N)``."""
    start = time.perf_counter()
    counts, total = _run(
        source,
        lambda b: _nested_hits(b.reshape(len(b), m, n), schedule, has_witness),
        threads,
    )
    return [
        _report(experiment, {"m": m, "n": n, "psi": psi.spec(), "N": N, "Q": q_max, **params},
                seed, total, c, "N", start, extras)
        for N, c in zip(schedule, counts)
    ]


def tail_dichotomy(m, n, psi: ApproximatingFunction, n_schedule, q_max,
                   samples=10_000, seed=0, threads=1) -> list:
    """Per-cutoff fraction of X having a witness with N <= |q| <= Q.

    Returns one report per N in the schedule.  Witness sets are nested in N,
    so each batch is tested at the largest cutoff first and only the misses
    are retested at smaller cutoffs.
    """
    schedule = _cutoff_schedule(n_schedule, q_max)
    return _tail_reports(
        "tail-dichotomy", m, n, psi, schedule, q_max,
        _seeded_source(samples, seed, _uniform_draw(m * n)),
        lambda xs, N: batch_has_witness(xs, psi, N, q_max),
        seed, threads, {}, {"schedule": tuple(schedule)},
    )


def tail_quadrature(m, n, psi, n_min, q_max, points=1 << 16, kind="kronecker",
                    resolution=None) -> ExperimentReport:
    """Deterministic quadrature version of one tail-dichotomy fraction.

    ``kind`` selects a midpoint grid (needs ``resolution``) or the Kronecker
    sequence; the stderr of the report treats the point set as if binomial,
    which is the convention used when combining errors against Monte Carlo.
    """
    if kind == "grid":
        if resolution is None:
            raise PreconditionError("grid quadrature needs a resolution")
        source = _grid_source(m * n, resolution)
    elif kind == "kronecker":
        source = _kronecker_source(m * n, points)
    else:
        raise PreconditionError(f"unknown quadrature kind {kind!r}")
    return _tail_reports(
        "tail-quadrature", m, n, psi, [n_min], q_max, source,
        lambda xs, N: batch_has_witness(xs, psi, N, q_max),
        None, 1, {"kind": kind}, {"method": kind},
    )[0]
