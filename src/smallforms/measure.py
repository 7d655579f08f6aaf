"""Monte Carlo estimation of the Lebesgue measure of resonant-neighborhood
unions, plus the deterministic quadrature oracles the estimates are checked
against.

Every estimator runs one loop.  A point source builds batch i from i alone:
seeded draws (uniform, or eta on the variety) from child i of
``SeedSequence(master_seed)``, or chunk i of a midpoint grid or Kronecker
sequence.  It also records what a report needs to re-run it: the seed of a
draw, the resolution of a grid (method "midpoint-grid"), the kind and method
"kronecker" of the sequence.  The runner ``_run`` has each worker thread
build and test its own batch, so at most ``threads`` batches are alive at
once, and sums the counts in batch order, so reports are bit-identical for a
fixed master seed at any thread count.  Counts below 1 raise
:class:`PreconditionError`.  ``_estimate`` is the one report builder: it
times the run and returns one report per swept value (t, or the cutoffs N of
a dichotomy).

Membership in a union of neighborhoods is decided for a stack of samples by
the lattice engine of :mod:`smallforms.lattice` in ``_box_witness_mask``: is
there a q with |q|_inf <= hi and |qX|_inf < b in some height block (lo, hi, b)
that an exact filter accepts?  A sample leaves once it hits.  psi (the tail
dichotomies): dyadic blocks, b the largest threshold on the block, filter
|qX|_inf < scale psi(|q|) with N <= |q|.  rho (ubiquity): dyadic blocks,
b = rho sqrt(m) hi rounded up, filter |qX|_inf <= rho |q|_2.  Excess height:
one block, b the pigeonhole bound.  Where the engine's rounding bound (of
order m eps hi max|x| / b) exceeds 1/4 it raises :class:`BudgetExceededError`:
with omega(t) = t, from t = 27 at (2, 1), t = 18 at (3, 1) and t = 13 at
(4, 1).  The band scan is the engine's oracle in the tests, and the path of
delta-t.  Both value q.X only by :func:`smallforms.forms.form_columns`, as
:mod:`smallforms.search` does, so the three agree at near ties by
construction, whatever CPU or BLAS build runs them.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .forms import DISTANCE_CONVENTION, form_columns
from .functions import ApproximatingFunction
from .lattice import _box_basis, _coefficient_bounds, _coefficient_box, _direct_box, _height_blocks
from .lattice import _lll_transform, _rounding_prior, band_vectors
from .search import _float_power_of_two, dirichlet_bound

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
    sqrt(p(1-p)/samples); ``parameter``/``parameter_value`` name the swept
    knob for CSV emission.  The estimator called again from ``params``,
    ``seed`` and ``samples`` alone gives the same hits and params, except for
    a table psi or omega (``table:<inline>``) or a bare callable omega (None).
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
        return _jsonable({**vars(self), "estimate": self.estimate, "stderr": self.stderr})

    def csv_row(self) -> tuple:
        return tuple(getattr(self, c) for c in CSV_COLUMNS)


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.integer, np.floating)):
        return v.item()
    return v if isinstance(v, (int, float, str, bool)) or v is None else str(v)


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


def _seed_sequence(seed):
    try:
        return np.random.SeedSequence(seed)
    except ValueError as exc:  # a negative seed
        raise PreconditionError(f"bad seed {seed!r}: {exc}") from exc


# ``points`` cut into ``n_batches`` batches, batch i built by ``make(i)`` alone;
# ``seed``, ``params`` and ``extras`` are what the reports record of the source
_Source = namedtuple("_Source", "points n_batches make seed params extras")


def _seeded_source(samples, seed, draw, batch=_BATCH):
    """Batch i is ``draw(rng, size)`` with rng on child i of SeedSequence(seed)."""
    n_batches = _batch_count(samples, batch)
    children = _seed_sequence(seed).spawn(n_batches)

    def make(i):
        size = min(batch, samples - i * batch)
        return draw(np.random.Generator(np.random.PCG64(children[i])), size)

    return _Source(samples, n_batches, make, seed, {}, {})


def _uniform_draw(dim):
    """Draw for :func:`_seeded_source`: uniforms on [-1/2, 1/2)^dim."""
    return lambda rng, size: rng.random((size, dim)) - 0.5


def _grid_source(dim, res):
    """Midpoint-rule grid on the cube, cut into index chunks."""
    if res < 1:
        raise PreconditionError(f"grid resolution must be >= 1, got {res}")
    total = res ** dim

    def make(i):
        ids = np.arange(i * _BATCH, min((i + 1) * _BATCH, total), dtype=np.int64)
        pts = np.empty((len(ids), dim))
        rem = ids
        for axis in range(dim - 1, -1, -1):
            pts[:, axis] = (rem % res + 0.5) / res - 0.5
            rem = rem // res
        return pts

    return _Source(total, _batch_count(total, _BATCH), make, None, {"resolution": res},
                   {"method": "midpoint-grid"})


_KRONECKER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _kronecker_source(dim, count):
    """Low-discrepancy Kronecker sequence x_k = frac(k alpha) - 1/2.

    The irrational generators frac(sqrt(p)) avoid the arithmetic alignment a
    rational lattice would have with integer linear forms.
    """
    alpha = np.array([math.sqrt(p) % 1.0 for p in _KRONECKER_PRIMES[:dim]])

    def make(i):
        ks = np.arange(i * _BATCH + 1, min((i + 1) * _BATCH, count) + 1, dtype=np.float64)
        return (ks[:, None] * alpha[None, :] + 0.5) % 1.0 - 0.5

    return _Source(count, _batch_count(count, _BATCH), make, None, {"kind": "kronecker"},
                   {"method": "kronecker"})


def _run(source, tester, threads=1):
    """Sum ``tester`` (batch array -> int or int vector) over a source.

    Each task builds its own batch from its index, so at most ``threads``
    batches are alive at once; counts are merged in batch-index order so
    thread scheduling cannot change the result.  Returns (counts, points).
    """
    if threads <= 1:
        parts = [tester(source.make(i)) for i in range(source.n_batches)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda i: tester(source.make(i)), range(source.n_batches)))
    return np.sum(np.asarray(parts), axis=0), source.points


def _cutoff_schedule(n_schedule, q_max):
    """Sorted distinct cutoffs N of a tail dichotomy, checked 1 <= N <= Q."""
    schedule = sorted(set(int(N) for N in n_schedule))
    if q_max is None or not schedule or schedule[0] < 1 or schedule[-1] > q_max:
        raise PreconditionError(f"cutoffs must satisfy 1 <= N <= Q; got N in {schedule}, Q={q_max}")
    return schedule


def _nested_hits(m, n, schedule, q_max, has_witness, psi, scale=1.0):
    """Tester of a batch of flat points: hit counts per ascending cutoff N,
    largest N first so that only its misses are retested, on the heights
    below it.  ``has_witness`` is :func:`batch_has_witness` as the caller's
    module looks it up, asked for heights in [N, hi]."""
    def tester(batch):
        xs = batch.reshape(len(batch), m, n)
        counts = np.zeros(len(schedule), dtype=np.int64)
        found = np.zeros(len(xs), dtype=bool)
        hi = q_max
        for i in range(len(schedule) - 1, -1, -1):
            todo = np.nonzero(~found)[0]
            if todo.size:
                found[todo] |= has_witness(xs[todo], psi, schedule[i], hi, scale)
            counts[i] = found.sum()
            hi = schedule[i] - 1
        return counts

    return tester


# ---------------------------------------------------------------------------
# membership testers
# ---------------------------------------------------------------------------

def _direct_union_mask(xs, vecs, thresholds, inclusive):
    """Mask of samples lying in union_q {max_j |q.x_j| (<=|<) thr_q}.

    ``xs`` has shape (S, m, n); ``vecs`` (K, m); ``thresholds`` (K,).
    """
    S, _, n = xs.shape
    out = np.zeros(S, dtype=bool)
    chunk = max(1, _CELL_BUDGET // max(len(vecs) * n, 1))
    for s0 in range(0, S, chunk):
        values = np.abs(form_columns(vecs, xs[s0 : s0 + chunk, None])).max(axis=2)
        hit = values <= thresholds if inclusive else values < thresholds
        out[s0 : s0 + chunk] = hit.any(axis=1)
    return out


def _box_hits(q, xs, height_cap, bound, keep):
    """(s, K) mask of the candidates q of each sample of ``xs`` (s, m, n)
    with |q|_inf <= cap and max_j |q.x_j| < bound that ``keep`` accepts; q
    is (s, K, m), or (K, m) for every sample.  Values come from
    :func:`~smallforms.forms.form_columns`, as in the oracle and the search."""
    values = np.abs(form_columns(q, xs[:, None])).max(axis=2)
    heights = np.abs(q).max(axis=-1)
    hit = (heights <= height_cap) & (values < bound)
    return hit if keep is None else hit & keep(q, values, heights)


def _block_witness_mask(xs, start, lead, height_cap, bound, keep):
    """Any nonzero q with |q|_inf <= cap and max_j |q.x_j| < bound that
    ``keep`` accepts, for the samples ``xs`` (S, m, n).  The reductions
    start from the transforms ``start`` (S, m, m) and are written back.

    A small box (:func:`~smallforms.lattice._direct_box`) is tested whole.
    Otherwise the bases are LLL-reduced, the least multiples of height >=
    lead of the rows of U settle most samples of a saturated block, and the
    rest enumerate their coefficient boxes per group of equal bounds, in
    chunks of about ``_CELL_BUDGET`` cells.  Candidates pass the oracle's
    filter (:func:`_box_hits`).
    """
    S, m, _ = xs.shape
    out = np.zeros(S, dtype=bool)
    if height_cap < 1 or not bound > 0:
        return out
    if _direct_box(xs, height_cap):   # a small box: test all its points
        _scan_box(out, np.arange(S), xs, None, (height_cap,) * m, height_cap, bound, keep)
        return out
    prior = _rounding_prior(m, height_cap, float(np.max(np.abs(xs), initial=0.0)), bound)
    basis = _box_basis(xs, height_cap, bound)
    U = _lll_transform(basis, start)
    start[:] = U
    short = U * -(-lead // np.abs(U).max(axis=2, keepdims=True))   # least multiples of height >= lead
    out = _box_hits(short, xs, height_cap, bound, keep).any(axis=1)
    live = np.nonzero(~out)[0]
    if live.size == 0:
        return out
    bounds = _coefficient_bounds(basis[live], U[live], prior)
    keys, group = np.unique(bounds, axis=0, return_inverse=True)
    for g, key in enumerate(keys):
        members = live[group.ravel() == g]
        _scan_box(out, members, xs[members], U[members], tuple(int(k) for k in key),
                  height_cap, bound, keep)
    return out


def _scan_box(out, live, xs, U, key, height_cap, bound, keep):
    """OR into ``out[live]`` the hits among the candidates q = c U, |c_i| <=
    key[i] (one of each +-c), of the samples ``xs``; U = None is the
    identity.  Chunks of about ``_CELL_BUDGET`` cells."""
    cs = _coefficient_box(key)
    if len(cs) == 0:
        return
    chunk = max(1, _CELL_BUDGET // (len(cs) * sum(xs.shape[1:])))
    for s0 in range(0, len(live), chunk):
        idx = slice(s0, s0 + chunk)
        q = cs if U is None else cs @ U[idx]
        out[live[idx]] = _box_hits(q, xs[idx], height_cap, bound, keep).any(axis=1)


def _box_witness_mask(xs, blocks, keep=None):
    """Mask of the samples ``xs`` (S, m, n) with a witness in some block
    (lo, hi, b): a nonzero q, |q|_inf <= hi and max_j |q.x_j| < b, that
    ``keep(q, values, heights)`` accepts (any, if ``keep`` is None).  Blocks
    are walked in order and a sample leaves once it hits; each block's
    reduction starts from the sample's last one.  ``keep`` sees
    candidates of any height; each b must exceed the value of every q of
    height in [lo, hi] that ``keep`` accepts."""
    S, m, _ = xs.shape
    out = np.zeros(S, dtype=bool)
    U = np.tile(np.eye(m, dtype=np.int64), (S, 1, 1))
    for lo, hi, bound in blocks:
        live = np.nonzero(~out)[0]
        if live.size == 0:
            break
        U_live = U[live]
        out[live] = _block_witness_mask(xs[live], U_live, lo, hi, bound, keep)
        U[live] = U_live
    return out


def _rho_question(m, rho, height_cap):
    """Blocks and filter for :func:`_box_witness_mask` of a nonzero q,
    |q|_inf <= cap, with max_j |q.x_j| <= rho |q|_2.  Each b is the next
    float above rho sqrt(m) hi, computed as the filter computes rho |q|_2
    (exact integer sums of squares, monotone rounding), so the box's strict
    bound holds the inclusive one."""
    blocks = [(lo, hi, float(np.nextafter(rho * math.sqrt(m * hi * hi), np.inf)))
              for lo, hi in _height_blocks(1, height_cap)]

    def keep(q, values, heights):
        return values <= rho * np.sqrt((q.astype(float) ** 2).sum(axis=-1))

    return blocks, keep


def batch_has_witness(xs, psi: ApproximatingFunction, n_min, q_max, scale=1.0):
    """Mask of samples having a witness n_min <= |q| <= q_max for scale*psi.

    ``xs`` is (S, m, n).  Every psi goes to the lattice box engine
    (:func:`_box_witness_mask`) in dyadic height blocks, each bounded by the
    largest threshold on it, with the exact filter max_j |q.x_j| <
    scale psi(|q|), n_min <= |q|: neither convexity nor monotonicity of psi
    is needed.  The direct band scan is only the tests' oracle (and the
    path of delta-t).  Raises :class:`BudgetExceededError` where the
    engine's rounding bound is not small.
    """
    if n_min < 1 or q_max < n_min:
        raise PreconditionError("need 1 <= n_min <= q_max")
    thr = np.concatenate(([np.inf], scale * psi(np.arange(1.0, q_max + 1))))
    blocks = [(lo, hi, float(thr[lo : hi + 1].max())) for lo, hi in _height_blocks(n_min, q_max)]
    return _box_witness_mask(
        xs, blocks,
        lambda q, values, heights: (heights >= n_min) & (values < thr[np.minimum(heights, q_max)]))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _estimate(experiment, params, parameter, values, source, tester, threads, extras):
    """One report per swept value: ``tester`` run over ``source``, timed.

    ``params[parameter]`` is each of ``values`` in turn: one t, or the
    cutoffs N of a dichotomy, whose tester counts per cutoff.  The source
    adds its seed, params and extras.
    """
    start = time.perf_counter()
    counts, total = _run(source, tester, threads)
    duration = time.perf_counter() - start
    return [
        ExperimentReport(experiment, {**params, parameter: value, **source.params}, source.seed,
                         int(total), int(hits), parameter=parameter,
                         parameter_value=float(value), duration_s=duration,
                         extras={**extras, **source.extras})
        for value, hits in zip(values, np.atleast_1d(counts))
    ]


def _delta_t(experiment, m, n, psi, t, k, source, threads, budget):
    """Shared body of :func:`estimate_delta_t` and :func:`delta_t_quadrature`."""
    if t < 1 or not 1 < k < math.inf:
        raise PreconditionError("need t >= 1 and a finite band base k > 1")
    h_lo = max(1, math.ceil(k ** (t - 1)))
    h_hi = math.floor(k ** t)
    if h_lo <= h_hi:
        vecs, heights = band_vectors(m, h_lo, h_hi)
    else:  # no integer height in [k^(t-1), k^t]: an empty union
        vecs, heights = np.zeros((0, m), dtype=np.int64), np.zeros(0, dtype=np.int64)
    if len(vecs) * source.points * n > budget:
        raise BudgetExceededError(f"{len(vecs)} band vectors x {source.points} points x n = {n} "
                                  f"cells are over the scan budget {budget}")
    norms = np.linalg.norm(vecs.astype(float), axis=1)
    thr = psi.big_psi(heights.astype(float)) * norms
    return _estimate(
        experiment, {"m": m, "n": n, "psi": psi.spec(), "k": k}, "t", [t], source,
        lambda b: int(_direct_union_mask(b.reshape(len(b), m, n), vecs, thr, True).sum()),
        threads, {"band": (h_lo, h_hi), "q_count": len(vecs)},
    )[0]


def estimate_delta_t(m, n, psi: ApproximatingFunction, t, k=2.0, samples=10_000,
                     seed=0, threads=1) -> ExperimentReport:
    """Fraction of the cube covered by the height-band neighborhood union.

    Tests X against union of Delta(R_q, Psi(|q|)) over k^(t-1) <= |q| <= k^t
    with the max-column-euclidean distance convention.
    """
    source = _seeded_source(samples, seed, _uniform_draw(m * n))
    return _delta_t("delta-t", m, n, psi, t, k, source, threads, _SCAN_BUDGET)


def delta_t_quadrature(m, n, psi, t, k=2.0, resolution=256) -> ExperimentReport:
    """Deterministic midpoint-grid version of :func:`estimate_delta_t`."""
    return _delta_t("delta-t-quadrature", m, n, psi, t, k, _grid_source(m * n, resolution),
                    1, 4 * _SCAN_BUDGET)


def estimate_E_t(m, n, omega, t, samples=10_000, seed=0, threads=1) -> ExperimentReport:
    """Fraction of X with a pigeonhole witness of height below 2^t / omega(t).

    The strict height cutoff means the admissible range can be empty, in
    which case the estimate is exactly 0.  Witnesses are found by the lattice
    box engine (LLL reduction, then Fincke-Pohst enumeration; see
    :func:`_box_witness_mask`).  Raises :class:`BudgetExceededError` when 2^t
    overflows a float, when the bound underflows, or when the engine's
    rounding bound m eps H max|x| / b is no longer small.
    """
    if m <= n:
        raise PreconditionError("the excess-height experiment needs m > n")
    if t < 1:
        raise PreconditionError("t must be >= 1")
    height_cap = math.ceil(_float_power_of_two(t) / float(omega(t))) - 1
    bound = dirichlet_bound(m, n, t)
    return _estimate(
        "excess-height",
        {"m": m, "n": n, "omega": getattr(omega, "spec", lambda: None)(), "omega_t": float(omega(t))},
        "t", [t],
        _seeded_source(samples, seed, _uniform_draw(m * n)),
        lambda b: int(_box_witness_mask(b.reshape(len(b), m, n), [(1, height_cap, bound)]).sum()),
        threads, {"height_cap": height_cap, "bound": bound},
    )[0]


def _ubiquity(experiment, m, n, config, t, source, threads, ball_center, ball_radius):
    """Shared body of :func:`ubiquity_density` and :func:`ubiquity_quadrature`."""
    if (config.m, config.n) != (m, n):
        raise PreconditionError(f"a ({config.m}, {config.n}) ubiquity config asked at ({m}, {n})")
    center = np.zeros(m * n) if ball_center is None else np.asarray(ball_center, dtype=float)
    if center.size != m * n:
        raise PreconditionError(f"ball center must have {m * n} coordinates")
    if not (ball_radius > 0 and np.all(np.abs(center) + ball_radius <= 0.5 + 1e-15)):
        raise PreconditionError("ball must be finite and sit inside the cube")
    if t < 1:
        raise PreconditionError("t must be >= 1")
    config.validate_omega(np.arange(1.0, 33.0))
    height_cap = math.floor(config.k ** t)
    rho = float(config.rho(t))
    question = _rho_question(m, rho, height_cap)

    def tester(batch):
        pts = center[None, :] + (2 * ball_radius) * batch   # batch is uniform on [-1/2,1/2)
        return int(_box_witness_mask(pts.reshape(len(pts), m, n), *question).sum())

    return _estimate(
        experiment,
        {"m": m, "n": n, "k": config.k, "omega": getattr(config.omega, "spec", lambda: None)(),
         "rho_t": rho, "ball_center": tuple(center.tolist()), "ball_radius": float(ball_radius)},
        "t", [t], source, tester, threads, {"height_cap": height_cap},
    )[0]


def ubiquity_density(m, n, config, t, samples=10_000, seed=0,
                     ball_center=None, ball_radius=0.5, threads=1) -> ExperimentReport:
    """Density of the rho-neighborhood union Delta(rho, t) inside a window.

    The window is the sup-norm ball [center - r, center + r]^(mn); membership
    means some 0 < |q| <= k^t has dist(X, R_q) <= rho(t).
    """
    source = _seeded_source(samples, seed, _uniform_draw(m * n))
    return _ubiquity("ubiquity-density", m, n, config, t, source, threads, ball_center, ball_radius)


def ubiquity_quadrature(m, n, config, t, resolution=256,
                        ball_center=None, ball_radius=0.5) -> ExperimentReport:
    """Midpoint-grid version of :func:`ubiquity_density` over the window."""
    return _ubiquity("ubiquity-quadrature", m, n, config, t, _grid_source(m * n, resolution),
                     1, ball_center, ball_radius)


def tail_dichotomy(m, n, psi: ApproximatingFunction, n_schedule, q_max,
                   samples=10_000, seed=0, threads=1) -> list:
    """Per-cutoff fraction of X having a witness with N <= |q| <= Q.

    Returns one report per N in the schedule.  Witness sets are nested in N,
    so each batch is tested at the largest cutoff first and only the misses
    are retested at smaller cutoffs, on the heights below the larger one.
    """
    schedule = _cutoff_schedule(n_schedule, q_max)
    return _estimate(
        "tail-dichotomy", {"m": m, "n": n, "psi": psi.spec(), "Q": q_max}, "N", schedule,
        _seeded_source(samples, seed, _uniform_draw(m * n)),
        _nested_hits(m, n, schedule, q_max, batch_has_witness, psi), threads,
        {"schedule": tuple(schedule)})


def tail_quadrature(m, n, psi, n_min, q_max, points=1 << 16) -> ExperimentReport:
    """Deterministic version of one tail-dichotomy fraction on the first
    ``points`` of the Kronecker sequence (a midpoint grid is no oracle here:
    its rational midpoints have exact zeros q.x = 0 at heights up to about the
    resolution).  The stderr treats the point set as if binomial, the
    convention used when combining errors against Monte Carlo.
    """
    return _estimate(
        "tail-quadrature", {"m": m, "n": n, "psi": psi.spec(), "Q": q_max}, "N", [n_min],
        _kronecker_source(m * n, points), _nested_hits(m, n, [n_min], q_max, batch_has_witness, psi),
        1, {})[0]
