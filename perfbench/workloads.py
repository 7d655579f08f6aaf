"""The two benchmark workloads.

Each workload is one closed-loop client: a researcher's script that calls the
public API and waits for each result before the next call.  A workload
builds its inputs from the seed alone, yields *rounds* of requests, checks
every output it gets, and after the timed section replays references and
oracles against what it recorded.

A request is ``(label, run, items)``: ``run()`` makes the calls and returns
their outputs, ``items`` is the work unit its throughput counts.

Why these two (see ``README.md`` for the measured figures):

* ``search`` spends nearly all its time in the per-tail interval engine and
  the Python DFS of ``min_form``/``witnesses``; the other workload never
  runs them.
* ``experiments`` runs three experiment scripts back to back, each one a
  *part* below with its own calls, checks and reference section:
  ``dichotomy`` (the only multi-threaded calls; both paths of
  ``batch_has_witness``), ``excess-height`` (the constant- and rho-threshold
  kernels at n = 1 and n = 2, which ``dichotomy`` bypasses) and ``boxdim``
  (only the box-count union, on saturated and unsaturated schedules).
  ``search`` bypasses all three.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from smallforms import (
    ApproximatingFunction,
    MatrixPoint,
    OmegaFunction,
    SearchBudget,
    UbiquityConfig,
    boxdim_estimate,
    dirichlet_bound,
    dirichlet_witness,
    estimate_E_t,
    gamma_dichotomy,
    min_form,
    tail_dichotomy,
    truncated_box_count,
    ubiquity_density,
    witnesses,
)
from smallforms.boxdim import GridSpec, coupled_schedule
from smallforms.search import band_vectors


def direct_call(name, fn, *args, counters=None, **kwargs):
    """Untraced call site: no span, no counters."""
    return fn(*args, **kwargs)


def sub_seed(seed, k):
    """Independent library seed for call ``k`` of a workload."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# search: a stream of random matrices, three searches per matrix
# ---------------------------------------------------------------------------

SEARCH_SHAPES = ((2, 1), (3, 1), (3, 2))
SEARCH_Q = 30
SEARCH_STREAM = 4000         # matrices generated up front; the stream wraps
SEARCH_ROUND = 30            # matrices per round: ten cycles of the shapes
SEARCH_ORACLE = 12           # matrices replayed through the naive engines
_DIRICHLET_ORACLE_CELLS = 2_000_000


def _witness_key(w):
    return [list(w.q), w.height]


class Search:
    name = "search"
    threads = 1
    item = "matrix"

    def __init__(self, seed):
        self.seed = seed
        self.call = direct_call     # a traced run swaps in Tracer.call
        rng = np.random.default_rng(seed)
        self.stream = []
        for i in range(SEARCH_STREAM):
            m, n = SEARCH_SHAPES[i % len(SEARCH_SHAPES)]
            self.stream.append((MatrixPoint(rng.random((m, n)) - 0.5), i % 10 + 1))
        self.psi = {(m, n): ApproximatingFunction.power(0.8, m / n) for m, n in SEARCH_SHAPES}

    def warmup(self):
        """One matrix per shape at every t: fills the tail cache of each
        height cap 2^t the stream asks for."""
        for X, _ in self.stream[: len(SEARCH_SHAPES)]:
            for t in range(1, 11):
                self._search(X, t)

    def _search(self, X, t):
        dw = self.call("search.dirichlet_witness", dirichlet_witness, X, t)
        mf = self.call("search.min_form", min_form, X, SEARCH_Q)
        ws = self.call("search.witnesses", witnesses, X, self.psi[X.m, X.n],
                       SearchBudget(SEARCH_Q), counters=lambda a, k, out: {"found": len(out)})
        return dw, mf, ws.witnesses

    def rounds(self):
        r = 0
        while True:
            reqs = []
            for i in range(r * SEARCH_ROUND, (r + 1) * SEARCH_ROUND):
                X, t = self.stream[i % SEARCH_STREAM]
                reqs.append((i, (lambda X=X, t=t: self._search(X, t)), 1))
            yield reqs
            r += 1

    def canonical(self, label, out):
        dw, mf, ws = out
        return [_witness_key(dw), _witness_key(mf), [_witness_key(w) for w in ws]]

    def check(self, label, out):
        """Exact checks that hold for any seed."""
        X, t = self.stream[label % SEARCH_STREAM]
        dw, mf, ws = out
        psi = self.psi[X.m, X.n]
        bad = []
        if not (dw.height <= 2 ** t and dw.value < dirichlet_bound(X.m, X.n, t)):
            bad.append(f"dirichlet_witness breaks the pigeonhole bound at t={t}")
        if not 1 <= mf.height <= SEARCH_Q:
            bad.append("min_form height out of range")
        if 2 ** t <= SEARCH_Q and mf.value > dw.value:
            bad.append("min_form is not minimal against the pigeonhole witness")
        keys = [(w.height, w.q) for w in ws]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            bad.append("witnesses are not in (height, lex) order")
        for w in ws:
            if not (w.height <= SEARCH_Q and w.value < psi(float(w.height))):
                bad.append(f"witness {w.q} is not a psi-witness")
            if w.value < mf.value:
                bad.append(f"witness {w.q} beats min_form")
        return bad

    def digest(self, label, out):
        blob = json.dumps(self.canonical(label, out), separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def reference(self, outputs_by_round):
        return {self.name: {"seed": self.seed, "digests": [
            self.digest(label, out) for rnd in outputs_by_round for label, out in rnd.items()]}}

    def check_run(self, outputs_by_round, refs):
        """Reference digests (shipped seed) and the naive oracle (any seed).

        ``refs`` holds every section of the reference file.  Returns
        (round, label) -> problems.
        """
        where = {label: r for r, rnd in enumerate(outputs_by_round) for label in rnd}
        bad = {}
        own = refs.get(self.name, {})
        ref = own.get("digests") if own.get("seed") == self.seed else None
        for label, r in where.items():
            out = outputs_by_round[r][label]
            if ref is not None and label < len(ref) and self.digest(label, out) != ref[label]:
                bad.setdefault((r, label), []).append("witness digest differs from the reference")
        labels = sorted(where)
        rng = np.random.default_rng([self.seed, 1])
        for j in rng.choice(len(labels), size=min(SEARCH_ORACLE, len(labels)), replace=False):
            label = labels[int(j)]
            problems = self._oracle(label, outputs_by_round[where[label]][label])
            if problems:
                bad.setdefault((where[label], label), []).extend(problems)
        return bad

    def _oracle(self, label, out):
        X, t = self.stream[label % SEARCH_STREAM]
        dw, mf, ws = out
        bad = []
        if min_form(X, SEARCH_Q, pruned=False) != mf:
            bad.append("min_form differs from the naive scan")
        naive = witnesses(X, self.psi[X.m, X.n], SearchBudget(SEARCH_Q, pruning=False))
        if [w.q for w in naive] != [w.q for w in ws]:
            bad.append("witnesses differ from the naive scan")
        if (2 ** (t + 1) + 1) ** X.m <= _DIRICHLET_ORACLE_CELLS:
            vecs = _canonical_box(X.m, 2 ** t)
            vals = np.max(np.abs(vecs.astype(float) @ X.entries), axis=1)
            first = vecs[int(np.argmax(vals < dirichlet_bound(X.m, X.n, t)))]
            if tuple(int(v) for v in first) != dw.q:
                bad.append("dirichlet_witness is not the first hit of the naive scan")
        return bad


def _canonical_box(m, h_max):
    """Canonical q (first nonzero coordinate positive), 0 < |q| <= h_max,
    in (height, lex) order, enumerated independently of the library."""
    axis = np.arange(-h_max, h_max + 1, dtype=np.int64)
    box = np.stack(np.meshgrid(*([axis] * m), indexing="ij"), axis=-1).reshape(-1, m)  # lex order
    heights = np.max(np.abs(box), axis=1)
    lead = box[np.arange(len(box)), np.argmax(box != 0, axis=1)]
    keep = (heights > 0) & (lead > 0)
    box, heights = box[keep], heights[keep]
    return box[np.argsort(heights, kind="stable")]


# ---------------------------------------------------------------------------
# round-based workloads: a fixed list of experiment calls per round
# ---------------------------------------------------------------------------

class RoundWorkload:
    """One experiment script: a fixed list of calls, the same every round.

    Subclasses set ``plan``: label -> (span name, function, args, kwargs,
    warm-up kwargs).  Each call is one item.  Outputs are canonical integer
    lists, so every round must reproduce the first exactly.
    """

    threads = 1
    seed_independent = False
    counters = None          # (args, kwargs, output) -> span counters

    def __init__(self, seed):
        self.seed = seed
        self.call = direct_call     # a traced run swaps in Tracer.call
        self.plan = self.build(seed)

    def warmup(self):
        """Each call once at a small size: fills the shell and tail caches."""
        for _, fn, args, kwargs, warm in self.plan.values():
            fn(*args, **dict(kwargs, **warm))

    def rounds(self):
        while True:
            yield [(label, (lambda p=p: self.call(p[0], p[1], *p[2], counters=self.counters, **p[3])),
                    1) for label, p in self.plan.items()]

    def reference(self, outputs_by_round):
        return {self.name: {"seed": self.seed, "outputs": {
            label: self.canonical(label, out) for label, out in outputs_by_round[0].items()}}}

    def check_run(self, outputs_by_round, refs):
        """Every round equals the first; the first equals the reference.

        ``refs`` holds every section of the reference file.  Returns
        (round, label) -> problems.
        """
        bad = {}
        first = {label: self.canonical(label, out) for label, out in outputs_by_round[0].items()}
        own = refs.get(self.name, {})
        expected = own.get("outputs", {}) if self.seed_independent or own.get("seed") == self.seed else {}
        for r, rnd in enumerate(outputs_by_round):
            for label, out in rnd.items():
                got = self.canonical(label, out)
                if label in first and got != first[label]:
                    bad.setdefault((r, label), []).append("output differs from the first round")
                if label in expected and got != expected[label]:
                    bad.setdefault((r, label), []).append("output differs from the reference")
        return bad


def _dichotomy_check(reports, schedule, samples):
    bad = []
    if [int(r.parameter_value) for r in reports] != sorted(schedule):
        bad.append("one report per cutoff, ascending")
    hits = [r.hits for r in reports]
    if any(r.samples != samples for r in reports):
        bad.append("sample count differs from the request")
    if any(not 0 <= h <= samples for h in hits):
        bad.append("hits outside [0, samples]")
    if any(a < b for a, b in zip(hits, hits[1:])):
        bad.append("hit counts rise as N grows")
    return bad


class Dichotomy(RoundWorkload):
    name = "dichotomy"
    threads = 2

    def build(self, seed):
        t = self.threads
        return {
            # saturated for N <= 16 (samples drop out after the first block);
            # N = 64 scans every tail
            "tail_3x1": ("measure.tail_dichotomy", tail_dichotomy,
                         (3, 1, ApproximatingFunction.power(1.0, 2.5), (2, 4, 8, 16, 32, 64), 128),
                         {"samples": 400, "seed": sub_seed(seed, 1), "threads": t},
                         {"samples": 64}),
            # few long tails, unsaturated
            "tail_2x1": ("measure.tail_dichotomy", tail_dichotomy,
                         (2, 1, ApproximatingFunction.power(1.0, 2.0), (16, 64, 256, 1024), 1024),
                         {"samples": 4000, "seed": sub_seed(seed, 2), "threads": t},
                         {"samples": 64}),
            # the variety: direct shell-scan path of batch_has_witness
            "gamma_2x2": ("manifold.gamma_dichotomy", gamma_dichotomy,
                          (2, 2, ApproximatingFunction.power(1.0, 3.0), (2, 4, 8), 64),
                          {"samples": 3000, "seed": sub_seed(seed, 3), "threads": t},
                          {"samples": 64}),
        }

    def canonical(self, label, out):
        return [r.hits for r in out]

    def check(self, label, out):
        _, _, args, kwargs, _ = self.plan[label]
        return _dichotomy_check(out, args[3], kwargs["samples"])


class ExcessHeight(RoundWorkload):
    name = "excess-height"
    counters = staticmethod(lambda args, kwargs, rep: {"samples": rep.samples, "hits": rep.hits})

    def build(self, seed):
        omega = OmegaFunction.power(1.0)
        plan = {}
        # (3, 1) is unsaturated, (3, 2) saturated: every sample hits
        for k, (m, n, t, samples) in enumerate(EXCESS_CALLS):
            plan[f"E_{m}x{n}_t{t}"] = (
                "measure.estimate_E_t", estimate_E_t, (m, n, omega, t),
                {"samples": samples, "seed": sub_seed(seed, k)}, {"samples": 16})
        m, n, t, samples = UBIQUITY_CALL
        plan[f"ubiquity_{m}x{n}_t{t}"] = (
            "measure.ubiquity_density", ubiquity_density, (m, n, UbiquityConfig(m, n, omega), t),
            {"samples": samples, "seed": sub_seed(seed, len(EXCESS_CALLS)),
             "ball_center": (0.125,) * (m * n), "ball_radius": 0.125}, {"samples": 16})
        return plan

    def canonical(self, label, out):
        return out.hits

    def check(self, label, out):
        samples = self.plan[label][3]["samples"]
        bad = []
        if out.samples != samples:
            bad.append("sample count differs from the request")
        if not 0 <= out.hits <= samples:
            bad.append("hits outside [0, samples]")
        return bad


# (m, n, t, samples) for estimate_E_t, and the ubiquity window call
EXCESS_CALLS = ((3, 1, 8, 2000), (3, 1, 10, 1000), (3, 1, 12, 250), (3, 2, 8, 1000), (3, 2, 10, 300))
UBIQUITY_CALL = (3, 1, 8, 3000)


BOXDIM_SCHEDULES = {
    "2x1_tau0.5": (2, 1, 0.5, range(4, 11)),   # many slabs per row
    "3x1_tau1.5": (3, 1, 1.5, range(4, 8)),    # the grid is fully covered
    "3x1_tau3": (3, 1, 3.0, range(4, 9)),      # few slabs; rows not all full (98% of cells)
    "2x2_tau3": (2, 2, 3.0, range(3, 7)),      # 4-D union on the variety window (2.5%)
}


def grid_cells(m, n, delta):
    return GridSpec.from_delta(delta, m * n).per_axis ** (m * n)


class Boxdim(RoundWorkload):
    name = "boxdim"
    # the schedules are fixed; the seed only orders them, so the reference
    # counts apply to every seed
    seed_independent = True

    def build(self, seed):
        labels = list(BOXDIM_SCHEDULES)
        order = np.random.default_rng(seed).permutation(len(labels))
        plan = {}
        for j in order:
            label = labels[int(j)]
            m, n, tau, levels = BOXDIM_SCHEDULES[label]
            plan[label] = ("boxdim.boxdim_estimate", boxdim_estimate,
                           (m, n, tau, coupled_schedule(m, n, tau, levels)), {}, None)
        return plan

    def warmup(self):
        """Smallest level of each schedule plus the largest height band."""
        for _, _, (m, n, tau, schedule), _, _ in self.plan.values():
            q_max, delta, h_min = schedule[0]
            truncated_box_count(m, n, tau, q_max, delta, h_min=h_min)
            q_top, _, h_top = schedule[-1]
            band_vectors(m, h_top, q_top)

    def canonical(self, label, out):
        return [int(c) for _, _, _, c in out.points]

    def check(self, label, out):
        m, n, _, schedule = self.plan[label][2]
        bad = []
        if len(out.points) != len(schedule):
            bad.append("one count per scale")
        for delta, _, _, count in out.points:
            if not 0 <= count <= grid_cells(m, n, delta):
                bad.append(f"count {count} exceeds the grid at delta={delta}")
        return bad


class Experiments:
    """The ``boxdim``, ``excess-height`` and ``dichotomy`` scripts run back to
    back by one client.  An item is one experiment call, so throughput is
    calls per second and latency is per call; each part keeps its own
    checks and its own section of the reference file."""

    name = "experiments"
    item = "experiment call"
    threads = max(Dichotomy.threads, ExcessHeight.threads, Boxdim.threads)

    def __init__(self, seed):
        self.seed = seed
        # boxdim sets the peak RSS; run before the threaded dichotomy calls,
        # it starts from a heap without their per-thread allocator arenas, so
        # the peak does not swing with how much memory those arenas keep
        self.parts = [Boxdim(seed), ExcessHeight(seed), Dichotomy(seed)]
        self.owner = {label: part for part in self.parts for label in part.plan}

    @property
    def call(self):
        return self.parts[0].call

    @call.setter
    def call(self, fn):             # a traced run swaps in Tracer.call
        for part in self.parts:
            part.call = fn

    def warmup(self):
        for part in self.parts:
            part.warmup()

    def rounds(self):
        streams = [part.rounds() for part in self.parts]
        while True:
            yield [req for stream in streams for req in next(stream)]

    def canonical(self, label, out):
        return self.owner[label].canonical(label, out)

    def check(self, label, out):
        return self.owner[label].check(label, out)

    def _split(self, outputs_by_round, part):
        return [{label: out for label, out in rnd.items() if label in part.plan}
                for rnd in outputs_by_round]

    def reference(self, outputs_by_round):
        refs = {}
        for part in self.parts:
            refs.update(part.reference(self._split(outputs_by_round, part)))
        return refs

    def check_run(self, outputs_by_round, refs):
        bad = {}
        for part in self.parts:
            bad.update(part.check_run(self._split(outputs_by_round, part), refs))
        return bad


WORKLOADS = {w.name: w for w in (Search, Experiments)}
