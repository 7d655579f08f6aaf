"""One workload process of the benchmark; ``run.py`` starts it.

Modes:

* ``setup``   import smallforms, build the inputs, make the warm-up calls,
              and report how long that took;
* ``measure`` the same set-up, then one whole round of requests and more
              requests until the next would overrun ``--seconds``, untraced;
              then the output checks;
* ``trace``   the same set-up, untraced rounds for half of ``--seconds``,
              then the same rounds again with spans on; per-layer figures;
* ``record``  one short run at the shipped seed whose canonical outputs
              become the references.

The last line of standard output is one JSON object.  The process expects
its BLAS/OpenMP thread pools pinned to one thread by the environment.
"""

import time

_T0 = time.perf_counter()   # before numpy and smallforms are imported

import argparse
import json
import os
import platform
import resource
import statistics
import sys

from spans import Tracer, percentile, summarize

RECORD_MATRICES = 270        # search references: the first nine rounds


def serve(wl, seconds, max_rounds=None, tracer=None):
    """Serve the whole first round, then requests until the next one would
    overrun ``seconds`` (or ``max_rounds`` whole rounds).

    The next request's time is predicted by the request at the same place in
    the previous round.  Returns per-request latencies (one entry per
    repetition), round times, outputs, failures and the peak RSS through
    set-up and the first round.  Checks run between requests, outside the
    timed calls.
    """
    latencies, items_of, round_times, outputs, failed = {}, {}, [], [], {}
    attempted = 0
    peak_rss_mb = None
    previous = []
    start = time.perf_counter()
    for r, reqs in enumerate(wl.rounds()):
        busy = 0.0
        outs = {}
        current = []
        stop = False
        for k, (label, run, n_items) in enumerate(reqs):
            if max_rounds is None and r > 0 and \
                    time.perf_counter() - start + previous[k] > seconds:
                stop = True
                break
            if tracer is not None:
                tracer.request = f"{r}:{label}"
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception as exc:   # a failed item, reported, never fatal
                dt = time.perf_counter() - t0
                failed[(r, label)] = (n_items, [f"{type(exc).__name__}: {exc}"])
            else:
                dt = time.perf_counter() - t0
                outs[label] = out
                problems = wl.check(label, out)
                if problems:
                    failed[(r, label)] = (n_items, problems)
            busy += dt
            current.append(dt)
            attempted += n_items
            latencies.setdefault(label, []).append(dt)
            items_of[label] = n_items
        if current:
            outputs.append(outs)
            round_times.append(busy)
        if peak_rss_mb is None:
            # later rounds repeat the same work; their growth is allocator noise
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if stop or (max_rounds is not None and r + 1 >= max_rounds):
            break
        previous = current
    return {"latencies": latencies, "items": items_of, "round_times": round_times,
            "outputs": outputs, "failed": failed, "attempted": attempted,
            "peak_rss_mb": peak_rss_mb}


def request_medians(served):
    """Each distinct request's median latency over its repetitions."""
    return {label: statistics.median(ts) for label, ts in served["latencies"].items()}


def end_to_end_metrics(served):
    """Each distinct request's latency is the median over its repetitions;
    throughput is its items over the sum of those medians."""
    med = request_medians(served)
    lat_ms = sorted(v * 1e3 for v in med.values())
    return {
        "items_per_s": sum(served["items"].values()) / sum(med.values()),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p99_ms": percentile(lat_ms, 99),
        "peak_rss_mb": served["peak_rss_mb"],
    }


def settle(wl, served, refs):
    """Add the run-level checks to the per-request failures; (attempted, failed, problems)."""
    failed = dict(served["failed"])
    for (r, label), problems in wl.check_run(served["outputs"], refs).items():
        n, old = failed.get((r, label), (served["items"][label], []))
        failed[(r, label)] = (n, old + problems)
    problems = [f"round {r} request {label}: {'; '.join(p)}" for (r, label), (_, p) in sorted(
        failed.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
    return served["attempted"], sum(n for n, _ in failed.values()), problems


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "seed": seed,
    }


def layer_metrics(summary, overhead):
    """Every per-layer metric, 0 for layers the workload does not run."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    for call in ("dirichlet_witness", "min_form", "witnesses"):
        for key, unit in (("calls", "count"), ("self_s", "s"), ("p50_ms", "ms"), ("p99_ms", "ms")):
            out[f"search.{call}.{key}"] = (get(f"search.{call}", key), unit)
    out["search.witnesses.found"] = (get("search.witnesses", "found"), "count")
    for key, unit in (("calls", "count"), ("self_s", "s"), ("rows", "count")):
        out[f"search.band_vectors.{key}"] = (get("search.band_vectors", key), unit)
    bhw = "measure.batch_has_witness"
    for key, unit in (("calls", "count"), ("self_s", "s"), ("samples", "count")):
        out[f"{bhw}.{key}"] = (get(bhw, key), unit)
    out[f"{bhw}.hit_ratio"] = (get(bhw, "hits") / get(bhw, "samples") if get(bhw, "samples") else 0, "ratio")
    for name in ("measure.tail_dichotomy", "measure.estimate_E_t", "measure.ubiquity_density",
                 "manifold.gamma_dichotomy", "boxdim.boxdim_estimate"):
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    et = "measure.estimate_E_t"
    out[f"{et}.hit_ratio"] = (get(et, "hits") / get(et, "samples") if get(et, "samples") else 0, "ratio")
    tbc = "boxdim.truncated_box_count"
    for key, unit in (("calls", "count"), ("self_s", "s"), ("max_ms", "ms"), ("cells", "count")):
        out[f"{tbc}.{key}"] = (get(tbc, key), unit)
    out[f"{tbc}.covered_ratio"] = (get(tbc, "count") / get(tbc, "cells") if get(tbc, "cells") else 0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def install_wrappers(tracer):
    """Wrap the layer entry points where their callers look them up."""
    import smallforms.boxdim as boxdim
    import smallforms.manifold as manifold
    import smallforms.measure as measure
    from workloads import grid_cells

    def rows(args, kwargs, out):
        return {"rows": len(out[0])}

    def hits(args, kwargs, out):
        return {"samples": len(out), "hits": int(out.sum())}

    def cells(args, kwargs, out):
        return {"cells": grid_cells(args[0], args[1], args[4]), "count": int(out)}

    tracer.wrap(measure, "band_vectors", "search.band_vectors", rows)
    tracer.wrap(boxdim, "band_vectors", "search.band_vectors", rows)
    tracer.wrap(measure, "batch_has_witness", "measure.batch_has_witness", hits)
    tracer.wrap(manifold, "batch_has_witness", "measure.batch_has_witness", hits)
    tracer.wrap(boxdim, "truncated_box_count", "boxdim.truncated_box_count", cells)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "record"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--refs", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    wl.warmup()
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "item": wl.item, "threads": wl.threads,
              "env": environment(args.seed)}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    if args.mode == "record":
        rounds = -(-RECORD_MATRICES // len(next(wl.rounds()))) if args.workload == "search" else 1
        served = serve(wl, 0, max_rounds=rounds)
        if served["failed"]:
            raise SystemExit(f"cannot record references: {served['failed']}")
        print(json.dumps({"references": wl.reference(served["outputs"])}))
        return

    with open(args.refs, encoding="utf-8") as fh:
        refs = json.load(fh)

    if args.mode == "measure":
        served = serve(wl, args.seconds)
        attempted, failed, problems = settle(wl, served, refs)
        result.update({
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:20],
            "rounds": len(served["round_times"]),
            "round_s": served["round_times"],
            "metrics": end_to_end_metrics(served),
        })
        print(json.dumps(result))
        return

    # trace: the same rounds untraced, then traced; overhead from the requests
    # served in both
    plain = serve(wl, args.seconds / 2.0)
    tracer = Tracer()
    wl.call = tracer.call
    install_wrappers(tracer)
    origin = time.perf_counter()
    try:
        traced = serve(wl, 0, max_rounds=len(plain["round_times"]), tracer=tracer)
    finally:
        tracer.unwrap_all()
    plain_med, traced_med = request_medians(plain), request_medians(traced)
    both = plain_med.keys() & traced_med.keys()
    overhead = sum(traced_med[k] for k in both) / sum(plain_med[k] for k in both)
    if args.trace_out:
        tracer.write_jsonl(args.trace_out, origin)
    a1, f1, p1 = settle(wl, plain, refs)
    a2, f2, p2 = settle(wl, traced, refs)
    result.update({
        "attempted": a1 + a2,
        "failed": f1 + f2,
        "problems": (p1 + p2)[:20],
        "rounds": len(traced["round_times"]),
        "spans": len(tracer.spans),
        "metrics": layer_metrics(summarize(tracer.spans), overhead),
    })
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
