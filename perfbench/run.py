"""Benchmark entry point for smallforms.

    python3 perfbench/run.py --workload search --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55
    python3 perfbench/run.py --record-references

Run from the root of a source checkout: the package is imported from
``src/``.  Each workload runs in its own process with the BLAS and OpenMP
thread pools pinned to one thread.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run and
writes its spans to ``.bench_out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "references.json"
OUT = ROOT / ".bench_out"
WORKLOADS = ("search", "experiments")
SHIPPED_SEED = 0
SETUP_PROCESSES = 3          # setup_s is the median of this many fresh processes
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p99_ms": "ms", "peak_rss_mb": "MB"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def worker_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(mode, workload, seed, seconds=0.0, refs=REFS, trace_out=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--refs", str(refs)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} {mode} worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"{workload} {mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    """The git commit when run from a repository, else a digest of src/."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def end_to_end(workload, seed, seconds):
    """Untraced run plus extra fresh set-up processes: every end-to-end metric."""
    setups = [run_worker("setup", workload, seed)["setup_s"] for _ in range(SETUP_PROCESSES - 1)]
    res = run_worker("measure", workload, seed, seconds)
    setups.append(res["setup_s"])
    metrics = dict(res["metrics"], setup_s=statistics.median(setups))
    res["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    res["setup_runs_s"] = setups
    return res


def traced(workload, seed, seconds):
    OUT.mkdir(exist_ok=True)
    return run_worker("trace", workload, seed, seconds,
                      trace_out=OUT / f"trace-{workload}-seed{seed}.jsonl")


def record_references():
    refs = {}
    for workload in WORKLOADS:
        refs.update(run_worker("record", workload, SHIPPED_SEED)["references"])
        print(f"recorded {workload}", file=sys.stderr)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def report(res):
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": res["metrics"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=SHIPPED_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "smallforms" / "__init__.py").is_file():
        fail(f"no smallforms sources under {ROOT / 'src'}; run from a source checkout")
    if args.record_references:
        record_references()
        return
    if args.workload is None:
        fail("--workload is required")
    if not REFS.is_file():
        fail(f"missing {REFS.name}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = {"commit": commit()}
    results = {}
    for name in names:
        res = traced(name, args.seed, args.seconds) if args.trace else \
            end_to_end(name, args.seed, args.seconds)
        env.update(res.pop("env"))
        results[name] = res
        print(json.dumps({"workload": name, **{k: v for k, v in res.items() if k != "metrics"}}))
        for key, m in res["metrics"].items():
            print(f"{name:14s} {key:40s} {m['value']:.6g} {m['unit']}")
        print(f"{name:14s} {'error_rate':40s} {res['failed'] / res['attempted']:.6g} failed/attempted")
    print(json.dumps({"env": env}))
    if len(names) == 1:
        out = report(results[names[0]])
    else:
        out = {"correct": all(r["failed"] == 0 for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
