"""Run every workload over several seeds and record the baseline.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 55 --out perfbench/baseline.json

For each workload: one untraced run per seed, whose end-to-end metrics are
summarized as median, quartiles and spread (quartile distance over median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them), plus one
traced run at the shipped seed for the per-layer metrics.  Prints a
markdown table of the end-to-end figures.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        run.fail(f"{workload} seed {seed} exited with code {proc.returncode}")
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    return json.loads(lines[-1]), env


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    out = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in run.WORKLOADS:
        runs = []
        for seed in seeds:
            res, env = bench(workload, seed, args.seconds, 0)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']}", file=sys.stderr)
        traced, _ = bench(workload, run.SHIPPED_SEED, args.seconds, 1)
        out["env"] = {k: v for k, v in env.items() if k != "seed"}
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {k: dict(unit=m["unit"], **summarize([r["metrics"][k]["value"] for r in runs]))
                           for k, m in runs[0]["metrics"].items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")

    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for workload, w in out["workloads"].items():
        for k, s in w["end_to_end"].items():
            print(f"| {workload} | {k} | {s['unit']} | {s['median']:.4g} | {s['q1']:.4g} | "
                  f"{s['q3']:.4g} | {s['spread']:.3f} |")


if __name__ == "__main__":
    main()
