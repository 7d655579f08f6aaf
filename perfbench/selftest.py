"""Self-test of the benchmark's output checks and metric names.

    python3 perfbench/selftest.py

For each reference section, corrupts one recorded value and runs one round
at the shipped seed against the corrupted copy: the run must come back
incorrect, with failed items.  Also checks that the genuine references pass,
that the metric names and units printed match ``BENCHMARK.json``, and that
self time subtracts the union of overlapping child spans.
Exits 0 when every check holds.
"""

import copy
import json
import sys

import run
import spans
import worker

# reference section -> (workload that checks it, how to corrupt it)
CORRUPT = {
    "search": ("search", lambda ref: ref["digests"].__setitem__(0, "0" * 16)),
    "dichotomy": ("experiments", lambda ref: ref["outputs"]["tail_2x1"].__setitem__(
        0, ref["outputs"]["tail_2x1"][0] + 1)),
    "excess-height": ("experiments", lambda ref: ref["outputs"].__setitem__(
        "E_3x1_t8", ref["outputs"]["E_3x1_t8"] + 1)),
    "boxdim": ("experiments", lambda ref: ref["outputs"]["2x2_tau3"].__setitem__(
        0, ref["outputs"]["2x2_tau3"][0] + 1)),
}


def main():
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"end_to_end names/units differ: {e2e} vs {run.END_TO_END_UNITS}")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {k: v["unit"] for k, v in worker.layer_metrics({}, 1.0).items()}
    if layers != emitted:
        problems.append(f"per_layer names/units differ: {sorted(set(layers) ^ set(emitted))}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")

    # two overlapping children of one span: self time subtracts their union
    tree = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 0, "start": 3.0, "end": 6.0}]
    if spans.self_times(tree) != {0: 5.0, 1: 3.0, 2: 3.0}:
        problems.append(f"self time of overlapping children: {spans.self_times(tree)}")

    refs = json.loads(run.REFS.read_text(encoding="utf-8"))
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "selftest-refs.json"
    genuine = run.run_worker("measure", "search", run.SHIPPED_SEED, 0)
    if genuine["failed"]:
        problems.append(f"search fails against the genuine references: {genuine['problems']}")
    for section, (workload, corrupt) in CORRUPT.items():
        bad = copy.deepcopy(refs)
        corrupt(bad[section])
        path.write_text(json.dumps(bad), encoding="utf-8")
        res = run.run_worker("measure", workload, run.SHIPPED_SEED, 0, refs=path)
        caught = res["failed"] > 0 and any("reference" in p for p in res["problems"])
        print(f"{section:14s} corrupted reference caught: {caught} ({res['failed']} failed items)")
        if not caught:
            problems.append(f"{section}: corrupted reference not caught")
    path.unlink()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
