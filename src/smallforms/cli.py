"""Command-line front end tying the search, series, measure, box-dimension
and manifold experiments into reproducible runs.

Exit codes: 0 success, 2 malformed configuration, violated precondition or
unwritable ``--out``, 3 enumeration/grid budget exceeded.  One parser reads the
function specs: ``pow:c,tau`` / ``powlog:c,tau,kappa`` / ``table:path`` for
psi, ``pow:s`` / ``powlog:s,kappa`` for f, ``pow:exponent[,scale]`` /
``table:path`` for omega.  :class:`RunConfig`'s field defaults are the only
defaults, apart from ``--threads`` (``SMALLFORMS_THREADS``, else 1) and
``manifold --samples`` (2000).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from .boxdim import BoxDimReport, boxdim_estimate, coupled_schedule
from .errors import BudgetExceededError, PreconditionError, SmallFormsError
from .forms import MatrixPoint, UbiquityConfig
from .functions import ApproximatingFunction, DimensionFunction, OmegaFunction
from .manifold import certify_A_membership, gamma_dichotomy, sample_gamma_points
from .measure import (
    estimate_E_t,
    estimate_delta_t,
    reports_to_csv_rows,
    tail_dichotomy,
    ubiquity_density,
)
from .search import SearchBudget, dirichlet_witness, height_obstruction, min_form, witnesses
from .series import (
    build_omega,
    classify_series,
    dimension_formula_exact,
    sum_equivalence_check,
    verdict,
)

__all__ = ["RunConfig", "run", "emit_plot_data", "main"]

_VERDICT_DISPLAY = {
    "zero": "Zero",
    "full-lebesgue": "Full-Lebesgue",
    "infinite-hf": "Infinite-Hf",
    "hf-of-gamma": "Hf-of-Gamma",
    "singleton": "Singleton",
}


# ---------------------------------------------------------------------------
# function-spec mini-grammar
# ---------------------------------------------------------------------------

# Each family takes a fixed number of floats (or, for ``table``, the rows of a
# CSV file), so a spec with too many or too few parameters is a TypeError.
_PSI_FAMILIES = {
    "pow": lambda c, tau: ApproximatingFunction.power(c, tau),
    "powlog": lambda c, tau, kappa: ApproximatingFunction.power_log(c, tau, kappa),
    "table": ApproximatingFunction.from_table,
}
_F_FAMILIES = {"pow": DimensionFunction.power, "powlog": DimensionFunction.power_log}
_OMEGA_FAMILIES = {"pow": OmegaFunction.power, "table": OmegaFunction.from_table}


def _parse_spec(spec, what, families):
    """``family:p1,p2,...`` (floats) or ``table:path`` (CSV rows of two floats)."""
    kind, _, rest = spec.partition(":")
    if kind not in families:
        raise PreconditionError(f"bad {what} spec {spec!r}: unknown family {kind!r}")
    try:
        if kind == "table":
            with open(rest, newline="", encoding="utf-8") as fh:
                return families[kind]([(float(a), float(v)) for a, v in csv.reader(fh)])
        return families[kind](*(float(x) for x in rest.split(",")))
    except (TypeError, ValueError, OSError) as exc:
        raise PreconditionError(f"bad {what} spec {spec!r}: {exc}") from exc


def parse_psi(spec: str) -> ApproximatingFunction:
    return _parse_spec(spec, "psi", _PSI_FAMILIES)


def parse_f(spec: str) -> DimensionFunction:
    return _parse_spec(spec, "f", _F_FAMILIES)


def parse_omega(spec: str) -> OmegaFunction:
    return _parse_spec(spec, "omega", _OMEGA_FAMILIES)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Everything one dispatch needs; serializes losslessly to JSON."""

    subcommand: str
    mode: str = ""
    m: int = 2
    n: int = 1
    psi: str = ""
    f: str = ""
    tau: float | None = None
    x_entries: tuple = ()
    t: int | None = None
    t_schedule: tuple = ()
    n_schedule: tuple = ()
    q_max: int | None = None
    levels: tuple = ()
    k: float = 2.0
    omega: str = "pow:1"
    samples: int = 10_000
    seed: int | None = None
    horizon: int = 1 << 20
    alpha: float | None = None
    beta: float | None = None
    ball_center: tuple = ()
    ball_radius: float = 0.5
    band_ratio: float = 2.0
    pruning: bool = True
    max_witnesses: int | None = None
    threads: int = 1
    out_dir: str = ""
    out_format: str = "json"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        coerced = dict(data)
        for key in ("x_entries", "t_schedule", "n_schedule", "levels", "ball_center"):
            if key in coerced and coerced[key] is not None:
                coerced[key] = tuple(coerced[key])
        return cls(**coerced)

    def validate(self) -> None:
        if self.m < 1 or self.n < 1:
            raise PreconditionError("m and n must be >= 1")
        if self.out_format not in ("json", "csv", "both"):
            raise PreconditionError(f"unknown output format {self.out_format!r}")
        stochastic = {"measure", "manifold"}
        if self.subcommand in stochastic and self.seed is None:
            raise PreconditionError(f"'{self.subcommand}' runs need an explicit --seed")
        if self.threads < 1:
            raise PreconditionError("threads must be >= 1")


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _emit_reports(reports, config, stem):
    written = []
    if not config.out_dir:
        return written
    os.makedirs(config.out_dir, exist_ok=True)
    if config.out_format in ("json", "both"):
        for i, rep in enumerate(reports):
            path = os.path.join(config.out_dir, f"{stem}-{i:03d}.json")
            _write_json(path, rep.to_json_dict())
            written.append(path)
    if config.out_format in ("csv", "both"):
        path = os.path.join(config.out_dir, f"{stem}.csv")
        _write_csv(path, reports_to_csv_rows(reports))
        written.append(path)
    return written


_PLOT_SCRIPT = """\
# Plot the accompanying CSV; column meanings are in the header row.
# Usage: python plot.py data.csv
import csv
import sys

import matplotlib.pyplot as plt

with open(sys.argv[1], newline="") as fh:
    rows = list(csv.DictReader(fh))
xs = [float(r["{x}"]) for r in rows]
ys = [float(r["{y}"]) for r in rows]
err = [float(r["{err}"]) for r in rows] if "{err}" in rows[0] else None
plt.errorbar(xs, ys, yerr=err, marker="o")
plt.xlabel("{x}")
plt.ylabel("{y}")
plt.title("{title}")
plt.savefig(sys.argv[1].replace(".csv", ".png"), dpi=150)
"""


def emit_plot_data(reports, out_csv, out_script):
    """Write a tidy CSV for a family of reports plus a generic plot script.

    All reports must belong to one experiment family; the script text only
    references CSV columns, never package internals.
    """
    reports = list(reports)
    if not reports:
        raise PreconditionError("no reports to emit")
    if isinstance(reports[0], BoxDimReport):
        if not all(isinstance(r, BoxDimReport) for r in reports):
            raise PreconditionError("mixed report families")
        rows = [("log2_inv_delta", "log2_N", "Q")] + [
            (repr(math.log2(1.0 / delta)), repr(math.log2(max(count, 1))), q_max)
            for rep in reports for delta, q_max, _, count in rep.points
        ]
        script = _PLOT_SCRIPT.format(
            x="log2_inv_delta", y="log2_N", err="", title="box-count scaling"
        )
    else:
        families = {r.experiment for r in reports}
        if len(families) != 1:
            raise PreconditionError(f"mixed report families: {sorted(families)}")
        rows = reports_to_csv_rows(reports)
        script = _PLOT_SCRIPT.format(
            x="parameter_value", y="estimate", err="stderr", title=families.pop()
        )
    _write_csv(out_csv, rows)
    with open(out_script, "w", encoding="utf-8") as fh:
        fh.write(script)
    return out_csv, out_script


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _matrix_from_config(config) -> MatrixPoint:
    if not config.x_entries:
        raise PreconditionError("this subcommand needs --X entries")
    return MatrixPoint.from_flat(np.asarray(config.x_entries, dtype=float), config.m, config.n)


def _run_search(config, out):
    X = _matrix_from_config(config)
    q_max = 10 if config.q_max is None else config.q_max
    if config.psi:
        psi = parse_psi(config.psi)
        budget = SearchBudget(q_max, config.max_witnesses, config.pruning)
        result = witnesses(X, psi, budget)
        for w in result.witnesses:
            out(f"q={w.q} height={w.height} value={w.value!r}")
        out(f"{len(result.witnesses)} witness(es); truncated={result.truncated}")
    else:
        w = min_form(X, q_max, pruned=config.pruning)
        out(f"min |qX| = {w.value!r} at q={w.q} (height {w.height})")
    return []


def _run_dirichlet(config, out):
    X = _matrix_from_config(config)
    t = 1 if config.t is None else config.t
    w = dirichlet_witness(X, t)
    out(f"q={w.q} height={w.height} value={w.value!r} (t={t})")
    return []


def _run_obstruction(config, out):
    X = _matrix_from_config(config)
    psi = parse_psi(config.psi or "pow:1,2")
    q_star = height_obstruction(X, psi)
    out(f"no witness above height {q_star}")
    return []


def _run_series(config, out):
    mode = config.mode or "verdict"
    if mode == "dimension":
        if config.tau is None or not math.isfinite(config.tau):
            raise PreconditionError("dimension mode needs a finite --tau")
        exact = dimension_formula_exact(config.m, config.n, Fraction(config.tau).limit_denominator(10**9))
        out(f"{exact} ≈ {float(exact):.6f}")
        return []
    psi = parse_psi(config.psi)
    f = parse_f(config.f) if config.f else DimensionFunction.power(config.m * config.n)
    if mode == "classify":
        behavior = classify_series(config.m, config.n, f, psi)
        out(behavior.describe())
        return []
    if mode == "verdict":
        behavior = classify_series(config.m, config.n, f, psi)
        v = verdict(config.m, config.n, f, psi)
        tag = "Divergent" if behavior.divergent else "Convergent"
        out(f"{tag} / {_VERDICT_DISPLAY[v.tag]}")
        out(v.justification)
        return []
    if mode == "omega":
        omega = build_omega(config.m, config.n, f, psi, config.horizon)
        out(f"{omega.block_count} blocks, breakpoints {omega.breakpoints}")
        return []
    if mode == "equivalence":
        if config.alpha is None or config.beta is None:
            raise PreconditionError("equivalence mode needs --alpha and --beta")
        rep = sum_equivalence_check(config.alpha, config.beta, psi, f, config.k, config.horizon)
        out(f"equivalent={rep.equivalent} band C={rep.band:.4g}")
        return []
    raise PreconditionError(f"unknown series mode {mode!r}")


def _run_measure(config, out):
    c = config
    if c.mode in ("delta-t", "dichotomy") and not c.psi:
        raise PreconditionError(f"measure {c.mode} needs --psi")
    psi = parse_psi(c.psi) if c.psi else None
    sampling = {"samples": c.samples, "seed": c.seed, "threads": c.threads}
    if c.mode == "dichotomy":
        reports = tail_dichotomy(c.m, c.n, psi, c.n_schedule, c.q_max, **sampling)
    else:
        if c.mode == "delta-t":
            estimate, target, extra = estimate_delta_t, psi, {"k": c.k}
        elif c.mode == "e-t":
            estimate, target, extra = estimate_E_t, parse_omega(c.omega), {}
        elif c.mode == "ubiquity":
            estimate, target = ubiquity_density, UbiquityConfig(c.m, c.n, parse_omega(c.omega), k=c.k)
            extra = {"ball_center": c.ball_center or None, "ball_radius": c.ball_radius}
        else:
            raise PreconditionError(f"unknown measure mode {c.mode!r}")
        reports = [estimate(c.m, c.n, target, t, **extra, **sampling)
                   for t in c.t_schedule or ((c.t,) if c.t else ())]
    if not reports:
        raise PreconditionError("no schedule points given (--t or --t-schedule)")
    for rep in reports:
        out(
            f"{rep.experiment} {rep.parameter}={rep.parameter_value:g}: "
            f"{rep.estimate:.6f} +- {rep.stderr:.6f} ({rep.hits}/{rep.samples})"
        )
    return reports


def _run_boxdim(config, out):
    if config.tau is None:
        raise PreconditionError("boxdim needs --tau")
    levels = config.levels or (4, 5, 6, 7)
    schedule = coupled_schedule(config.m, config.n, config.tau, levels, config.band_ratio)
    report = boxdim_estimate(config.m, config.n, config.tau, schedule)
    out(
        f"slope {report.slope:.4f} (target {report.target:.4f}), "
        f"max residual {report.max_residual():.3f}"
    )
    for delta, q_max, h_min, count in report.points:
        out(f"  delta=2^{int(math.log2(delta))} heights [{h_min}, {q_max}] N={count}")
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        emit_plot_data(
            [report],
            os.path.join(config.out_dir, "boxdim.csv"),
            os.path.join(config.out_dir, "plot.py"),
        )
        _write_json(os.path.join(config.out_dir, "boxdim.json"), asdict(report))
    return []


def _run_manifold(config, out):
    mode = config.mode
    if mode == "gamma-dichotomy":
        psi = parse_psi(config.psi)
        reports = gamma_dichotomy(config.m, config.n, psi, config.n_schedule,
                                  config.q_max, config.samples, config.seed, config.threads)
        for rep in reports:
            out(
                f"{rep.experiment} N={rep.parameter_value:g}: "
                f"{rep.estimate:.6f} +- {rep.stderr:.6f}"
            )
        return reports
    if mode not in ("eta", "certify"):
        raise PreconditionError(f"unknown manifold mode {mode!r}")
    gp = sample_gamma_points(config.m, config.n, 1, config.seed)[0]
    if mode == "eta":
        out(f"defect {gp.defect:.3e}; rank-deficient={gp.rank_deficient}")
        out(np.array2string(gp.point.entries, precision=6))
        if config.out_dir:
            os.makedirs(config.out_dir, exist_ok=True)
            _write_json(os.path.join(config.out_dir, "gamma-point.json"), gp.to_json_dict())
        return []
    psi = parse_psi(config.psi)
    cert = certify_A_membership(gp, psi, 20 if config.q_max is None else config.q_max)
    out(
        f"certified={cert.certified} c={cert.c} "
        f"witnesses={len(cert.witnesses_checked)} vacuous={cert.vacuous}"
    )
    return []


_DISPATCH = {
    "search": _run_search,
    "dirichlet": _run_dirichlet,
    "obstruction": _run_obstruction,
    "series": _run_series,
    "dimension": _run_series,
    "measure": _run_measure,
    "boxdim": _run_boxdim,
    "manifold": _run_manifold,
}


def run(config: RunConfig, out=print) -> int:
    """Validate, dispatch, write artifacts; returns the process exit code."""
    try:
        config.validate()
        if config.subcommand == "dimension":
            config = replace(config, mode="dimension")
        handler = _DISPATCH.get(config.subcommand)
        if handler is None:
            raise PreconditionError(f"unknown subcommand {config.subcommand!r}")
        reports = handler(config, out)
        if reports:
            _emit_reports(reports, config, config.subcommand + (f"-{config.mode}" if config.mode else ""))
        return 0
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (SmallFormsError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _csv_ints(text):
    return tuple(int(x) for x in text.split(",") if x)


def _csv_floats(text):
    return tuple(float(x) for x in text.split(",") if x)


def build_parser() -> argparse.ArgumentParser:
    """Options left out stay out of the namespace, so RunConfig's field
    defaults apply; only --threads and manifold --samples set their own."""
    parser = argparse.ArgumentParser(
        prog="smallforms",
        description="witness search, series verdicts, and measure/dimension experiments "
        "for simultaneously small linear forms",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--threads", type=int,
                        default=os.environ.get("SMALLFORMS_THREADS", "1"),
                        help="worker threads for sample batches")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--out", dest="out_dir")
        p.add_argument("--format", dest="out_format", choices=("json", "csv", "both"))
        return p

    p = command("search", "minimize |qX| or list psi-witnesses up to Q")
    p.add_argument("--X", dest="x_entries", type=_csv_floats, required=True,
                   help="column-major entries of X")
    p.add_argument("--Q", dest="q_max", type=int, required=True)
    p.add_argument("--psi", help="list witnesses for this psi instead of minimizing")
    p.add_argument("--max-witnesses", dest="max_witnesses", type=int)
    p.add_argument("--no-pruning", dest="pruning", action="store_false")

    p = command("dirichlet", "pigeonhole witness at stage t")
    p.add_argument("--X", dest="x_entries", type=_csv_floats, required=True)
    p.add_argument("--t", type=int, required=True)

    p = command("obstruction", "height bound for invertible square X")
    p.add_argument("--X", dest="x_entries", type=_csv_floats, required=True)
    p.add_argument("--psi", required=True)

    p = command("series", "classify sums, render verdicts, build omega")
    p.add_argument("mode", choices=("classify", "verdict", "dimension", "omega", "equivalence"))
    p.add_argument("--psi")
    p.add_argument("--f")
    p.add_argument("--tau", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--k", type=float)

    p = command("dimension", "dimension formula for pure power psi")
    p.add_argument("--tau", type=float, required=True)

    p = command("measure", "Monte Carlo measure experiments")
    p.add_argument("mode", choices=("delta-t", "e-t", "ubiquity", "dichotomy"))
    p.add_argument("--psi")
    p.add_argument("--omega")
    p.add_argument("--t", type=int)
    p.add_argument("--t-schedule", dest="t_schedule", type=_csv_ints)
    p.add_argument("--N-schedule", dest="n_schedule", type=_csv_ints)
    p.add_argument("--Q", dest="q_max", type=int)
    p.add_argument("--k", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--ball-center", dest="ball_center", type=_csv_floats)
    p.add_argument("--ball-radius", dest="ball_radius", type=float)

    p = command("boxdim", "coupled-schedule box-count slope")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--levels", type=_csv_ints)
    p.add_argument("--band-ratio", dest="band_ratio", type=float)

    p = command("manifold", "variety embedding and dichotomy on it")
    p.add_argument("mode", choices=("eta", "certify", "gamma-dichotomy"))
    p.add_argument("--psi")
    p.add_argument("--N-schedule", dest="n_schedule", type=_csv_ints)
    p.add_argument("--Q", dest="q_max", type=int)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int)

    return parser


def config_from_args(argv=None) -> RunConfig:
    return RunConfig.from_dict(vars(build_parser().parse_args(argv)))


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
