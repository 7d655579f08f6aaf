import contextlib
import csv
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallforms.boxdim import boxdim_estimate, coupled_schedule
from smallforms.cli import (
    RunConfig,
    build_parser,
    config_from_args,
    emit_plot_data,
    main,
    parse_f,
    parse_omega,
    parse_psi,
    run,
)
from smallforms.errors import PreconditionError
from smallforms.functions import ApproximatingFunction, DimensionFunction, OmegaFunction
from smallforms.manifold import sample_gamma_points
from smallforms.measure import ExperimentReport, estimate_E_t


def run_capture(argv):
    lines = []
    config = config_from_args(argv)
    code = run(config, out=lines.append)
    return code, lines


class TestSpecGrammar:
    def test_psi_power(self):
        psi = parse_psi("pow:1,2")
        assert psi(2.0) == 0.25

    def test_psi_powerlog(self):
        psi = parse_psi("powlog:2,1,0.5")
        assert psi(3.0) == pytest.approx(2 / 3 / math.log(math.e + 3) ** 0.5)

    def test_psi_table(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("1,1.0\n4,0.5\n", encoding="utf-8")
        psi = parse_psi(f"table:{path}")
        assert psi(5.0) == 0.5

    def test_f_specs(self):
        assert parse_f("pow:2")(0.5) == 0.25
        assert parse_f("powlog:1,1")(0.25) == pytest.approx(0.25 * math.log(4))

    def test_omega_specs(self):
        assert parse_omega("pow:1")(3.0) == 3.0
        assert parse_omega("pow:0.5,2")(4.0) == 4.0

    def test_bad_specs_rejected(self):
        for bad in ("pow:", "pw:1,2", "table:/nonexistent/x.csv", "powlog:1"):
            with pytest.raises(PreconditionError):
                parse_psi(bad)

    @pytest.mark.parametrize("parse, spec", [
        (parse_psi, "pow:1,2,3"), (parse_psi, "powlog:1,2,3,4"),
        (parse_f, "pow:1,2"), (parse_omega, "pow:1,2,3"),
    ])
    def test_extra_parameter_rejected(self, parse, spec):
        # a surplus float must not reach an optional keyword such as strict=
        with pytest.raises(PreconditionError):
            parse(spec)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 10), st.floats(0, 5))
    def test_psi_spec_round_trip(self, c, tau, kappa):
        for psi in (ApproximatingFunction.power(c, tau),
                    ApproximatingFunction.power_log(c, tau, kappa)):
            assert parse_psi(psi.spec()) == psi

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-3, 10), st.floats(-5, 5))
    def test_f_spec_round_trip(self, s, kappa):
        for f in (DimensionFunction.power(s), DimensionFunction.power_log(s, kappa)):
            assert parse_f(f.spec()) == f


class TestRunConfig:
    def test_round_trip(self):
        cfg = config_from_args(
            ["measure", "dichotomy", "--m", "3", "--n", "1", "--psi", "pow:1,2.5",
             "--N-schedule", "2,4,8", "--Q", "64", "--samples", "500", "--seed", "9"]
        )
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("argv, given", [
        (["search", "--X", "0.5,0.25", "--Q", "2"], {"x_entries": (0.5, 0.25), "q_max": 2}),
        (["dirichlet", "--X", "0.5,0.25", "--t", "3"], {"x_entries": (0.5, 0.25), "t": 3}),
        (["obstruction", "--X", "0.5,0,0,0.5", "--psi", "pow:1,2"],
         {"x_entries": (0.5, 0.0, 0.0, 0.5), "psi": "pow:1,2"}),
        (["series", "verdict"], {"mode": "verdict"}),
        (["dimension", "--tau", "2"], {"tau": 2.0}),
        (["measure", "e-t"], {"mode": "e-t"}),
        (["boxdim", "--tau", "2"], {"tau": 2.0}),
        (["manifold", "eta"], {"mode": "eta"}),
    ], ids=["search", "dirichlet", "obstruction", "series", "dimension", "measure", "boxdim",
            "manifold"])
    def test_defaults_come_from_run_config(self, argv, given, monkeypatch):
        # only --threads and manifold --samples default in the parser
        monkeypatch.setenv("SMALLFORMS_THREADS", "2")
        kept = {"threads": 2, **({"samples": 2000} if argv[0] == "manifold" else {})}
        ns = vars(build_parser().parse_args(argv))
        assert set(ns) == {"subcommand", *given, *kept}
        assert config_from_args(argv) == RunConfig(argv[0], **given, **kept)

    def test_stochastic_requires_seed(self):
        cfg = config_from_args(
            ["measure", "dichotomy", "--m", "2", "--n", "1", "--psi", "pow:1,2",
             "--N-schedule", "2", "--Q", "8", "--samples", "10"]
        )
        assert run(cfg, out=lambda _: None) == 2


class TestDispatch:
    def test_series_verdict_line(self):
        code, lines = run_capture(
            ["series", "verdict", "--m", "3", "--n", "1", "--psi", "pow:1,2", "--f", "pow:3"]
        )
        assert code == 0
        assert lines[0] == "Divergent / Full-Lebesgue"

    def test_series_classify_line(self):
        code, lines = run_capture(
            ["series", "classify", "--m", "3", "--n", "1", "--psi", "pow:1,2", "--f", "powlog:3,-2"]
        )
        assert code == 0
        assert lines == ["convergent (term ~ r^-1 log(r)^-2)"]

    def test_dimension_line(self):
        code, lines = run_capture(["dimension", "--m", "2", "--n", "1", "--tau", "2"])
        assert code == 0
        assert lines[0] == "5/3 ≈ 1.666667"

    def test_search_forwarding(self):
        code, lines = run_capture(
            ["search", "--m", "2", "--n", "1", "--X", "0.5,0.25", "--Q", "2"]
        )
        assert code == 0
        assert "q=(1, -2)" in lines[0]
        assert "0.0" in lines[0]

    def test_witness_listing(self):
        code, lines = run_capture(
            ["search", "--m", "2", "--n", "1", "--X", "0.5,0.25", "--Q", "4",
             "--psi", "pow:0.01,3"]
        )
        assert code == 0
        assert any("q=(1, -2)" in ln for ln in lines)
        assert any("q=(2, -4)" in ln for ln in lines)

    def test_dirichlet_and_obstruction(self):
        code, lines = run_capture(
            ["dirichlet", "--m", "2", "--n", "1", "--X", "0.5,0.5", "--t", "3"]
        )
        assert code == 0 and "q=(1, -1)" in lines[0]
        code, lines = run_capture(
            ["obstruction", "--m", "2", "--n", "2", "--X", "0.5,0,0,0.5",
             "--psi", "pow:1,1"]
        )
        assert code == 0 and "height 2" in lines[0]

    def test_series_omega_blocks(self):
        code, lines = run_capture(
            ["series", "omega", "--m", "2", "--n", "1", "--psi", "pow:1,1",
             "--f", "pow:2", "--horizon", "10000"]
        )
        assert code == 0 and "blocks" in lines[0]

    def test_series_equivalence_mode(self):
        code, lines = run_capture(
            ["series", "equivalence", "--psi", "pow:1,2", "--f", "pow:1",
             "--alpha", "1", "--beta", "0", "--horizon", "65536"]
        )
        assert code == 0 and "equivalent=True" in lines[0]

    def test_manifold_eta_writes_point(self, tmp_path):
        code, _ = run_capture(
            ["manifold", "eta", "--m", "2", "--n", "2", "--seed", "1",
             "--out", str(tmp_path)]
        )
        assert code == 0
        data = json.loads((tmp_path / "gamma-point.json").read_text())
        assert data["rank_deficient"] is True and "base" in data

    def test_boxdim_writes_diagnostics(self, tmp_path):
        code, _ = run_capture(
            ["boxdim", "--m", "2", "--n", "1", "--tau", "2",
             "--levels", "4,5,6,7", "--out", str(tmp_path)]
        )
        assert code == 0
        diag = json.loads((tmp_path / "boxdim.json").read_text())
        assert diag["label"] == "box-dimension proxy"
        assert len(diag["points"]) == 4

    def test_measure_runs_and_writes(self, tmp_path):
        code, lines = run_capture(
            ["measure", "delta-t", "--m", "2", "--n", "1", "--psi", "pow:1,2",
             "--t", "3", "--samples", "400", "--seed", "3",
             "--out", str(tmp_path), "--format", "both"]
        )
        assert code == 0
        written = sorted(os.listdir(tmp_path))
        assert any(p.endswith(".json") for p in written)
        assert any(p.endswith(".csv") for p in written)

    def test_delta_t_empty_band_reports_zero_hits(self):
        # k = 1.1 at t = 2: no integer height in [1.1, 1.21]
        code, lines = run_capture(
            ["measure", "delta-t", "--m", "2", "--n", "1", "--psi", "pow:1,2",
             "--t", "2", "--k", "1.1", "--samples", "10", "--seed", "1"]
        )
        assert code == 0 and "(0/10)" in lines[0]

    def test_manifold_modes(self):
        code, lines = run_capture(["manifold", "eta", "--m", "2", "--n", "2", "--seed", "1"])
        assert code == 0 and "rank-deficient=True" in lines[0]
        code, lines = run_capture(
            ["manifold", "certify", "--m", "2", "--n", "2", "--psi", "pow:1,1.5",
             "--Q", "10", "--seed", "1"]
        )
        assert code == 0 and "certified=True" in lines[0]

    def test_precondition_exit_code(self):
        code, _ = run_capture(
            ["series", "verdict", "--m", "2", "--n", "1", "--psi", "pow:1,-1", "--f", "pow:2"]
        )
        assert code == 2

    @pytest.mark.parametrize("env, argv", [
        ({}, ["measure", "e-t", "--m", "3", "--t", "4", "--samples", "0", "--seed", "1"]),
        ({}, ["measure", "e-t", "--m", "3", "--t", "4", "--samples", "-5", "--seed", "1"]),
        ({}, ["measure", "dichotomy", "--psi", "pow:1,2", "--N-schedule", "2", "--Q", "8",
              "--samples", "0", "--seed", "1"]),
        ({}, ["manifold", "gamma-dichotomy", "--m", "2", "--n", "2", "--psi", "pow:1,1",
              "--N-schedule", "2", "--Q", "8", "--samples", "0", "--seed", "1"]),
        ({}, ["measure", "dichotomy", "--psi", "pow:1,2", "--N-schedule", "2", "--seed", "1"]),
        ({}, ["manifold", "gamma-dichotomy", "--m", "2", "--n", "2", "--psi", "pow:1,1",
              "--N-schedule", "2", "--seed", "1"]),
        ({}, ["measure", "delta-t", "--t", "3", "--samples", "10", "--seed", "1"]),
        ({}, ["measure", "dichotomy", "--N-schedule", "2", "--Q", "8", "--seed", "1"]),
        ({"SMALLFORMS_THREADS": "abc"}, ["dimension", "--tau", "2"]),
        ({}, ["search", "--m", "2", "--n", "1", "--X", "nan,0.25", "--Q", "4"]),
        ({}, ["search", "--m", "2", "--n", "1", "--X", "nan,0.25", "--Q", "4", "--no-pruning"]),
        ({}, ["boxdim", "--m", "2", "--n", "1", "--levels", "4,5,6,7", "--tau", "nan"]),
        ({}, ["boxdim", "--m", "2", "--n", "1", "--levels", "4,5,6,7", "--tau", "-1"]),
        ({}, ["boxdim", "--m", "2", "--n", "1", "--levels", "4,5,6,7", "--tau", "inf"]),
        ({}, ["boxdim", "--m", "2", "--n", "1", "--levels", "4,5,6,7", "--tau", "2",
              "--band-ratio", "nan"]),
        ({}, ["measure", "e-t", "--m", "3", "--n", "1", "--t", "8", "--seed", "1",
              "--omega", "pow:1,nan"]),
        ({}, ["measure", "e-t", "--m", "3", "--n", "1", "--t", "8", "--seed", "1",
              "--omega", "pow:nan"]),
        ({}, ["measure", "ubiquity", "--m", "2", "--n", "1", "--t", "3", "--seed", "1",
              "--k", "nan"]),
        ({}, ["measure", "ubiquity", "--m", "2", "--n", "1", "--t", "3", "--seed", "1",
              "--k", "inf"]),
        ({}, ["measure", "delta-t", "--m", "2", "--n", "1", "--psi", "pow:1,2", "--t", "3",
              "--seed", "1", "--k", "nan"]),
        ({}, ["measure", "e-t", "--m", "3", "--n", "1", "--t", "8", "--seed", "1",
              "--samples", "50", "--omega", "pow:1,inf"]),
        ({}, ["measure", "ubiquity", "--m", "2", "--n", "1", "--t", "3", "--seed", "1",
              "--samples", "50", "--ball-radius", "nan"]),
        ({}, ["measure", "ubiquity", "--m", "2", "--n", "1", "--t", "3", "--seed", "1",
              "--samples", "50", "--ball-center", "nan,0"]),
        ({}, ["search", "--m", "2", "--n", "1", "--X", "0.5,0.25", "--Q", "4", "--psi", "pow:1,inf"]),
        ({}, ["series", "verdict", "--m", "2", "--n", "1", "--psi", "powlog:1,2,nan", "--f", "pow:2"]),
        ({}, ["series", "verdict", "--m", "2", "--n", "1", "--psi", "pow:inf,2", "--f", "pow:2"]),
        ({}, ["search", "--m", "2", "--n", "1", "--X", "0.3,0.25", "--Q", "20",
              "--psi", "powlog:0.02,0.1,-5"]),
        ({}, ["search", "--m", "2", "--n", "1", "--X", "0.5,0.25", "--Q", "0"]),
        ({}, ["dirichlet", "--m", "2", "--n", "1", "--X", "0.5,0.25", "--t", "0"]),
        ({}, ["manifold", "certify", "--m", "2", "--n", "2", "--psi", "pow:1,1", "--Q", "0",
              "--seed", "1"]),
        ({}, ["dimension", "--tau", "inf"]),
        ({}, ["dimension", "--tau", "nan"]),
        ({}, ["series", "equivalence", "--psi", "pow:1,2", "--f", "pow:1", "--alpha", "1",
              "--beta", "0", "--k", "nan", "--horizon", "65536"]),
        ({}, ["series", "equivalence", "--psi", "pow:1,2", "--f", "pow:1", "--alpha", "nan",
              "--beta", "0", "--horizon", "65536"]),
        ({}, ["measure", "e-t", "--m", "3", "--t", "4", "--samples", "10", "--seed", "-1"]),
        ({}, ["measure", "dichotomy", "--psi", "pow:1,2", "--N-schedule", "2", "--Q", "8",
              "--samples", "10", "--seed", "-3"]),
        ({}, ["manifold", "gamma-dichotomy", "--m", "2", "--n", "2", "--psi", "pow:1,1",
              "--N-schedule", "2", "--Q", "8", "--samples", "10", "--seed", "-1"]),
        ({}, ["manifold", "certify", "--m", "2", "--n", "2", "--psi", "pow:1,1", "--seed", "-1"]),
        ({}, ["measure", "delta-t", "--psi", "pow:1,2,3", "--t", "3", "--samples", "10",
              "--seed", "1"]),
        ({}, ["measure", "dichotomy", "--psi", "powlog:1,2,3,4", "--N-schedule", "2", "--Q", "8",
              "--samples", "10", "--seed", "1"]),
        ({}, ["series", "equivalence", "--psi", "pow:1,2", "--f", "pow:1", "--alpha", "1",
              "--beta", "0", "--horizon", "0"]),
        ({}, ["series", "verdict", "--m", "3", "--n", "1", "--psi", "pow:1,2", "--f", "pow:inf"]),
        ({}, ["series", "classify", "--m", "3", "--n", "1", "--psi", "pow:1,2", "--f", "pow:inf"]),
        ({}, ["series", "omega", "--m", "3", "--n", "1", "--psi", "pow:1,2",
              "--f", "powlog:1,inf"]),
        ({}, ["series", "equivalence", "--psi", "pow:1,2", "--f", "pow:1e400", "--alpha", "1",
              "--beta", "0"]),
    ], ids=["e-t-samples-0", "e-t-samples-negative", "dichotomy-samples-0",
            "gamma-samples-0", "dichotomy-no-Q", "gamma-no-Q", "delta-t-no-psi",
            "dichotomy-no-psi", "threads-env-not-int", "search-X-nan",
            "search-X-nan-no-pruning", "boxdim-tau-nan", "boxdim-tau-minus-1",
            "boxdim-tau-inf", "boxdim-band-ratio-nan", "e-t-omega-scale-nan",
            "e-t-omega-exponent-nan", "ubiquity-k-nan", "ubiquity-k-inf", "delta-t-k-nan",
            "e-t-omega-scale-inf", "ubiquity-ball-radius-nan", "ubiquity-ball-center-nan",
            "psi-tau-inf", "psi-kappa-nan", "psi-c-inf", "psi-power-log-increasing",
            "search-Q-0", "dirichlet-t-0", "certify-Q-0", "dimension-tau-inf",
            "dimension-tau-nan", "equivalence-k-nan", "equivalence-alpha-nan",
            "e-t-seed-negative", "dichotomy-seed-negative", "gamma-seed-negative",
            "certify-seed-negative", "psi-pow-three-parameters", "psi-powlog-four-parameters",
            "equivalence-horizon-0", "verdict-f-inf", "classify-f-inf",
            "omega-f-kappa-inf", "equivalence-f-1e400"])
    def test_bad_input_exits_2(self, env, argv, monkeypatch, capsys):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_negative_seed_is_a_precondition(self):
        with pytest.raises(PreconditionError):
            estimate_E_t(2, 1, OmegaFunction.power(1), 3, samples=10, seed=-1)
        with pytest.raises(PreconditionError):
            sample_gamma_points(2, 2, 1, -1)

    @pytest.mark.parametrize("argv", [
        ["boxdim", "--m", "2", "--n", "1", "--tau", "2", "--levels", "4,5,6,7"],
        ["measure", "e-t", "--m", "2", "--t", "3", "--samples", "10", "--seed", "1"],
        ["manifold", "eta", "--m", "2", "--n", "2", "--seed", "1"],
    ], ids=["boxdim", "e-t", "eta"])
    def test_unwritable_out_exits_2(self, argv, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert main(argv + ["--out", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_budget_exit_code(self):
        code, _ = run_capture(
            ["measure", "delta-t", "--m", "3", "--n", "1", "--psi", "pow:1,1",
             "--t", "11", "--samples", "100000", "--seed", "1"]
        )
        assert code == 3

    def test_height_overflow_exit_code(self):
        # 2^t overflows a float: a budget error, not an OverflowError traceback
        code, _ = run_capture(
            ["measure", "e-t", "--m", "3", "--n", "1", "--t", "1100", "--samples", "100",
             "--seed", "1"]
        )
        assert code == 3

    def test_dichotomy_rounding_bound_exit_code(self, capsys):
        # psi = h^-6 on the heights 128..256: the box engine's rounding bound
        # (m + 2) eps H max|x| / b is far above 1/4, so the run exits 3
        argv = ["measure", "dichotomy", "--m", "2", "--n", "1", "--psi", "pow:1,6",
                "--N-schedule", "128", "--Q", "256", "--samples", "100", "--seed", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "double precision" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["series", "omega", "--m", "2", "--n", "1", "--psi", "pow:1,1", "--f", "pow:2",
         "--horizon", "10000000000000"],
        ["series", "equivalence", "--psi", "pow:1,2", "--f", "pow:1", "--alpha", "1",
         "--beta", "0", "--horizon", "10000000000000"],
        ["series", "omega", "--m", "2", "--n", "1", "--psi", "pow:1,400", "--f", "pow:0.5",
         "--horizon", "1000"],
        ["series", "equivalence", "--psi", "pow:1,50", "--f", "pow:1", "--alpha", "1",
         "--beta", "-8", "--horizon", "4096"],
        ["series", "equivalence", "--psi", "pow:1,400", "--f", "pow:1", "--alpha", "1",
         "--beta", "0", "--horizon", "4096"],
    ], ids=["omega-horizon-huge", "equivalence-horizon-huge", "omega-psi-underflow",
            "equivalence-term-overflow", "equivalence-psi-underflow"])
    def test_series_budget_exit_code(self, argv, capsys):
        # a horizon over the term budget, a Psi or psi that underflows to 0, or
        # a summed term that overflows
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("budget error: ") and err.count("\n") == 1

    def test_main_handles_bad_argv(self):
        assert main(["no-such-command"]) == 2


def _pick(valid, invalid):
    """Mostly valid values, so that most runs get past the argument checks."""
    return st.sampled_from(valid * 6 + invalid)


_PSI = _pick(("pow:1,2", "pow:0.5,1.5", "powlog:1,2,1", "pow:1,1", "pow:1,0.5"),
             ("pow:1,-1", "pow:1,2,3", "powlog:1,2,3,4", "pow:inf,2", "pw:1,2", "pow:", "pow:1,6"))
_F = _pick(("pow:2", "pow:1", "powlog:1,1"), ("pow:1,2", "pow:-1", "table:x", "pow:inf"))
_OMEGA = _pick(("pow:1", "pow:0.5,2"), ("pow:1,2,3", "pow:nan", "pow:0", "x"))
_REAL = _pick(("1", "2", "0.5", "1.5", "3"), ("0", "-1", "nan", "inf"))
_ENTRY = _pick(("0", "0.5", "-0.3", "0.25", "0.125", "-0.5"), ("0.7", "nan", "x"))
_Q = _pick(("1", "2", "5", "16"), ("0", "-1"))
_T = _pick(("1", "2", "4", "8"), ("0", "-1"))
_SAMPLES = _pick(("1", "7", "33", "64"), ("0", "-1"))
_SEED = st.sampled_from(("0", "1", "7", "-1", "-3"))
_N_SCHEDULE = _pick(("1", "2,4", "2,4,8", "4,16"), ("0", "-1,2", "", "x"))
_T_SCHEDULE = _pick(("2", "3,5", "2,4,8"), ("0", "", "x"))
_LEVELS = _pick(("3,4,5,6", "1,2,3,4,5,6", "2,3,4,5"),
                ("", "4,5,6", "4,4,5,6", "6,5,4,3", "-1,0,1,2"))
# subcommand -> (positional modes, options always given, options given or
# not); a None strategy is a bare flag.  Required options are always given,
# and so are those whose defaults would make a run large.
_FUZZ = {
    "search": ((), {"--Q": _Q},
               {"--psi": _PSI, "--max-witnesses": _pick(("1", "4"), ("0", "-1")),
                "--no-pruning": None}),
    "dirichlet": ((), {"--t": _T}, {}),
    "obstruction": ((), {"--psi": _PSI}, {}),
    "series": (("classify", "verdict", "dimension", "omega", "equivalence"),
               {"--horizon": _pick(("64", "4096"), ("0", "-1", "10000000000000"))},
               {"--psi": _PSI, "--f": _F, "--tau": _REAL, "--alpha": _REAL, "--beta": _REAL,
                "--k": _REAL}),
    "dimension": ((), {"--tau": _REAL}, {}),
    "measure": (("delta-t", "e-t", "ubiquity", "dichotomy"),
                {"--samples": _SAMPLES, "--seed": _SEED, "--psi": _PSI, "--t": _T,
                 "--N-schedule": _N_SCHEDULE, "--Q": _Q},
                {"--omega": _OMEGA, "--t-schedule": _T_SCHEDULE, "--k": _REAL,
                 "--ball-center": _pick(("0,0", "0.125,0.125,0.125"), ("nan,0", "0.7,0", "")),
                 "--ball-radius": _REAL}),
    "boxdim": ((), {"--tau": _REAL, "--levels": _LEVELS}, {"--band-ratio": _REAL}),
    "manifold": (("eta", "certify", "gamma-dichotomy"),
                 {"--samples": _SAMPLES, "--seed": _SEED, "--psi": _PSI},
                 {"--N-schedule": _N_SCHEDULE, "--Q": _Q}),
}


@st.composite
def _argv(draw, name, outs):
    modes, always, sometimes = _FUZZ[name]
    m = draw(_pick((1, 2, 3), (0,)))
    n = draw(_pick((m, 3) if name == "manifold" else (1, 2, 3), (0,)))
    argv = ["--threads", draw(st.sampled_from(("1", "2"))), name]
    if modes:
        argv.append(draw(st.sampled_from(modes)))
    argv += ["--m", str(m), "--n", str(n),
             "--format", draw(_pick(("json", "csv", "both"), ("xml",)))]
    if name in ("search", "dirichlet", "obstruction"):
        size = max(m * n + draw(_pick((0, 0), (-1, 1))), 0)  # now and then one off
        argv.append("--X=" + ",".join(draw(st.lists(_ENTRY, min_size=size, max_size=size))))
    for flag, values in always.items():
        argv += [flag, draw(values)]
    for flag, values in sometimes.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(outs))]
    return argv


class TestFuzz:
    @pytest.fixture(scope="class")
    def outs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        (root / "file").write_text("", encoding="utf-8")
        return [str(root / "out"), str(root / "file")]

    # fixed examples keep the suite reproducible; the strategies reach every
    # subcommand, negative seeds and an --out that is a regular file
    @pytest.mark.parametrize("name", sorted(_FUZZ))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_code_is_0_2_or_3(self, name, outs, data):
        argv = data.draw(_argv(name, outs))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()


class TestEmitPlotData:
    def _reports(self):
        return [
            ExperimentReport("tail-dichotomy", {"N": N}, 1, 100, h,
                             parameter="N", parameter_value=float(N))
            for N, h in ((2, 90), (4, 70), (8, 40))
        ]

    def test_tail_reports_schema(self, tmp_path):
        out_csv = tmp_path / "tails.csv"
        out_script = tmp_path / "plot.py"
        emit_plot_data(self._reports(), out_csv, out_script)
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["parameter_value"] for r in rows] == ["2.0", "4.0", "8.0"]
        assert float(rows[0]["estimate"]) == 0.9
        text = out_script.read_text()
        assert "parameter_value" in text and "estimate" in text

    def test_boxdim_schema(self, tmp_path):
        rep = boxdim_estimate(2, 1, 2.0, coupled_schedule(2, 1, 2.0, range(4, 8)))
        out_csv = tmp_path / "boxdim.csv"
        emit_plot_data([rep], out_csv, tmp_path / "plot.py")
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"log2_inv_delta", "log2_N", "Q"}
        assert len(rows) == 4

    def test_empty_and_mixed_rejected(self, tmp_path):
        with pytest.raises(PreconditionError):
            emit_plot_data([], tmp_path / "x.csv", tmp_path / "x.py")
        mixed = self._reports()
        mixed.append(ExperimentReport("delta-t", {}, 1, 10, 5))
        with pytest.raises(PreconditionError):
            emit_plot_data(mixed, tmp_path / "x.csv", tmp_path / "x.py")
