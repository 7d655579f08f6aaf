import csv
import json
import math
import os

import pytest

from smallforms.boxdim import boxdim_estimate, coupled_schedule
from smallforms.cli import (
    RunConfig,
    config_from_args,
    emit_plot_data,
    main,
    parse_f,
    parse_omega,
    parse_psi,
    run,
)
from smallforms.errors import PreconditionError
from smallforms.measure import ExperimentReport


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


class TestRunConfig:
    def test_round_trip(self):
        cfg = config_from_args(
            ["measure", "dichotomy", "--m", "3", "--n", "1", "--psi", "pow:1,2.5",
             "--N-schedule", "2,4,8", "--Q", "64", "--samples", "500", "--seed", "9"]
        )
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

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
    ], ids=["e-t-samples-0", "e-t-samples-negative", "dichotomy-samples-0",
            "gamma-samples-0", "dichotomy-no-Q", "gamma-no-Q", "delta-t-no-psi",
            "dichotomy-no-psi", "threads-env-not-int", "search-X-nan",
            "search-X-nan-no-pruning", "boxdim-tau-nan", "boxdim-tau-minus-1",
            "boxdim-tau-inf", "boxdim-band-ratio-nan", "e-t-omega-scale-nan",
            "e-t-omega-exponent-nan", "ubiquity-k-nan", "ubiquity-k-inf", "delta-t-k-nan",
            "e-t-omega-scale-inf", "ubiquity-ball-radius-nan", "ubiquity-ball-center-nan",
            "psi-tau-inf", "psi-kappa-nan", "psi-c-inf", "psi-power-log-increasing",
            "search-Q-0", "dirichlet-t-0", "certify-Q-0", "dimension-tau-inf",
            "dimension-tau-nan", "equivalence-k-nan", "equivalence-alpha-nan"])
    def test_bad_input_exits_2(self, env, argv, monkeypatch, capsys):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

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

    def test_main_handles_bad_argv(self):
        assert main(["no-such-command"]) == 2


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
