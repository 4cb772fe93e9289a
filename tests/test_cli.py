import csv
import json
import warnings

import pytest

from mmcsetup import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_solve_single_method(capsys):
    code, d = run_json(
        capsys, "solve", "--lambda", "1", "--mu", "1", "--alpha", "1", "--c", "2"
    )
    assert code == 0
    assert d["method"] == "gf"
    assert d["report"]["e_jobs"] == pytest.approx(2.0913719988157773, abs=1e-9)
    assert d["solution"]["source"] == "gf"
    assert d["params"]["c"] == 2


def test_solve_confluent_point_uses_gf(capsys):
    # alpha = mu (1 - rho): the closed form solves the point itself
    point = ("--lambda", "1", "--mu", "1", "--alpha", "0.5", "--c", "2")
    code, d = run_json(capsys, "solve", *point)
    assert code == 0
    assert d["solution"]["source"] == "gf"
    assert "fallback" not in d["solution"]["info"]
    code, q = run_json(capsys, "solve", *point, "--method", "qbd")
    assert code == 0
    assert d["report"]["e_jobs"] == pytest.approx(q["report"]["e_jobs"], rel=1e-12)


def test_solve_all_methods_agree(capsys):
    code, d = run_json(
        capsys,
        "solve", "--lambda", "1", "--mu", "1", "--alpha", "1", "--c", "2",
        "--method", "all",
    )
    assert code == 0
    assert d["methods"] == ["gf", "qbd", "ctmc"]
    assert d["method_max_gap"] < 1e-9
    vals = list(d["e_jobs_by_method"].values())
    assert max(vals) - min(vals) < 1e-9


def test_solve_all_methods_reports_each_info(capsys):
    point = ("solve", "--rho", "0.5", "--alpha", "0.7", "--c", "10")
    code, d = run_json(capsys, *point, "--method", "all")
    assert code == 0
    info = d["info_by_method"]
    assert list(info) == ["gf", "qbd", "ctmc"]
    assert info["gf"] == d["solution"]["info"]
    assert {"precision_digits", "job_flow_gap", "seam_cut_gap"} <= info["gf"].keys()
    assert {"method", "spectral_radius", "boundary_certificate"} <= info["qbd"].keys()
    assert {"j_max", "tail_mass", "balance_residual"} <= info["ctmc"].keys()
    for m in ("gf", "qbd"):
        code, single = run_json(capsys, *point, "--method", m)
        assert "info_by_method" not in single
        assert single["solution"]["info"] == info[m]


def test_solve_ctmc_prints_the_explicit_tail(capsys):
    # the oracle's tail is its truncated levels c..j_max, summarised by count
    code, d = run_json(
        capsys, "solve", "--rho", "0.5", "--alpha", "0.7", "--c", "3", "--method", "ctmc"
    )
    assert code == 0
    sol = d["solution"]
    assert sol["source"] == "oracle"
    assert sol["tail"] == {"type": "explicit", "n_levels": sol["info"]["j_max"] - 3 + 1}


def test_solve_rho_form(capsys):
    code, d = run_json(
        capsys, "solve", "--rho", "0.5", "--mu", "2", "--alpha", "0.7", "--c", "3"
    )
    assert code == 0
    assert d["params"]["lambda"] == pytest.approx(3.0)


def test_solve_out_prefix(capsys, tmp_path):
    prefix = tmp_path / "run1"
    code, out = run(
        capsys,
        "solve", "--lambda", "1", "--mu", "1", "--alpha", "1", "--c", "2",
        "--out", str(prefix),
    )
    assert code == 0
    rep = json.loads((tmp_path / "run1.report.json").read_text())
    sol = json.loads((tmp_path / "run1.solution.json").read_text())
    assert rep["report"]["e_jobs"] == pytest.approx(2.0913719988157773, abs=1e-9)
    assert sol["source"] == "gf"


def test_solve_out_writes_what_stdout_prints(capsys, tmp_path):
    point = ("solve", "--rho", "0.5", "--alpha", "0.7", "--c", "3", "--method", "all")
    code, printed = run_json(capsys, *point)
    assert code == 0
    prefix = tmp_path / "run2"
    code, paths = run_json(capsys, *point, "--out", str(prefix))
    assert code == 0
    assert paths == {"report": f"{prefix}.report.json", "solution": f"{prefix}.solution.json"}
    solution = printed.pop("solution")
    assert (tmp_path / "run2.report.json").read_text() == json.dumps(printed, indent=2) + "\n"
    assert (tmp_path / "run2.solution.json").read_text() == json.dumps(solution, indent=2) + "\n"


def test_unstable_is_a_clean_error(capsys):
    code, d = run_json(
        capsys, "solve", "--lambda", "3", "--mu", "1", "--alpha", "1", "--c", "2"
    )
    assert code == 2
    assert d["error"] == "Unstable"


def test_light_load_gf_exits_cleanly(capsys):
    # at light load one gf row spans more than float64's exponent range;
    # exact zeros there once raised a bare OverflowError (exit 1)
    code, d = run_json(capsys, "solve", "--rho", "0.001", "--alpha", "1e5", "--c", "400")
    assert code == 0
    assert d["report"]["e_active"] == pytest.approx(0.4, rel=1e-12)
    # a point gf cannot certify is one JSON error line and exit 2
    code, out = run(capsys, "solve", "--rho", "0.002", "--alpha", "1", "--c", "400")
    assert code == 2
    (line,) = out.splitlines()
    assert json.loads(line)["error"] == "InternalInconsistency"


def test_lambda_rho_mutually_exclusive(capsys):
    code, d = run_json(
        capsys,
        "solve", "--lambda", "1", "--rho", "0.5", "--mu", "1",
        "--alpha", "1", "--c", "2",
    )
    assert code == 2
    assert d["error"] == "InvalidConfig"


@pytest.mark.parametrize(
    "text",
    [
        "lambda = 1\nrho = 0.5\nalpha = 1\nc = 2\n",  # both, whatever the flags say
        "rho = 0.5\nalpha = 1\nc = 2.5\n",  # a flag c does not mend the file's
    ],
)
def test_bad_config_file_fails_under_overriding_flags(capsys, tmp_path, text):
    cfg = tmp_path / "bad.conf"
    cfg.write_text(text)
    code, d = run_json(capsys, "solve", "--config", str(cfg), "--lambda", "1", "--c", "2")
    assert code == 2
    assert d["error"] == "InvalidConfig"


def test_flag_lambda_replaces_config_rho(capsys, tmp_path):
    cfg = tmp_path / "model.conf"
    cfg.write_text("rho = 0.5\nalpha = 1.0\nc = 4\n")
    code, d = run_json(capsys, "solve", "--config", str(cfg), "--lambda", "1")
    assert code == 0
    assert d["params"]["lambda"] == 1.0
    assert d["params"]["rho"] == 0.25


@pytest.mark.parametrize("key, value", [("ci", "nan"), ("cs", "inf"), ("ca", "-1"), ("csw", "-inf")])
def test_bad_cost_weight_flag_is_rejected(capsys, key, value):
    # a nan weight once printed "c_idle": NaN, which is not JSON, with exit 0
    for cmd in (("solve", "--alpha", "1"), ("crossover",)):
        code, out = run(capsys, *cmd, "--rho", "0.5", "--c", "4", f"--{key}={value}")
        assert code == 2
        (line,) = out.splitlines()
        d = json.loads(line)
        assert d["error"] == "InvalidConfig"
        assert d["message"].startswith(f"cost {key} must be finite and >= 0")


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "model.toml"
    cfg.write_text("rho = 0.5\nmu = 1.0\nalpha = 1.0\nc = 4\nci = 0.6\n")
    code, d = run_json(capsys, "solve", "--config", str(cfg), "--c", "2")
    assert code == 0
    assert d["params"]["c"] == 2  # flag wins
    assert d["params"]["lambda"] == pytest.approx(1.0)
    assert d["costs"]["c_idle"] == pytest.approx(0.6)


def test_sweep_stdout_and_file(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    args = (
        "sweep", "--var", "alpha", "--grid", "0.2,0.6,2.0",
        "--lambda", "1", "--mu", "1", "--c", "2", "--method", "gf,qbd",
    )
    code, out = run(capsys, *args, "--out", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["csv"] == str(path)
    assert summary["points"] == 3 and summary["errors"] == 0
    assert path.read_text().startswith("# sweep var=alpha")
    code2, text = run(capsys, *args)
    assert code2 == 0
    lines = text.strip().splitlines()
    assert lines[3].startswith("index,var,value")
    assert len(lines) == 3 + 1 + 3


def test_sweep_out_writes_what_stdout_prints(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    args = ("sweep", "--rho", "0.5", "--c", "3", "--var", "ratio", "--grid", "0.5,2",
            "--alpha", "0.7", "--method", "all")
    code, text = run(capsys, *args)
    assert code == 0
    code, _ = run(capsys, *args, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == text.encode()


def test_sweep_light_load_failure_marks_its_row_only(capsys):
    code, text = run(
        capsys, "sweep", "--rho", "0.001", "--c", "400", "--var", "alpha",
        "--grid", "4.4,1e5",
    )
    assert code == 0
    rows = list(csv.DictReader(text.splitlines()[3:]))
    assert [row["value"] for row in rows] == ["4.4", "100000.0"]
    assert rows[0]["error"] == "InternalInconsistency"
    assert rows[1]["error"] == ""
    assert float(rows[1]["e_active"]) == pytest.approx(0.4, rel=1e-12)


def test_sweep_grid_spec_forms(capsys):
    code, out = run(
        capsys,
        "sweep", "--var", "alpha", "--grid", "log:0.1:10:5",
        "--lambda", "1", "--mu", "1", "--c", "2",
    )
    assert code == 0
    vals = [float(ln.split(",")[2]) for ln in out.strip().splitlines()[4:]]
    assert len(vals) == 5
    assert vals[0] == pytest.approx(0.1) and vals[-1] == pytest.approx(10.0)
    code, out = run(
        capsys,
        "sweep", "--var", "alpha", "--grid", "lin:0.5:1.5,bad",
        "--lambda", "1", "--mu", "1", "--c", "2",
    )
    assert code == 2
    for var, grid in [
        ("alpha", "log:a:1:5"),
        ("alpha", "log:0.1:1:x"),
        ("c", "nan"),
        ("c", "2,inf"),
    ]:
        code, d = run_json(
            capsys, "sweep", "--var", var, "--grid", grid,
            "--rho", "0.5", "--alpha", "1", "--c", "2",
        )
        assert code == 2 and d["error"] == "InvalidConfig", grid


def test_sweep_lin_grid(capsys):
    code, out = run(
        capsys,
        "sweep", "--var", "alpha", "--grid", "lin:0.5:1.5:3",
        "--lambda", "1", "--mu", "1", "--c", "2",
    )
    assert code == 0
    vals = [float(ln.split(",")[2]) for ln in out.strip().splitlines()[4:]]
    assert vals == [0.5, 1.0, 1.5]


@pytest.mark.parametrize("grid", ["log:0:1:5", "log:-1:1:3"])
def test_sweep_log_grid_needs_positive_bounds(capsys, grid):
    # rejected before log10, so numpy never warns about a bound <= 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, d = run_json(
            capsys, "sweep", "--var", "alpha", "--grid", grid,
            "--lambda", "1", "--mu", "1", "--c", "2",
        )
    assert code == 2 and d["error"] == "InvalidConfig"
    assert d["message"].startswith("log grid bounds must be > 0")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flags, tag",
    [
        (("--var", "rho", "--lambda", "10", "--alpha", "1"), "Unstable"),
        (("--var", "alpha", "--lambda", "1", "--alpha", "0"), "InvalidParameter"),
    ],
)
def test_sweep_refuses_an_invalid_flag_it_would_override(capsys, flags, tag):
    # the flags build the fixed point before the sweep replaces the swept
    # value, and that point must itself be a valid queue
    code, d = run_json(capsys, "sweep", *flags, "--c", "2", "--grid", "0.1,0.5")
    assert code == 2 and d["error"] == tag


def test_bad_method_rejected(capsys):
    # solve restricts --method via argparse choices
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["solve", "--lambda", "1", "--mu", "1", "--alpha", "1", "--c", "2",
             "--method", "spectral"]
        )
    assert exc.value.code == 2
    capsys.readouterr()
    # sweep validates its comma list itself and reports as JSON
    code, d = run_json(
        capsys,
        "sweep", "--var", "alpha", "--grid", "0.2,0.6",
        "--lambda", "1", "--mu", "1", "--c", "2", "--method", "gf,spectral",
    )
    assert code == 2
    assert d["error"] == "InvalidConfig"


def test_crossover_command(capsys):
    code, d = run_json(
        capsys,
        "crossover", "--rho", "0.5", "--mu", "1", "--c", "20", "--ci", "0.6",
    )
    assert code == 0
    assert 0.05 < d["alpha_cross"] < 0.5
    assert abs(d["gap_at_root"]) < 1e-4 * d["cost_onidle"]


def test_crossover_reversed_bracket_is_an_error(capsys):
    code, d = run_json(
        capsys,
        "crossover", "--lambda", "5", "--c", "10", "--lo", "1000", "--hi", "0.0001",
    )
    assert code == 2
    assert d["error"] == "InvalidConfig"
    assert "0 < lo < hi" in d["message"]


def test_crossover_nan_rel_tol_is_an_error(capsys):
    # it once exited 0 with the bracket midpoint and iterations 0
    code, out = run(capsys, "crossover", "--rho", "0.5", "--c", "4", "--rel-tol", "nan")
    assert code == 2
    (line,) = out.splitlines()
    d = json.loads(line)
    assert d["error"] == "InvalidConfig"
    assert "rel_tol" in d["message"]


def test_simulate_command(capsys):
    code, d = run_json(
        capsys,
        "simulate", "--lambda", "1", "--mu", "1", "--alpha", "1", "--c", "2",
        "--events", "50000", "--seed", "11",
    )
    assert code == 0
    assert d["n_events"] == 50000
    assert d["seed"] == 11
    assert abs(d["e_jobs"] - 2.0914) < 6 * d["hw_jobs"]


def test_simulate_refuses_a_negative_seed(capsys):
    code, out = run(
        capsys,
        "simulate", "--rho", "0.5", "--c", "4", "--alpha", "1",
        "--events", "20000", "--seed", "-1",
    )
    assert code == 2 and len(out.splitlines()) == 1
    assert json.loads(out)["error"] == "InvalidConfig"


def test_simulate_trace_needs_limit(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, d = run_json(
        capsys,
        "simulate", "--lambda", "1", "--mu", "1", "--alpha", "1", "--c", "2",
        "--events", "50000", "--trace", str(path),
    )
    assert code == 2
    assert d["error"] == "InvalidConfig"
    assert not path.exists()


def test_validate_command_passes(capsys):
    code, d = run_json(
        capsys,
        "validate", "--lambda", "1", "--mu", "1", "--alpha", "1", "--c", "2",
        "--events", "100000", "--seed", "5",
    )
    assert code == 0
    assert d["passed"] is True
    assert all(r["ok"] for r in d["metrics"])


def test_missing_required_flag(capsys):
    code, d = run_json(capsys, "solve", "--lambda", "1", "--mu", "1", "--c", "2")
    assert code == 2
    assert d["error"] == "InvalidConfig"
