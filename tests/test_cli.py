"""Tests for the experiment-runner CLI: config handling, artifacts, exit codes."""

import json
import math
import warnings

import numpy as np
import pytest

from ergodiclab.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigValidationError,
    ExperimentConfig,
    cmd_cesaro,
    cmd_matrix,
    cmd_simulate,
    cmd_verify,
    main,
)
from ergodiclab.semigroups import StructuredOperator


def write_config(tmp_path, **overrides):
    cfg = ExperimentConfig(out_dir=str(tmp_path / "out"))
    data = cfg.to_dict()
    if "N" in overrides and "r_grid" not in overrides:
        # keep the config invariant r_max <= N satisfied for tiny dimensions
        data["r_grid"] = {"start": 0.25, "factor": 2.0, "count": 3}
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# --- argv ---

@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "COMMAND"),
        (["simulat"], "'simulat'"),
        (["--dim", "8", "verify"], "'--dim'"),
        (["verify", "--conf", "c.json"], "'--conf'"),  # no abbreviations
        (["verify", "extra"], "'extra'"),
        (["verify", "--out"], "--out"),
        (["verify", "--out", "--dim", "8"], "--out"),
        (["verify", "--config", "--seed=3"], "--config"),
        (["verify", "--dim", "8.0"], "--dim"),
        (["verify", "--seed=x"], "--seed"),
        (["cesaro", "--subject", "X"], "--subject"),
    ],
    ids=["none", "unknown_command", "option_first", "abbreviation", "positional", "missing_value",
         "option_as_value", "option_with_value_as_value", "dim_not_integer", "seed_not_integer", "subject_choice"],
)
def test_argv_errors_exit_2_naming_the_argument(capsys, argv, named):
    assert main(argv) == EXIT_VALIDATION
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: ergodiclab COMMAND [--config P]")
    assert error.startswith("argument error: ") and named in error


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["cesaro", "-h"], ["verify", "--dim", "8", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: ergodiclab COMMAND")
    assert all(command in out for command in ("simulate", "cesaro", "verify", "matrix"))


def test_option_forms_and_last_repeat_wins(tmp_path):
    out = tmp_path / "out"
    argv = ["matrix", "--dim=4", f"--out={tmp_path / 'first'}", "--dim", "3", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads((out / "metadata.json").read_text())["config"]["N"] == 3
    assert not (tmp_path / "first").exists()


# --- config schema ---

def test_config_round_trip():
    cfg = ExperimentConfig(subject="T", N=128, seed=7, r_grid=(0.5, 1.5, 8))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_round_trip_through_json():
    cfg = ExperimentConfig(subject="S", N=32, s_matrix=("identity",))
    text = json.dumps(cfg.to_dict())
    assert ExperimentConfig.from_dict(json.loads(text)) == cfg


def test_config_validation_collects_problems():
    # cesaro reads the subject, N and the convergence tolerance
    cfg = ExperimentConfig(subject="X", N=0, convergence_tol=-1.0)
    problems = cfg.validate("cesaro")
    assert len(problems) >= 3


def test_config_rejects_vacuous_certificate(tmp_path, capsys):
    # r_max/(2N) > 0.5 makes T's truncation certificate useless; cesaro alone reads the r_grid
    path = write_config(tmp_path, subject="T", N=16, r_grid={"start": 1.0, "factor": 2.0, "count": 8})  # r_max = 128
    assert main(["cesaro", "--config", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "config error: r_grid" in err and "vacuous" in err
    assert not (tmp_path / "out").exists()


def test_vacuous_certificate_rule_binds_S():
    # it is S's only cap on r; the default r_grid reaches r = 512
    assert any("vacuous truncation certificate" in p for p in ExperimentConfig(subject="S", N=64).validate("cesaro"))


@pytest.mark.parametrize("mode", ["vector", "opnorm"])
def test_cesaro_on_M_runs_past_r_equal_N(tmp_path, mode):
    # M's means are exact, and ||C_M(r)|| starts to fall like N/r at r = N
    path = write_config(tmp_path, subject="M", N=64, mode=mode, r_grid={"start": 1.0, "factor": 2.0, "count": 12})
    assert main(["cesaro", "--config", str(path)]) == EXIT_OK
    rows = (tmp_path / "out" / "cesaro_curve.csv").read_text().splitlines()[1:]
    assert len(rows) == 12 and float(rows[-1].split(",")[1]) < 64 / 2048 + 1e-3


@pytest.mark.parametrize("subject", ["M", "T", "S"])
def test_overflowing_largest_r_is_refused_for_every_subject(subject):
    cfg = ExperimentConfig(subject=subject, r_grid=(1e10, 1e300, 3))
    assert any(p.startswith("r_grid: largest r") and "overflows" in p for p in cfg.validate("cesaro"))


@pytest.mark.parametrize("command", [["verify"], ["matrix"], ["simulate", "--subject", "T"]])
def test_commands_that_never_read_the_r_grid_run_below_it(tmp_path, command):
    # the default r_grid reaches r = 512, past r/(2N) = 0.5 at N = 64
    assert main([*command, "--dim", "64", "--out", str(tmp_path)]) == EXIT_OK


def test_config_rejects_out_of_range_vector_index():
    cfg = ExperimentConfig(N=4, vector=((7, 1.0),))
    assert any("vector index" in p for p in cfg.validate("simulate"))


def test_config_opnorm_only_for_M():
    cfg = ExperimentConfig(subject="T", mode="opnorm")
    assert any("opnorm" in p for p in cfg.validate("cesaro"))


# --- simulate ---

def test_simulate_M_first_coordinate_decays(tmp_path):
    cfg = ExperimentConfig(subject="M", N=8, r_grid=(0.5, 2.0, 4), out_dir=str(tmp_path))
    csv_path, meta_path = cmd_simulate(cfg)
    rows = csv_path.read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header[:5] == ["t", "norm_l1", "f_value", "max_coordinate", "max_index"]
    for line in rows[1:]:
        cells = line.split(",")
        t = float(cells[0])
        coord1 = float(cells[5])
        assert coord1 == pytest.approx(math.exp(-t), abs=1e-15)
    meta = json.loads(meta_path.read_text())
    assert meta["version"] and meta["config"]["subject"] == "M"


def test_simulate_T_f_value_tracks_deficit(tmp_path):
    n = 1024
    cfg = ExperimentConfig(subject="T", N=n, out_dir=str(tmp_path))
    csv_path, _ = cmd_simulate(cfg)
    for line in csv_path.read_text().strip().split("\n")[1:]:
        cells = line.split(",")
        t, fval = float(cells[0]), float(cells[2])
        assert fval == pytest.approx(math.exp(-t / n), abs=1e-12)


def test_simulate_S_identity_constant_rows(tmp_path):
    cfg = ExperimentConfig(
        subject="S", N=6, s_matrix=("identity",), out_dir=str(tmp_path),
        vector=((1, 1.0), (3, -2.0)), r_grid=(0.5, 2.0, 3),
    )
    csv_path, _ = cmd_simulate(cfg)
    rows = [line.split(",") for line in csv_path.read_text().strip().split("\n")[1:]]
    first = np.array([float(v) for v in rows[0][1:]])
    for row in rows[1:]:
        # constant up to the exponential-series tolerance
        assert np.allclose([float(v) for v in row[1:]], first, atol=1e-9)


# --- cesaro ---

def test_cesaro_opnorm_curve_floor(tmp_path):
    cfg = ExperimentConfig(
        subject="M", mode="opnorm", N=1024, r_grid=(1.0, 2.0, 10), out_dir=str(tmp_path)
    )
    csv_path, verdict_path, _ = cmd_cesaro(cfg)
    values = [
        float(line.split(",")[1]) for line in csv_path.read_text().strip().split("\n")[1:]
    ]
    assert all(v >= 1 - 1 / math.e - 1e-12 for v in values)
    verdict = json.loads(verdict_path.read_text())
    assert verdict["verdict"] == "diverges"


def test_cesaro_T_curve_f_values(tmp_path):
    n = 1024
    cfg = ExperimentConfig(subject="T", N=n, r_grid=(1.0, 2.0, 8), out_dir=str(tmp_path))
    csv_path, _, _ = cmd_cesaro(cfg)
    for line in csv_path.read_text().strip().split("\n")[1:]:
        cells = line.split(",")
        r, fval = float(cells[0]), float(cells[4])
        assert fval >= 1.0 - r / (2.0 * n)
        assert fval <= 1.0 + 1e-12


def test_cesaro_empty_grid_rejected(tmp_path):
    path = write_config(tmp_path, r_grid={"start": 1.0, "factor": 2.0, "count": 0})
    assert main(["cesaro", "--config", str(path)]) == EXIT_VALIDATION


def test_cesaro_tiny_grid_inconclusive(tmp_path):
    cfg = ExperimentConfig(subject="M", N=64, r_grid=(1.0, 2.0, 3), out_dir=str(tmp_path))
    _, verdict_path, _ = cmd_cesaro(cfg)
    verdict = json.loads(verdict_path.read_text())
    assert verdict["verdict"] == "inconclusive"
    assert "fewer than 4" in verdict["detail"]["reason"]


# --- matrix ---

def test_matrix_dense_3x3(tmp_path):
    cfg = ExperimentConfig(N=3, r_grid=(0.5, 2.0, 3), out_dir=str(tmp_path))
    paths = cmd_matrix(cfg)
    dense = json.loads((tmp_path / "matrix_B_dense.json").read_text())
    assert dense["entries"] == [
        [-1.0, 0.0, 0.0],
        [0.5, -0.5, 0.0],
        [1.0 / 6.0, 1.0 / 6.0, -1.0 / 3.0],
    ]
    assert dense["display_transpose_of_row_action"] is True
    triples = [
        line
        for line in (tmp_path / "matrix_B.txt").read_text().splitlines()
        if line and not line.startswith("%")
    ]
    assert len(triples) == 6  # N(N+1)/2


def test_matrix_single_entry(tmp_path):
    cfg = ExperimentConfig(N=1, r_grid=(0.25, 2.0, 3), out_dir=str(tmp_path))
    cmd_matrix(cfg)
    dense = json.loads((tmp_path / "matrix_B_dense.json").read_text())
    assert dense["entries"] == [[-1.0]]


def test_matrix_large_N_skips_dense_with_note(tmp_path):
    cfg = ExperimentConfig(N=100, r_grid=(0.5, 2.0, 7), out_dir=str(tmp_path))
    cmd_matrix(cfg)
    assert not (tmp_path / "matrix_B_dense.json").exists()
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert "dense JSON skipped" in meta["note"]
    triples = [
        line
        for line in (tmp_path / "matrix_B.txt").read_text().splitlines()
        if line and not line.startswith("%")
    ]
    assert len(triples) == 100 * 101 // 2


def test_matrix_large_N_never_forms_dense(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("dense() called")

    monkeypatch.setattr(StructuredOperator, "dense", refuse)
    cmd_matrix(ExperimentConfig(N=65, r_grid=(0.5, 2.0, 7), out_dir=str(tmp_path)))
    lines = (tmp_path / "matrix_B.txt").read_text().splitlines()
    assert len(lines) == 1 + 65 * 66 // 2


def test_matrix_caps_dimension(tmp_path):
    cfg = ExperimentConfig(N=20_000, r_grid=(0.5, 2.0, 7), out_dir=str(tmp_path))
    with pytest.raises(ConfigValidationError):
        cmd_matrix(cfg)


# --- verify ---

def test_verify_small_N_passes(tmp_path, capsys):
    cfg = ExperimentConfig(N=16, r_grid=(0.5, 2.0, 5), out_dir=str(tmp_path))
    code, (report_path,) = cmd_verify(cfg)
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) >= 30
    out = capsys.readouterr().out
    assert "ok  " in out


def test_verify_degenerate_N1(tmp_path):
    cfg = ExperimentConfig(N=1, r_grid=(0.25, 2.0, 3), out_dir=str(tmp_path))
    code, _ = cmd_verify(cfg)
    assert code == EXIT_OK


def test_verify_corruption_injection_fails(tmp_path):
    cfg = ExperimentConfig(N=16, r_grid=(0.5, 2.0, 5), inject_corruption=True, out_dir=str(tmp_path))
    code, (report_path,) = cmd_verify(cfg)
    assert code == EXIT_INVARIANT
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is False


def test_verify_deterministic_bytes(tmp_path):
    # identical config (including out_dir) and seed: byte-identical reports
    cfg = ExperimentConfig(N=16, seed=99, r_grid=(0.5, 2.0, 5), out_dir=str(tmp_path / "same"))
    code_a, (path_a,) = cmd_verify(cfg)
    first = path_a.read_bytes()
    code_b, (path_b,) = cmd_verify(cfg)
    assert code_a == code_b == EXIT_OK
    assert first == path_b.read_bytes()


# --- main entry point ---

def test_main_simulate_with_config_file(tmp_path):
    path = write_config(tmp_path, subject="M", N=4)
    assert main(["simulate", "--config", str(path)]) == EXIT_OK
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_main_overrides(tmp_path):
    path = write_config(tmp_path, subject="M", N=4)
    out2 = tmp_path / "elsewhere"
    assert main(["simulate", "--config", str(path), "--out", str(out2), "--dim", "6"]) == EXIT_OK
    meta = json.loads((out2 / "metadata.json").read_text())
    assert meta["config"]["N"] == 6


def test_main_validation_exit_code(tmp_path):
    path = write_config(tmp_path, N=-3)
    assert main(["verify", "--config", str(path)]) == EXIT_VALIDATION


def test_main_rejects_non_object_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["quadrature_tol", "convergence_tol"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_main_rejects_non_finite_tolerance(tmp_path, capsys, field, value):
    path = write_config(tmp_path, subject="M", N=4)
    data = json.loads(path.read_text())
    data["tolerances"][field] = float(value)
    path.write_text(json.dumps(data))
    # verify reads both tolerances
    assert main(["verify", "--config", str(path)]) == EXIT_VALIDATION
    assert f"tolerances.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _run_raw_config(tmp_path, text, command="simulate"):
    path = tmp_path / "config.json"
    path.write_text(text)
    return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def _tiny_start(subject, start):
    cfg = {"N": 65536, "vector": [[1, 1.0]], "r_grid": {"start": start, "factor": 2.0, "count": 40}}
    cfg.update({"subject": "M", "mode": "opnorm"} if subject == "opnorm" else {"subject": subject})
    return json.dumps(cfg)


@pytest.mark.parametrize(
    "text, field, command",
    [
        ('{"r_grid": {"start": 1}}', "r_grid", "simulate"),
        ('{"s_matrix": 5}', "s_matrix", "simulate"),
        ('{"N": "abc"}', "N", "simulate"),
        ('{"tolerances": [1e-3]}', "tolerances", "simulate"),
        # cesaro alone reads the r_grid, and its largest r overflows
        ('{"r_grid": {"start": 1, "factor": 1e308, "count": 3}}', "r_grid", "cesaro"),
        # beyond the size budget: refused before any N-vector or grid is allocated
        ('{"N": 10000000000000}', "N", "cesaro"),
        # an N no float holds: the checks that divide by N skip it
        ('{"N": 1' + "0" * 400 + '}', "N", "cesaro"),
        ('{"t_grid": {"start": 0, "stop": 1, "count": 1000000000000}}', "t_grid.count", "simulate"),
        ('{"r_grid": {"start": 1e-300, "factor": 1.000000000000001, "count": 1000000000000}}',
         "r_grid.count", "cesaro"),
        # the power-bound scan of subject S costs horizon dense products
        ('{"subject": "S", "N": 8, "horizon": 4097}', "horizon", "simulate"),
        # one index twice: the vector would keep the last value while validation summed both
        ('{"N": 8, "vector": [[1, 0.5], [1, 0.5]], "r_grid": {"start": 0.5, "factor": 2, "count": 3}}',
         "vector", "cesaro"),
        # N / start overflows, below N / DBL_MAX = 3.65e-304 at N = 65536
        (_tiny_start("T", 3.5e-304), "r_grid.start", "cesaro"),
        (_tiny_start("T", 1e-320), "r_grid.start", "cesaro"),
        (_tiny_start("opnorm", 3.5e-304), "r_grid.start", "cesaro"),
        (_tiny_start("opnorm", 1e-305), "r_grid.start", "cesaro"),
    ],
    ids=[
        "r_grid_missing_keys", "s_matrix_not_object", "N_not_integer", "tolerances_not_object",
        "r_grid_overflow", "N_over_budget", "N_beyond_float", "t_grid_count_over_budget", "r_grid_count_over_budget",
        "horizon_over_budget", "vector_index_twice",
        "T_start_3.5e-304", "T_start_subnormal", "opnorm_start_3.5e-304", "opnorm_start_1e-305",
    ],
)
def test_main_malformed_config_names_field(tmp_path, capsys, text, field, command):
    assert _run_raw_config(tmp_path, text, command) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"config error: {field}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, field",
    [
        (_tiny_start("T", 1e-320), "r_grid.start"),
        ('{"subject": "T", "N": 64, "mode": "opnorm", "r_grid": {"start": 0.5, "factor": 2.0, "count": 3}}',
         "opnorm mode"),
    ],
    ids=["r_grid_start_subnormal", "opnorm_mode_on_T"],
)
def test_cesaro_rules_bind_cesaro_alone(tmp_path, capsys, text, field):
    assert _run_raw_config(tmp_path, text, "cesaro") == EXIT_VALIDATION
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # simulate reads neither the r_grid nor the mode, so it runs and records them as given
    assert _run_raw_config(tmp_path, text, "simulate") == EXIT_OK
    assert (tmp_path / "out" / "trajectory.csv").exists()
    emitted = json.loads((tmp_path / "out" / "metadata.json").read_text())["config"]
    given = json.loads(text)
    assert emitted["r_grid"] == given["r_grid"] and emitted["mode"] == given.get("mode", "vector")


@pytest.mark.parametrize("subject", ["M", "T", "opnorm"])
def test_start_just_inside_the_overflow_bound_runs_finite(tmp_path, subject):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run_raw_config(tmp_path, _tiny_start(subject, 4e-304), "cesaro") == EXIT_OK
    lines = (tmp_path / "out" / "cesaro_curve.csv").read_text().splitlines()[1:]
    cells = [float(c) for line in lines for c in line.split(",") if c]
    assert len(lines) == 40 and all(math.isfinite(c) for c in cells)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"dimension": 64}', "dimension"),
        ('{"r_grid": {"start": 1, "factor": 2, "count": 3, "stop": 8}}', "r_grid.stop"),
        ('{"t_grid": {"start": 0, "stop": 1, "count": 3, "step": 0.5}}', "t_grid.step"),
        ('{"tolerances": {"quadrature_tol": 1e-9, "quad_tol": 1e-3}}', "tolerances.quad_tol"),
        ('{"s_matrix": {"kind": "timestep", "time": 2.0}}', "s_matrix.time"),
    ],
    ids=["top_level", "r_grid", "t_grid", "tolerances", "s_matrix"],
)
def test_main_unknown_config_key_rejected(tmp_path, capsys, text, key):
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    assert f"config error: {key} is not a known key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("s_matrix", [("identity",), ("timestep", 2.5), ("file", "W.txt")])
def test_every_emitted_key_round_trips(s_matrix):
    cfg = ExperimentConfig(
        subject="S", N=8, mode="vector", s_matrix=s_matrix, horizon=32,
        inject_corruption=True, quadrature_tol=1e-9, convergence_tol=1e-3,
    )
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_main_malformed_config_lists_every_problem(tmp_path, capsys):
    text = '{"N": "abc", "seed": [1], "vector": [1, 2], "t_grid": {"start": "x", "stop": 1, "count": 2}}'
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    err = capsys.readouterr().err
    for field in ("N", "seed", "vector", "t_grid.start"):
        assert f"config error: {field} must be" in err


@pytest.mark.parametrize(
    "text",
    ['{"vector": [[1, NaN]]}', '{"r_grid": {"start": NaN, "factor": 2, "count": 3}}', '{"N": 1e400}'],
)
def test_main_non_finite_config_values_rejected(tmp_path, text):
    assert _run_raw_config(tmp_path, text, "cesaro") == EXIT_VALIDATION


@pytest.mark.parametrize(
    "text, field",
    [
        # bool("false") is True: verify would inject the corruption and exit 1
        ('{"inject_corruption": "false"}', "inject_corruption must be a boolean"),
        ('{"N": 64.9}', "N must be an integer"),
        ('{"N": true}', "N must be an integer"),
        ('{"out_dir": null}', "out_dir must be a string"),
    ],
    ids=["bool_as_string", "fractional_integer", "bool_as_integer", "null_string"],
)
def test_main_rejects_values_of_another_json_type(tmp_path, capsys, text, field):
    assert _run_raw_config(tmp_path, text, "verify") == EXIT_VALIDATION
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_float_runs_as_its_integer(tmp_path):
    emitted = []
    for n in ("64", "64.0"):
        text = '{"N": %s, "r_grid": {"start": 0.5, "factor": 2, "count": 3}}' % n
        assert _run_raw_config(tmp_path, text, "cesaro") == EXIT_OK
        emitted.append((tmp_path / "out" / "metadata.json").read_bytes())
    assert emitted[0] == emitted[1]
    assert json.loads(emitted[1])["config"]["N"] == 64


@pytest.mark.parametrize("config, flags", [('{"seed": -1}', []), ("{}", ["--seed", "-1"])], ids=["config", "flag"])
def test_verify_rejects_negative_seed(tmp_path, capsys, config, flags):
    path = tmp_path / "config.json"
    path.write_text(config)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out"), "--dim", "8", *flags]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def _S_file_config(tmp_path, c=0.97, **overrides):
    mat = np.random.default_rng(5).uniform(0.1, 1.0, (8, 8))
    mat *= c / mat.sum(axis=0)
    lines = [f"{i + 1} {j + 1} {mat[i, j]:.17e}" for j in range(8) for i in range(8)]
    matrix_path = tmp_path / "W.txt"
    matrix_path.write_text("\n".join(lines) + "\n")
    data = {
        "subject": "S", "N": 8, "vector": [[1, 0.25], [5, 0.75]],
        "r_grid": {"start": 0.5, "factor": 2.0, "count": 4},
        "s_matrix": {"kind": "file", "path": str(matrix_path)},
        **overrides,
    }
    return json.dumps(data), float(mat.sum(axis=0).mean())


@pytest.mark.parametrize(
    "overrides",
    [
        {"t_grid": {"start": 0.0, "stop": 1000.0, "count": 5}},  # e^{-t} underflows past t = 745
        {"t_grid": {"start": 0.0, "stop": 20.0, "count": 5}, "tolerances": {"quadrature_tol": 1e-17}},
    ],
    ids=["t_1000", "tol_1e-17"],
)
def test_simulate_S_large_t_and_tiny_tol(tmp_path, overrides):
    text, c = _S_file_config(tmp_path, **overrides)
    assert _run_raw_config(tmp_path, text) == EXIT_OK
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
    for line in lines[1:]:
        t, fval = float(line.split(",")[0]), float(line.split(",")[2])
        want = math.exp(-t * (1.0 - c))
        assert abs(fval - want) <= 1e-10 + 1e-12 * want


def test_simulate_S_rejects_t_beyond_cap(tmp_path, capsys):
    text, _ = _S_file_config(tmp_path, t_grid={"start": 0.0, "stop": 1e6, "count": 2})
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    assert "t_grid.stop" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cesaro", "simulate"])
def test_S_series_tolerance_below_the_normal_range_names_the_vector(tmp_path, capsys, command):
    # eps * tol * r / (power_bound * ||x||_1) underflows, and the window's certificate would read 0
    text = _S_matrix_text_config(tmp_path, "% dim 2\n1 1 0.5\n1 2 1.5\n2 2 0.5\n", 2)
    data = json.loads(text) | {"vector": [[1, 1e300], [2, 1.0]], "r_grid": {"start": 0.1, "factor": 2.0, "count": 3}}
    assert _run_raw_config(tmp_path, json.dumps(data), command) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("config error: vector: the S series' target eps * quadrature_tol * r")
    assert not (tmp_path / "out").exists()
    data["vector"] = [[1, 1e270], [2, 1.0]]  # the target stays normal, and every certificate is positive
    assert _run_raw_config(tmp_path, json.dumps(data), command) == EXIT_OK
    if command == "cesaro":
        lines = (tmp_path / "out" / "cesaro_curve.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[2]) > 0.0 for line in lines)


def _S_matrix_text_config(tmp_path, triples, N):
    (tmp_path / "W.txt").write_text(triples)
    return json.dumps({
        "subject": "S", "N": N, "r_grid": {"start": 0.25, "factor": 2.0, "count": 2},
        "s_matrix": {"kind": "file", "path": str(tmp_path / "W.txt")},
    })


@pytest.mark.parametrize("triples", ["1 1 nan\n2 2 0.5\n", "1 1 1e300\n2 2 0.5\n", "1 1 abc\n"])
def test_simulate_S_rejects_unusable_matrix_file(tmp_path, capsys, triples):
    text = _S_matrix_text_config(tmp_path, triples, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    assert "config error: s_matrix.path" in capsys.readouterr().err


def test_simulate_S_rejects_matrix_without_certified_power_bound(tmp_path, capsys):
    # the Jordan block [[1, 1], [0, 1]] has ||J^n||_1 = n + 1, so no horizon certifies a bound
    text = _S_matrix_text_config(tmp_path, "% dim 2\n1 1 1\n1 2 1\n2 2 1\n", 2)
    text = json.dumps({**json.loads(text), "horizon": 1000})
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert ("config error: s_matrix.path: no power T^k with ||T^k||_1 <= 1 up to horizon 1000, "
            "so no power bound is certified") in err
    assert not (tmp_path / "out").exists()


def test_simulate_S_matrix_file_with_zero_last_column(tmp_path):
    # diag(0.5, 0.25, 0): the header states N = 3, the largest index is 2
    text = _S_matrix_text_config(tmp_path, "% sparse triples, column-action, dim 3\n1 1 0.5\n2 2 0.25\n", 3)
    assert _run_raw_config(tmp_path, text) == EXIT_OK
    rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0].endswith("coord_1,coord_2,coord_3")


@pytest.mark.parametrize(
    "triples, message",
    [
        ("% dim 1000000\n1 1 0.5\n", "matrix file has dim 1000000, expected 2"),
        ("% dim 3\n1 1 0.5\n", "matrix file has dim 3, expected 2"),
        ("1 1 0.5\n", "matrix file has dim 1, expected 2"),
    ],
)
def test_simulate_S_rejects_matrix_file_of_other_dim(tmp_path, capsys, triples, message):
    text = _S_matrix_text_config(tmp_path, triples, 2)
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    assert f"config error: s_matrix.path: {message}" in capsys.readouterr().err


def test_simulate_S_rejects_a_repeated_entry(tmp_path, capsys):
    # it ran with the last value and exited 0
    text = _S_matrix_text_config(tmp_path, "1 1 0.5\n1 1 0.25\n", 1)
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    assert "config error: s_matrix.path: triple (1, 1) is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_S_rejects_index_outside_header_dim(tmp_path, capsys):
    text = _S_matrix_text_config(tmp_path, "% dim 2\n1 1 0.5\n3 3 0.5\n", 2)
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    assert "config error: s_matrix.path: triple index (3, 3) outside 1..2" in capsys.readouterr().err


def test_cesaro_S_curve_certificate_within_tol(tmp_path):
    text, c = _S_file_config(tmp_path, tolerances={"quadrature_tol": 1e-9})
    assert _run_raw_config(tmp_path, text, "cesaro") == EXIT_OK
    a = 1.0 - c
    for line in (tmp_path / "out" / "cesaro_curve.csv").read_text().strip().split("\n")[1:]:
        r, _, cert, _, fval = (float(cell) for cell in line.split(","))
        assert 0.0 <= cert <= 1e-9
        assert abs(fval - -math.expm1(-r * a) / (r * a)) <= cert + 1e-14


def test_main_io_error_exit_code(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 3


def test_main_matrix_subcommand(tmp_path):
    path = write_config(tmp_path, N=3)
    assert main(["matrix", "--config", str(path), "--out", str(tmp_path / "m")]) == EXIT_OK
    assert (tmp_path / "m" / "matrix_B.txt").exists()


def test_metadata_round_trips_to_equal_config(tmp_path):
    cfg = ExperimentConfig(subject="T", N=32, seed=5, r_grid=(0.5, 2.0, 6), out_dir=str(tmp_path))
    cmd_simulate(cfg)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert ExperimentConfig.from_dict(meta["config"]) == cfg


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_simulate(ExperimentConfig(subject="T", N=64, r_grid=(0.5, 2.0, 7), out_dir=str(a)))
    cmd_simulate(ExperimentConfig(subject="T", N=64, r_grid=(0.5, 2.0, 7), out_dir=str(b)))
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_simulate_S_from_triple_file(tmp_path):
    from ergodiclab.semigroups import matrix_T, to_sparse_triples

    matrix_path = tmp_path / "user_matrix.txt"
    with matrix_path.open("w") as fh:
        to_sparse_triples(matrix_T(1.0, 8), fh)
    cfg = ExperimentConfig(
        subject="S", N=8, s_matrix=("file", str(matrix_path)),
        r_grid=(0.5, 2.0, 3), out_dir=str(tmp_path / "out"),
    )
    csv_path, _ = cmd_simulate(cfg)
    rows = csv_path.read_text().strip().split("\n")
    assert len(rows) == 12  # header + 11 grid points


def test_verify_runtime_budget(tmp_path):
    # the three reference truncations must finish well under a minute combined
    import time

    start = time.monotonic()
    for n in (16, 256, 4096):
        code, _ = cmd_verify(
            ExperimentConfig(N=n, r_grid=(0.5, 2.0, 5), out_dir=str(tmp_path / str(n)))
        )
        assert code == EXIT_OK
    assert time.monotonic() - start < 60.0
