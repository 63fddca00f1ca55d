"""Tests for the experiment-runner CLI: config handling, artifacts, exit codes."""

import json
import math

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
    cfg = ExperimentConfig(subject="X", N=0, quadrature_tol=-1.0)
    problems = cfg.validate()
    assert len(problems) >= 3


def test_config_rejects_vacuous_certificate():
    # r_max/(2N) > 0.5 makes every truncation certificate useless
    cfg = ExperimentConfig(N=16, r_grid=(1.0, 2.0, 8))  # r_max = 128 > 16
    problems = cfg.validate()
    assert any("vacuous" in p for p in problems)


def test_config_rejects_out_of_range_vector_index():
    cfg = ExperimentConfig(N=4, vector=((7, 1.0),))
    assert any("vector index" in p for p in cfg.validate())


def test_config_opnorm_only_for_M():
    cfg = ExperimentConfig(subject="T", mode="opnorm")
    assert any("opnorm" in p for p in cfg.validate())


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
    assert main(["simulate", "--config", str(path)]) == EXIT_VALIDATION
    assert f"tolerances.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _run_raw_config(tmp_path, text, command="simulate"):
    path = tmp_path / "config.json"
    path.write_text(text)
    return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"r_grid": {"start": 1}}', "r_grid"),
        ('{"s_matrix": 5}', "s_matrix"),
        ('{"N": "abc"}', "N"),
        ('{"tolerances": [1e-3]}', "tolerances"),
        ('{"r_grid": {"start": 1, "factor": 1e308, "count": 3}}', "r_grid"),
    ],
    ids=["r_grid_missing_keys", "s_matrix_not_object", "N_not_integer", "tolerances_not_object", "r_grid_overflow"],
)
def test_main_malformed_config_names_field(tmp_path, capsys, text, field):
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"config error: {field}" in err
    assert not (tmp_path / "out").exists()


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
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("triples", ["1 1 nan\n2 2 0.5\n", "1 1 1e300\n2 2 0.5\n", "1 1 abc\n"])
def test_simulate_S_rejects_unusable_matrix_file(tmp_path, capsys, triples):
    (tmp_path / "W.txt").write_text(triples)
    text = json.dumps({
        "subject": "S", "N": 2, "r_grid": {"start": 0.25, "factor": 2.0, "count": 2},
        "s_matrix": {"kind": "file", "path": str(tmp_path / "W.txt")},
    })
    assert _run_raw_config(tmp_path, text) == EXIT_VALIDATION
    assert "config error: s_matrix.path" in capsys.readouterr().err


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
    matrix_path.write_text(to_sparse_triples(matrix_T(1.0, 8)))
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
