"""Every subcommand runs its default config, M/T at the N cap and S at N = 65536, in a fresh interpreter with numpy's
warnings as errors.

A numpy overflow or invalid value raises a RuntimeWarning; under
``-W error::RuntimeWarning`` it becomes a traceback on stderr, so a run
passes only with exit 0 and nothing written to stderr.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

SMALL_R = {"start": 0.5, "factor": 2.0, "count": 6}
# at the M/T N cap: a signed sparse x, four entries per dyadic block, r up to N and t up to 1e6
CAP = 2**26
CAP_X = [[k + j, (-1.0) ** j / (k + j)] for k in (2**e for e in range(26)) for j in range(min(k, 4))]
CAP_RUN = {"N": CAP, "vector": CAP_X, "r_grid": {"start": 1.0, "factor": 2.0, "count": 27},
           "t_grid": {"start": 0.0, "stop": 1e6, "count": 101}}
RUNS = {
    "simulate_M": ("simulate", ["--subject", "M"], None),
    "simulate_T": ("simulate", ["--subject", "T"], None),
    "simulate_S": ("simulate", [], {"subject": "S", "N": 64, "r_grid": SMALL_R}),
    "cesaro_M": ("cesaro", ["--subject", "M"], None),
    "cesaro_T": ("cesaro", ["--subject", "T"], None),
    "cesaro_opnorm": ("cesaro", [], {"subject": "M", "mode": "opnorm"}),
    "cesaro_S": ("cesaro", [], {"subject": "S", "N": 64, "r_grid": SMALL_R}),
    "verify": ("verify", [], None),
    "matrix": ("matrix", [], None),
    # the default r_grid is too long for N = 64, and none of these reads it
    "verify_dim64": ("verify", ["--dim", "64"], None),
    "matrix_dim64": ("matrix", ["--dim", "64"], None),
    "simulate_T_dim64": ("simulate", ["--subject", "T", "--dim", "64"], None),
    "cesaro_M_cap": ("cesaro", [], {**CAP_RUN, "subject": "M"}),
    "cesaro_T_cap": ("cesaro", [], {**CAP_RUN, "subject": "T"}),
    "simulate_M_cap": ("simulate", [], {**CAP_RUN, "subject": "M"}),
    "simulate_T_cap": ("simulate", [], {**CAP_RUN, "subject": "T"}),
}


@pytest.mark.parametrize("name", RUNS)
def test_default_run_is_warning_free(tmp_path, name):
    command, flags, config = RUNS[name]
    argv = [command, "--out", str(tmp_path / "out"), *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    done = run_warning_free(argv)
    assert (done.returncode, done.stderr) == (0, "")


def run_warning_free(argv, module=("-m", "ergodiclab.cli")):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *module, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_cesaro_and_verify_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, about 10 ms of a CLI call that reaches it
    script = "\n".join([
        "import sys",
        "from ergodiclab.cli import main",
        f"codes = [main(['cesaro', '--subject', 'T', '--out', {str(tmp_path / 'c')!r}]),",
        f"         main(['verify', '--dim', '64', '--out', {str(tmp_path / 'v')!r}])]",
        "print(codes, 'numpy.ma' in sys.modules)",
    ])
    done = run_warning_free([], module=("-c", script))
    assert (done.returncode, done.stderr, done.stdout.splitlines()[-1]) == (0, "", "[0, 0] False")


def test_cesaro_and_simulate_load_neither_verification_nor_numpy_random(tmp_path):
    # verify alone imports verification, and with it the numpy.random that its checks draw from
    runs = [[command, "--subject", subject, "--out", str(tmp_path / (command + subject))]
            for command in ("cesaro", "simulate") for subject in ("M", "T")]
    script = "\n".join([
        "import sys",
        "from ergodiclab.cli import main",
        f"codes = [main(argv) for argv in {runs!r}]",
        "loaded = [name for name in ('ergodiclab.verification', 'numpy.random') if name in sys.modules]",
        f"codes.append(main(['verify', '--dim', '64', '--out', {str(tmp_path / 'v')!r}]))",
        "print(codes, loaded)",
    ])
    done = run_warning_free([], module=("-c", script))
    assert (done.returncode, done.stderr, done.stdout.splitlines()[-1]) == (0, "", "[0, 0, 0, 0, 0] []")


def test_overflowing_l1_norm_is_a_config_error(tmp_path):
    # each entry is finite; their l1 norm overflows, and summing it must not warn
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"N": 2, "vector": [[1, 1e308], [2, 1e308]]}))
    done = run_warning_free(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert done.returncode == 2
    assert done.stderr == "config error: input vector entries and their l1 norm must be finite\n"


# S at N = 65536, where a dense T takes 32 GB: T(1), and a seeded file with 8 entries per column summing to 0.97
S_SCALE = 2**16
S_SCALE_RUN = {"subject": "S", "N": S_SCALE, "vector": [[1, 0.5], [300, 0.25], [S_SCALE, 0.25]],
               "r_grid": {"start": 1.0, "factor": 2.0, "count": 6}, "t_grid": {"start": 0.0, "stop": 10.0, "count": 5}}


@pytest.fixture(scope="module")
def sparse_file(tmp_path_factory):
    rng = random.Random(15)
    lines = [f"% seeded sparse matrix, dim {S_SCALE}, column sums 0.97"]
    for col in range(1, S_SCALE + 1):
        weights = [rng.uniform(0.1, 1.0) for _ in range(8)]
        scale = 0.97 / math.fsum(weights)
        lines += [f"{row} {col} {w * scale!r}" for row, w in zip(sorted(rng.sample(range(1, S_SCALE + 1), 8)), weights)]
    path = tmp_path_factory.mktemp("s_scale") / "W.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("command", ["cesaro", "simulate"])
@pytest.mark.parametrize("kind", ["timestep", "file"])
def test_S_at_N_65536_runs_in_seconds_and_tens_of_MB(tmp_path, sparse_file, kind, command):
    s_matrix = {"kind": "file", "path": str(sparse_file)} if kind == "file" else {"kind": "timestep", "t": 1.0}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**S_SCALE_RUN, "s_matrix": s_matrix}))
    script = "\n".join([
        "import time, tracemalloc",
        "from ergodiclab.cli import main",
        "tracemalloc.start()",
        "start = time.perf_counter()",
        f"code = main([{command!r}, '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}])",
        "print(code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1])",
    ])
    done = run_warning_free([], module=("-c", script))
    code, seconds, peak = done.stdout.split()
    assert (done.returncode, done.stderr, code) == (0, "", "0")
    # on a 2-CPU VM, under tracemalloc: at most 2 s, and 83 MB while the file's lines are parsed, 34 MB for T(1)
    assert float(seconds) < 20.0 and int(peak) < 100e6
    # the columns sum to c, so f(S(t)x) = f(x) e^{-ta} and f(C_S(r)x) = f(x) (1 - e^{-ra})/(ra), a = 1 - c
    a = 0.03 if kind == "file" else -math.expm1(-1.0 / S_SCALE)
    if command == "cesaro":
        name, column, f_exact = "cesaro_curve.csv", 4, lambda r: -math.expm1(-r * a) / (r * a)
    else:
        name, column, f_exact = "trajectory.csv", 2, lambda t: math.exp(-t * a)
    for row in (tmp_path / "out" / name).read_text().splitlines()[1:]:
        cells = row.split(",")
        assert abs(float(cells[column]) - f_exact(float(cells[0]))) <= 1e-9, row
