"""Every subcommand runs its default config, and M/T at the N cap, in a fresh interpreter with numpy's warnings as errors.

A numpy overflow or invalid value raises a RuntimeWarning; under
``-W error::RuntimeWarning`` it becomes a traceback on stderr, so a run
passes only with exit 0 and nothing written to stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

SMALL_R = {"start": 0.5, "factor": 2.0, "count": 6}
# at the N cap: a signed sparse x, four entries per dyadic block, r up to N and t up to 1e6
CAP = 2**22
CAP_X = [[k + j, (-1.0) ** j / (k + j)] for k in (2**e for e in range(22)) for j in range(min(k, 4))]
CAP_RUN = {"N": CAP, "vector": CAP_X, "r_grid": {"start": 1.0, "factor": 2.0, "count": 23},
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


def test_overflowing_l1_norm_is_a_config_error(tmp_path):
    # each entry is finite; their l1 norm overflows, and summing it must not warn
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"N": 2, "vector": [[1, 1e308], [2, 1e308]]}))
    done = run_warning_free(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert done.returncode == 2
    assert done.stderr == "config error: input vector entries and their l1 norm must be finite\n"
