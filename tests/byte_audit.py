"""Byte audit: run a fixed list of CLI calls in one process and write everything each call produces.

    python3 tests/byte_audit.py OUT

Run it from the root of a checkout; it imports ``ergodiclab`` from ``src/``.  Each call runs
``cli.main(argv)`` in a directory of its own under OUT, which holds the call's inputs, its
``--out`` directory ``out`` (a relative path, so ``metadata.json`` does not depend on where
OUT is), and ``stdout.txt``, ``stderr.txt``, ``warnings.txt`` (category and message of every
warning, without its source line) and ``exit.txt``.  An exception that escapes ``main`` is
written to ``exit.txt`` in place of a code.  Running it on two checkouts and comparing

    diff -r OUT_A OUT_B

is the audit: identical trees mean identical behaviour on every call below.

The calls: M and T ``cesaro`` (vector mode, and ``mode: opnorm`` on M) and ``simulate`` at
N in {1, 2, 257, 4096, 65536, 2^22} on e_1, e_N, a seeded signed 40-nonzero x, a gap after a
zero prefix sum, and signed zeros; S ``cesaro`` and ``simulate`` on ``identity``, ``timestep``
and a seeded ``file`` matrix at N in {1, 257}, on an r grid within N and on the default one;
``matrix`` at N in {1, 3, 64, 65, 768}; ``verify`` at --dim 1, 257, 1024, 32768, 65536 with
seeds 7 and 12345, with and without ``inject_corruption``; and every call of the three benchmark
workloads of ``perfbench/workloads.py`` and of their coverage versions, seeds 1-3, whose own
output check is written to ``check.txt``.

Stdlib only besides the package.  It is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import warnings
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from ergodiclab import cli  # noqa: E402

SIZES = (1, 2, 257, 4096, 65536, 2**22)
S_SIZES = (1, 257)
MATRIX_SIZES = (1, 3, 64, 65, 768)
VERIFY_SIZES = (1, 257, 1024, 32768, 65536)
VERIFY_SEEDS = (7, 12345)
BENCH_SEEDS = (1, 2, 3)


def vectors(N: int) -> dict[str, list]:
    """The M/T inputs at truncation N, as config [index, value] pairs."""
    rng = random.Random(f"audit:{N}")
    signed = sorted(rng.sample(range(1, N + 1), min(N, 40)))
    out = {
        "e1": [[1, 1.0]],
        "eN": [[N, 1.0]],
        "signed40": [[i, rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 2.0)] for i in signed],
        # x_1 + x_2 = 0 exactly, so the gap after index 2 carries no mass
        "zero_prefix_gap": [[1, 0.75], [2, -0.75]] + ([[N, 0.25]] if N > 3 else []),
        "signed_zeros": [[1, -0.0]] + ([[2, 0.0], [N, -2.0]] if N > 2 else []),
    }
    return out


def triples(N: int, per_col: int = 8, c: float = 0.97) -> str:
    """A seeded nonnegative matrix file whose columns each sum to c."""
    rng = random.Random(f"triples:{N}")
    lines = [f"% seeded, dim {N}"]
    for col in range(1, N + 1):
        rows = sorted(rng.sample(range(1, N + 1), min(N, per_col)))
        weights = [rng.uniform(0.1, 1.0) for _ in rows]
        total = sum(weights)
        lines += [f"{r} {col} {w * c / total!r}" for r, w in zip(rows, weights)]
    return "\n".join(lines) + "\n"


def run(where: Path, argv: list[str], files: dict[str, str] | None = None, cwd: Path | None = None) -> Path:
    """``cli.main(argv)`` with ``--out`` the directory ``out`` of ``where``, after writing its input ``files`` there.

    It runs in ``cwd`` (``where`` unless given), and names ``out`` relative to it.
    """
    where.mkdir(parents=True)
    for name, text in (files or {}).items():
        (where / name).write_text(text)
    cwd = where if cwd is None else cwd
    argv = [*argv, "--out", os.path.relpath(where / "out", cwd)]
    stdout, stderr, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with warnings.catch_warnings(record=True) as seen, contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = str(cli.main(argv))
            except Exception as exc:  # the audit records an escape; it does not stop at one
                code = f"exception {type(exc).__name__}: {exc}"
    finally:
        os.chdir(here)
    (where / "stdout.txt").write_text(stdout.getvalue())
    (where / "stderr.txt").write_text(stderr.getvalue())
    (where / "warnings.txt").write_text("".join(f"{w.category.__name__}: {w.message}\n" for w in seen))
    (where / "exit.txt").write_text(code + "\n")
    return where


def config_call(where: Path, command: str, cfg: dict, files: dict[str, str] | None = None):
    run(where, [command, "--config", "config.json"], {"config.json": json.dumps(cfg, sort_keys=True), **(files or {})})


def mt_calls(out: Path):
    for N in SIZES:
        r_max = 0.99 * N  # T's truncation certificate binds at r = N
        r_grid = {"start": r_max / 1.25**39, "factor": 1.25, "count": 40}
        t_grid = {"start": 0.0, "stop": 3.0 * N, "count": 301}
        for name, vector in vectors(N).items():
            base = {"N": N, "vector": vector}
            for subject in ("M", "T"):
                config_call(out / f"N{N}" / name / f"cesaro_{subject}", "cesaro",
                            {**base, "subject": subject, "r_grid": r_grid})
                config_call(out / f"N{N}" / name / f"simulate_{subject}", "simulate",
                            {**base, "subject": subject, "t_grid": t_grid})
        config_call(out / f"N{N}" / "opnorm", "cesaro", {"N": N, "subject": "M", "mode": "opnorm", "r_grid": r_grid})


def s_calls(out: Path):
    for N in S_SIZES:
        x = vectors(N)["signed40"]
        kinds = {"identity": {"kind": "identity"}, "timestep": {"kind": "timestep", "t": 1.0},
                 "file": {"kind": "file", "path": "W.txt"}}
        for kind, s_matrix in kinds.items():
            files = {"W.txt": triples(N)} if kind == "file" else None
            base = {"N": N, "vector": x, "subject": "S", "s_matrix": s_matrix}
            within = {"start": N / 2.0**7, "factor": 2.0, "count": 8}  # largest r = N
            config_call(out / f"N{N}" / kind / "cesaro_within_N", "cesaro", {**base, "r_grid": within}, files)
            config_call(out / f"N{N}" / kind / "cesaro_default_grid", "cesaro", base, files)
            config_call(out / f"N{N}" / kind / "simulate", "simulate",
                        {**base, "t_grid": {"start": 0.0, "stop": 20.0, "count": 21}}, files)


def matrix_calls(out: Path):
    for N in MATRIX_SIZES:
        run(out / f"N{N}", ["matrix", "--dim", str(N)])


def verify_calls(out: Path):
    for N in VERIFY_SIZES:
        for seed in VERIFY_SEEDS:
            for corrupt in (False, True):
                config_call(out / f"N{N}_seed{seed}_{'corrupt' if corrupt else 'clean'}", "verify",
                            {"N": N, "seed": seed, "inject_corruption": corrupt})


def bench_calls(out: Path):
    import workloads

    for table in ("WORKLOADS", "COVERAGE"):
        for name, make in getattr(workloads, table).items():
            for seed in BENCH_SEEDS:
                group = out / table.lower() / f"{name}_seed{seed}"
                (group / "inputs").mkdir(parents=True)
                workload = make(seed, group / "inputs")
                for call in workload.calls:
                    # the calls name their inputs as inputs/<file>: they run in the parent of the inputs
                    where = run(group / call.name, call.argv, cwd=group)
                    try:
                        call.check(where / "out")
                        verdict = "ok"
                    except Exception as exc:
                        verdict = f"{type(exc).__name__}: {exc}"
                    (where / "check.txt").write_text(verdict + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists():
        print(f"{out} exists; the audit writes a new directory", file=sys.stderr)
        return 2
    for name, calls in (("mt", mt_calls), ("s", s_calls), ("matrix", matrix_calls), ("verify", verify_calls),
                        ("bench", bench_calls)):
        calls(out / name)
        print(f"{name}: done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
