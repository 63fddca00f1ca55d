"""Self-test of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. BENCHMARK.json lists exactly the workloads of ``workloads.py`` and the
   per-layer metrics of ``tracing.py``.
2. Wrapped functions return what unwrapped ones return: the invariant
   suite gives equal results before and after the wrappers go in, and
   every traced run compares its outputs byte for byte with the untraced
   iteration before it.
3. In one traced run per workload, every layer ``REACHED_ON`` maps to
   the workload is reached by the workload itself, not filled in from the
   coverage pass, and every per-layer metric reads nonzero.
4. Every output check rejects a deliberately corrupted artifact.

Exits 0 when all pass; prints one line per finding otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracing
from run import OUT, ROOT, SRC, Children
from workloads import WORKLOADS

SEED = 1

# the workload each traced span must show up on: its metric group's workload,
# or the invariant suite for layers that only ``verify`` reaches
REACHED_ON = {
    "verify_n32768": [
        "space.project_Q", "space.project_P", "space.TruncatedVector", "space.norm_l1", "space.pair",
        "coeffs.b", "coeffs.integral_b", "semigroups.apply_M", "semigroups.adjoint_residual_vector",
        "semigroups.kernel_B",
        "diagnostics.kernel_criterion", "exp_semigroup.renorm", "cli.cmd_verify",
        *(f"verification.{name}" for name in tracing.CHECK_NAMES),
    ],
    "mt_curves_n65536": [
        "coeffs.b_row", "coeffs.integral_b_row", "semigroups.apply_T",
        "cesaro.cesaro_M", "cesaro.cesaro_T", "cesaro.CesaroCurve.to_csv",
        "diagnostics.cauchy_convergence_test", "cli.cmd_simulate", "cli.cmd_cesaro",
    ],
    "s_triples_n256": [
        "exp_semigroup.PowerBoundedOperator.from_matrix", "exp_semigroup.apply_S", "semigroups.opnorm_l1",
        "semigroups.matrix_T", "semigroups.from_sparse_triples", "cesaro.adaptive_simpson",
        "cesaro.cesaro_quadrature", "cli.ExperimentConfig.power_operator",
        "semigroups.matrix_B", "semigroups.to_sparse_triples", "cli.cmd_matrix",
    ],
}


def check_catalogue(problems: list[str]):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if listed != tracing.metric_units():
        problems.append("BENCHMARK.json per_layer differs from tracing.metric_units()")


def check_wrappers_transparent(problems: list[str]):
    sys.path.insert(0, str(SRC))
    from ergodiclab import verification

    before = verification.run_all(512, 7)
    recorder = tracing.Recorder()
    recorder.install()
    after = verification.run_all(512, 7)
    if before != after:
        problems.append("invariant suite results change when the wrappers are installed")
    if recorder.missing:
        problems.append(f"wrapper targets not found: {recorder.missing}")
    if not recorder.spans:
        problems.append("installed wrappers recorded no spans")


def check_layers_reached(problems: list[str]):
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            problems.append(f"{workload}: traced run exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        *_, detail_line, result_line = proc.stdout.splitlines()
        detail, result = json.loads(detail_line)["detail"], json.loads(result_line)
        if not result["correct"]:
            problems.append(f"{workload}: traced run not correct: {proc.stderr[-500:]}")
        borrowed = set(detail["coverage_spans"]) & set(REACHED_ON[workload])
        if borrowed:
            problems.append(f"{workload}: does not reach {sorted(borrowed)} itself")
        for name, metric in result["metrics"].items():
            if name != "trace.overhead_s" and not metric["value"]:
                problems.append(f"{workload}: per-layer metric {name} is 0")


def _shift_csv_cell(path: Path, column: str, every_row: bool = False):
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    for row in range(1, len(lines)) if every_row else [len(lines) // 2]:
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) + 1e-6)
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _fail_one_check(path: Path):
    report = json.loads(path.read_text())
    report["checks"][0]["measured"] = report["checks"][0]["bound"] + 1.0
    path.write_text(json.dumps(report))


def _transpose_triples(path: Path):
    lines = path.read_text().splitlines()
    swapped = [" ".join([p[1], p[0], p[2]]) for p in (ln.split() for ln in lines[1:])]
    path.write_text("\n".join(lines[:1] + swapped) + "\n")


def _drop_last_line(path: Path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


CORRUPTIONS = {
    "verify": [lambda out: _fail_one_check(out / "verify_report.json")],
    "cesaro_M": [lambda out: _shift_csv_cell(out / "cesaro_curve.csv", "f_value")],
    "cesaro_T": [lambda out: _shift_csv_cell(out / "cesaro_curve.csv", "f_value"),
                 lambda out: _shift_csv_cell(out / "cesaro_curve.csv", "max_coordinate", every_row=True)],
    "simulate_T": [lambda out: _shift_csv_cell(out / "trajectory.csv", "coord_1"),
                   lambda out: _shift_csv_cell(out / "trajectory.csv", "f_value")],
    "cesaro_S_timestep": [lambda out: _shift_csv_cell(out / "cesaro_curve.csv", "f_value")],
    "cesaro_S_file": [lambda out: _shift_csv_cell(out / "cesaro_curve.csv", "value_or_norm")],
    "simulate_S_file": [lambda out: _shift_csv_cell(out / "trajectory.csv", "f_value")],
    "matrix": [lambda out: _transpose_triples(out / "matrix_B.txt"),
               lambda out: _drop_last_line(out / "matrix_B.txt")],
}


def check_corruption_caught(problems: list[str]):
    work = OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    children = Children(work, time.monotonic() + 600.0)
    for build in WORKLOADS.values():
        workload = build(SEED, work / "inputs")
        for call in workload.calls:
            good = work / "good" / call.name
            res = children.run(call.argv + ["--out", str(good.relative_to(work))])
            if res.get("rc") != 0:
                problems.append(f"{call.name}: exit code {res.get('rc')}")
                continue
            try:
                call.check(good)
            except Exception as exc:
                problems.append(f"{call.name}: good output fails its check: {exc}")
                continue
            for k, corrupt in enumerate(CORRUPTIONS[call.name]):
                bad = work / "bad" / f"{call.name}{k}"
                shutil.copytree(good, bad)
                corrupt(bad)
                try:
                    call.check(bad)
                except Exception:
                    continue
                problems.append(f"{call.name}: corruption {k} passed its output check")
    shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    check_catalogue(problems)
    check_corruption_caught(problems)
    check_layers_reached(problems)
    check_wrappers_transparent(problems)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
