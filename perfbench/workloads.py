"""Workload inputs, CLI calls and output checks.

Every input is generated here from the benchmark seed with the stdlib
generator, so the same seed gives the same files on any machine, and
the program receives only those files.  Every check tests a property
that any correct implementation has, with tolerances taken from the
run's own certificates (the ``trunc_error`` column, ``quadrature_tol``)
or from float64 rounding; none compares against a stored digest.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

QUADRATURE_TOL = 1e-10
ROUND = 1e-12  # relative slack for float64 rounding; observed deviations stay below 1e-15


class CheckFailed(Exception):
    pass


@dataclass
class Call:
    name: str
    argv: list[str]
    check: Callable[[Path], None]


@dataclass
class Workload:
    calls: list[Call]
    inputs: dict = field(default_factory=dict)


def _expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, tol: float, what: str):
    _expect(math.isfinite(got) and abs(got - want) <= tol,
            f"{what}: got {got!r}, want {want!r} within {tol:.3g}")


def _read_csv(path: Path) -> list[dict[str, float]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        _expect(len(cells) == len(header), f"{path.name}: ragged row {line[:60]!r}")
        rows.append({k: float(v) if v else math.nan for k, v in zip(header, cells)})
    return rows


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _sparse_vector(rng: random.Random, N: int, per_block: int) -> list[list]:
    """Nonnegative sparse vector with equal entries and unit l1 norm.

    The seed picks up to ``per_block`` positions in each dyadic block
    [2^k, 2^(k+1)) of 1..N, so every seed mixes fast- and slow-decaying
    coordinates in the same proportions and the adaptive work (Simpson
    evaluations, series terms) does not depend on the seed.
    """
    idx = []
    k = 1
    while k <= N:
        block = range(k, min(2 * k, N + 1))
        idx += rng.sample(block, min(per_block, len(block)))
        k *= 2
    return [[i, 1.0 / len(idx)] for i in sorted(idx)]


def _child_path(path: Path) -> str:
    """``path`` as the children see it: they run in the parent of the inputs
    directory, and relative paths keep the artifacts that record them equal
    wherever the checkout lives."""
    return f"{path.parent.name}/{path.name}"


def _write_config(path: Path, cfg: dict) -> list[str]:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return ["--config", _child_path(path)]


def _geometric(start: float, factor: float, count: int) -> list[float]:
    return [start * factor**k for k in range(count)]


# --- checks shared by the curve and trajectory files ---

def _check_grid(rows, key, want, what):
    _expect(len(rows) == len(want), f"{what}: {len(rows)} rows, want {len(want)}")
    for row, w in zip(rows, want):
        _close(row[key], w, 1e-12 * max(1.0, w), f"{what} {key}")


def _check_mean_f(rows, x_l1: float, f_exact: Callable[[float], float], what: str):
    """Nonnegative input: l1 norm equals f, and f matches the exact value within the certificate."""
    for row in rows:
        tol = row["trunc_error"] + ROUND * x_l1
        _close(row["f_value"], f_exact(row["r"]), tol, f"{what} f_value at r={row['r']:g}")
        _close(row["value_or_norm"], row["f_value"], tol, f"{what} norm at r={row['r']:g}")
        _expect(0.0 < row["max_coordinate"] <= row["value_or_norm"] * (1 + ROUND),
                f"{what}: max_coordinate out of range at r={row['r']:g}")


def _check_sidecars(out: Path):
    _read_json(out / "metadata.json")
    if (out / "verdict.json").exists():
        _expect(isinstance(_read_json(out / "verdict.json"), dict), "verdict.json is not an object")


# --- verify ---

def verify(seed: int, _inputs: Path, N: int) -> Workload:
    verify_seed = random.Random(f"verify:{seed}").randrange(2**31)

    def check(out: Path):
        report = _read_json(out / "verify_report.json")
        checks = report.get("checks") or []
        _expect(report.get("all_passed") is True, "verify report: all_passed is not true")
        _expect(len(checks) > 0, "verify report lists no checks")
        for c in checks:
            _expect(c.get("passed") is True and c["measured"] <= c["bound"],
                    f"verify check {c.get('name')} failed")

    argv = ["verify", "--dim", str(N), "--seed", str(verify_seed)]
    return Workload([Call("verify", argv, check)], {"verify_seed": verify_seed})


# --- M and T curves ---

def mt_curves(seed: int, inputs: Path, N: int, r_count: int, t_count: int) -> Workload:
    rng = random.Random(f"mt:{seed}")
    vec = _sparse_vector(rng, N, 4)
    x_l1 = math.fsum(v for _, v in vec)
    r_grid = {"start": 1.0, "factor": 1.02, "count": r_count}
    t_grid = {"start": 0.0, "stop": 100.0, "count": t_count}
    base = {"N": N, "vector": vec, "tolerances": {"quadrature_tol": QUADRATURE_TOL}}
    rs = _geometric(r_grid["start"], r_grid["factor"], r_grid["count"])
    xs = dict(vec)
    # rows of the T curve whose max coordinate is recomputed over every j (O(N) each)
    top_rows = sorted(rng.sample(range(r_count), min(10, r_count)))

    def mean_M(r: float) -> float:
        return math.fsum((h / r) * -math.expm1(-r / h) * v for h, v in vec)

    def check_M(out: Path):
        rows = _read_csv(out / "cesaro_curve.csv")
        _check_grid(rows, "r", rs, "cesaro M")
        _check_mean_f(rows, x_l1, mean_M, "cesaro M")
        for row in rows:
            r = row["r"]
            top = max((h / r) * -math.expm1(-r / h) * v for h, v in vec)
            _close(row["max_coordinate"], top, ROUND * x_l1, f"cesaro M max_coordinate at r={r:g}")
        _check_sidecars(out)

    def check_T(out: Path):
        rows = _read_csv(out / "cesaro_curve.csv")
        _check_grid(rows, "r", rs, "cesaro T")
        # untruncated f(C_T(r)x) = ||x||_1; the certificate bounds the distance to it
        _check_mean_f(rows, x_l1, lambda r: x_l1, "cesaro T")
        for row in rows:
            # truncated columns of T(s) sum to exp(-s/N), which fixes f of the truncated mean
            r = row["r"]
            want = x_l1 * (N / r) * -math.expm1(-r / N)
            _close(row["f_value"], want, ROUND * x_l1, f"cesaro T truncated f_value at r={r:g}")
        for k in top_rows:
            r = rows[k]["r"]
            _close(rows[k]["max_coordinate"], top_T(r), ROUND * x_l1, f"cesaro T max_coordinate at r={r:g}")
        _check_sidecars(out)

    def top_T(r: float) -> float:
        # coordinate j of C_T(r)x, exact for j <= N:
        # (1/r) [x_j j (1 - exp(-r/j)) + (x_1 + ... + x_{j-1}) integral_b(j, r)]
        top = prefix = 0.0
        for j in range(1, N + 1):
            xj = xs.get(j, 0.0)
            ib = (j - 1) * math.expm1(-r / (j - 1)) - j * math.expm1(-r / j) if j > 1 else 0.0
            top = max(top, xj * j * -math.expm1(-r / j) + prefix * ib)
            prefix += xj
        return top / r

    def coord_T(j: int, t: float) -> float:
        # T(t)x at j: x_j exp(-t/j) + (x_1 + ... + x_{j-1}) b(j, t)
        prefix = math.fsum(xs.get(k, 0.0) for k in range(1, j))
        b = math.exp(-t / j) * -math.expm1(-t / (j * (j - 1))) if j > 1 else 0.0
        return xs.get(j, 0.0) * math.exp(-t / j) + prefix * b

    def check_sim_T(out: Path):
        rows = _read_csv(out / "trajectory.csv")
        ts = [t_grid["stop"] * k / (t_grid["count"] - 1) for k in range(t_grid["count"])]
        _check_grid(rows, "t", ts, "simulate T")
        for row in rows:
            t = row["t"]
            _close(row["f_value"], x_l1 * math.exp(-t / N), ROUND * x_l1, f"simulate T f_value at t={t:g}")
            _close(row["norm_l1"], row["f_value"], ROUND * x_l1, f"simulate T norm at t={t:g}")
            for j in range(1, 17):
                _close(row[f"coord_{j}"], coord_T(j, t), 1e-13 * x_l1, f"simulate T coord_{j} at t={t:g}")
            _expect(1 <= row["max_index"] <= N, "simulate T max_index out of range")
        _check_sidecars(out)

    calls = [
        Call("cesaro_M", ["cesaro"] + _write_config(
            inputs / "cesaro_M.json", {**base, "subject": "M", "r_grid": r_grid}), check_M),
        Call("cesaro_T", ["cesaro"] + _write_config(
            inputs / "cesaro_T.json", {**base, "subject": "T", "r_grid": r_grid}), check_T),
        Call("simulate_T", ["simulate"] + _write_config(
            inputs / "simulate_T.json", {**base, "subject": "T", "t_grid": t_grid}), check_sim_T),
    ]
    return Workload(calls, {"vector_nnz": len(vec), "vector_l1": x_l1})


# --- exponential semigroup S ---

def _substochastic_triples(rng: random.Random, N: int, per_col: int, c: float) -> tuple[str, float]:
    """Sparse nonnegative matrix whose columns all sum to c < 1.

    Equal column sums make 1^T W = c 1^T, so f(S(t)x) = f(x) exp(-t(1 - c))
    exactly, which the checks use as the reference.
    """
    lines = [f"% seeded substochastic matrix, dim {N}, column sums {c}"]
    sums = []
    for col in range(1, N + 1):
        rows = sorted(rng.sample(range(1, N + 1), per_col))
        weights = [rng.uniform(0.1, 1.0) for _ in rows]
        scale = c / math.fsum(weights)
        cells = [f"{w * scale:.17e}" for w in weights]
        sums.append(math.fsum(float(v) for v in cells))
        lines += [f"{r} {col} {v}" for r, v in zip(rows, cells)]
    return "\n".join(lines) + "\n", math.fsum(sums) / N


def s_triples(seed: int, inputs: Path, N: int, r_count: int, export_dim: int) -> Workload:
    """S on T(1) and on a seeded triples file (the read path), plus a
    ``matrix`` export (the write path), whose dense matrix and triple lines
    set the workload's peak RSS."""
    rng = random.Random(f"s:{seed}")
    vec = _sparse_vector(rng, N, 2)
    x_l1 = math.fsum(v for _, v in vec)
    # a fixed column sum keeps the decay rate, and with it the quadrature work, seed-independent
    text, c_file = _substochastic_triples(rng, N, 8, 0.97)
    matrix_path = inputs / "W.txt"
    matrix_path.write_text(text)
    r_grid = {"start": 1.0, "factor": 2.0, "count": r_count}
    t_grid = {"start": 0.0, "stop": 20.0, "count": 21}
    base = {"subject": "S", "N": N, "vector": vec, "r_grid": r_grid,
            "tolerances": {"quadrature_tol": QUADRATURE_TOL}}
    timestep = {"kind": "timestep", "t": 1.0}
    from_file = {"kind": "file", "path": _child_path(matrix_path)}
    rs = _geometric(r_grid["start"], r_grid["factor"], r_grid["count"])

    def mean_f(decay: float):
        # f(C_S(r)x) = f(x) (1 - exp(-r a)) / (r a) with a = 1 - (column sum)
        return lambda r: x_l1 * -math.expm1(-r * decay) / (r * decay)

    def curve_check(decay: float, what: str):
        def check(out: Path):
            rows = _read_csv(out / "cesaro_curve.csv")
            _check_grid(rows, "r", rs, what)
            _check_mean_f(rows, x_l1, mean_f(decay), what)
            _check_sidecars(out)

        return check

    def check_sim(out: Path):
        rows = _read_csv(out / "trajectory.csv")
        ts = [t_grid["stop"] * k / (t_grid["count"] - 1) for k in range(t_grid["count"])]
        _check_grid(rows, "t", ts, "simulate S")
        tol = QUADRATURE_TOL + ROUND * x_l1
        for row in rows:
            t = row["t"]
            _close(row["f_value"], x_l1 * math.exp(-t * (1.0 - c_file)), tol, f"simulate S f_value at t={t:g}")
            _close(row["norm_l1"], row["f_value"], tol, f"simulate S norm at t={t:g}")
        _check_sidecars(out)

    # columns of the truncated T(1) sum to exp(-1/N)
    decay_timestep = -math.expm1(-1.0 / N)
    calls = [
        Call("cesaro_S_timestep", ["cesaro"] + _write_config(
            inputs / "cesaro_S_timestep.json", {**base, "s_matrix": timestep}),
            curve_check(decay_timestep, "cesaro S timestep")),
        Call("cesaro_S_file", ["cesaro"] + _write_config(
            inputs / "cesaro_S_file.json", {**base, "s_matrix": from_file}),
            curve_check(1.0 - c_file, "cesaro S file")),
        Call("simulate_S_file", ["simulate"] + _write_config(
            inputs / "simulate_S_file.json", {**base, "t_grid": t_grid, "s_matrix": from_file}),
            check_sim),
        _matrix_export(rng, export_dim),
    ]
    facts = {"vector_nnz": len(vec), "vector_l1": x_l1, "matrix_nnz": N * 8, "matrix_column_sum": c_file,
             "export_dim": export_dim, "export_nnz": export_dim * (export_dim + 1) // 2}
    return Workload(calls, facts)


# --- matrix export, part of the S workload ---

def _matrix_export(rng: random.Random, N: int) -> Call:
    n_lines = N * (N + 1) // 2
    sample = rng.sample(range(1, n_lines + 1), 1000)

    def check(out: Path):
        data = (out / "matrix_B.txt").read_bytes()
        count = data.count(b"\n")
        _expect(count == n_lines + 1, f"matrix_B.txt: {count} lines, want {n_lines + 1}")
        lines = data.split(b"\n")
        for k in sample:
            parts = lines[k].split()
            _expect(len(parts) == 3, f"matrix_B.txt line {k + 1} is not a triple")
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            # column j: -1/j on the diagonal, 1/(i(i-1)) below it, nothing above
            _expect(1 <= j <= i <= N, f"matrix_B.txt line {k + 1}: entry ({i}, {j}) outside the lower triangle")
            want = -1.0 / j if i == j else 1.0 / (i * (i - 1))
            _close(v, want, 4e-16 * abs(want), f"matrix_B.txt entry ({i}, {j})")
        _check_sidecars(out)

    return Call("matrix", ["matrix", "--dim", str(N)], check)


WORKLOADS = {
    "verify_n32768": partial(verify, N=32768),
    "mt_curves_n65536": partial(mt_curves, N=65536, r_count=550, t_count=1001),
    "s_triples_n256": partial(s_triples, N=256, r_count=8, export_dim=768),
}

# Small versions of every workload.  A traced run also runs those of the other
# workloads once, traced, so that a layer its own workload does not reach still
# reports a measured value instead of a constant 0.
COVERAGE = {
    "verify_n32768": partial(verify, N=1024),
    "mt_curves_n65536": partial(mt_curves, N=4096, r_count=100, t_count=101),
    "s_triples_n256": partial(s_triples, N=64, r_count=6, export_dim=512),
}
