"""Reproducible experiment runner.

Subcommands build the configured operators, run the diagnostic suites,
and emit CSV/JSON artifacts suitable for plotting.  All numeric CSV
cells use 17-significant-digit scientific notation and all JSON is
sorted, so identical configs and seeds produce byte-identical outputs.

Exit codes: 0 success, 1 invariant failure, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cesaro import (
    CesaroCurve,
    curve_cesaro_M,
    curve_cesaro_M_opnorm,
    curve_cesaro_S,
    curve_cesaro_T,
    geometric_grid,
    support_summaries,
)
from .diagnostics import ConvergenceVerdict, cauchy_convergence_test
from .exp_semigroup import PowerBoundedOperator, apply_S
from .semigroups import (
    from_sparse_triples,
    matrix_B,
    matrix_json,
    to_sparse_triples,
    trajectory_kernel,
)
from .space import TruncatedVector, row_stats
from .verification import run_all

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

_SUBJECTS = ("M", "T", "S")
_MODES = ("vector", "opnorm")
_S_KINDS = ("identity", "timestep", "file")

# size budget, fixed so that what runs does not depend on the machine: the input
# vector is dense, the M/T summaries hold a few arrays the size of its support, and
# every grid point keeps its summaries and one CSV line until the file is written
_N_CAP = 2**22
_GRID_COUNT_CAP = 100_000
# dense exponential-series path; guards the S subject against runaway cost
_S_DIM_CAP = 256
# the series for S(t) runs about t + 40 sqrt(t) matrix-vector products
_S_T_CAP = 1e4
# the power-bound scan forms up to horizon dense N x N products
_HORIZON_CAP = 4096


class ConfigValidationError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class ExperimentConfig:
    subject: str = "M"
    N: int = 1024
    r_grid: tuple[float, float, int] = (1.0, 2.0, 10)       # start, factor, count
    t_grid: tuple[float, float, int] = (0.0, 5.0, 11)       # start, stop, count
    vector: tuple[tuple[int, float], ...] = ((1, 1.0),)     # sparse (index, value)
    quadrature_tol: float = 1e-10
    convergence_tol: float = 1e-2
    out_dir: str = "out"
    seed: int = 12345
    mode: str = "vector"
    s_matrix: tuple = ("timestep", 1.0)                     # kind + parameter
    horizon: int = 256
    inject_corruption: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        d["r_grid"] = {"start": self.r_grid[0], "factor": self.r_grid[1], "count": self.r_grid[2]}
        d["t_grid"] = {"start": self.t_grid[0], "stop": self.t_grid[1], "count": self.t_grid[2]}
        d["vector"] = [[int(i), float(v)] for i, v in self.vector]
        d["tolerances"] = {
            "quadrature_tol": self.quadrature_tol,
            "convergence_tol": self.convergence_tol,
        }
        del d["quadrature_tol"], d["convergence_tol"]
        kind = self.s_matrix[0]
        if kind == "identity":
            d["s_matrix"] = {"kind": "identity"}
        elif kind == "timestep":
            d["s_matrix"] = {"kind": "timestep", "t": float(self.s_matrix[1])}
        else:
            d["s_matrix"] = {"kind": "file", "path": str(self.s_matrix[1])}
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config from parsed JSON; each malformed field is reported by name."""
        if not isinstance(data, dict):
            raise ConfigValidationError(
                [f"config must be a JSON object, got {type(data).__name__}"]
            )
        problems = []
        kw = {}
        emitted = cls().to_dict()  # every key it holds must round-trip

        def convert(name, value, to, what):
            try:
                return to(value)
            except (TypeError, ValueError, OverflowError):
                problems.append(f"{name} must be {what}, got {value!r}")
                return None

        def unknown(prefix, given, known):
            problems.extend(f"{prefix}{key} is not a known key" for key in given if key not in known)

        def section(name, known, required=()):
            sub = data[name]
            if not isinstance(sub, dict):
                problems.append(f"{name} must be a JSON object, got {type(sub).__name__}")
                return None
            unknown(f"{name}.", sub, known)
            missing = [key for key in required if key not in sub]
            if missing:
                problems.append(f"{name} is missing {', '.join(missing)}")
                return None
            return sub

        def grid(name, first, second):
            keys = (first, second, "count")
            g = section(name, keys, keys)
            if g is None:
                return None
            values = (
                convert(f"{name}.{first}", g[first], float, "a number"),
                convert(f"{name}.{second}", g[second], float, "a number"),
                convert(f"{name}.count", g["count"], int, "an integer"),
            )
            return None if None in values else values

        unknown("", data, emitted)
        if "subject" in data:
            kw["subject"] = str(data["subject"])
        if "N" in data:
            kw["N"] = convert("N", data["N"], int, "an integer")
        if "r_grid" in data:
            kw["r_grid"] = grid("r_grid", "start", "factor")
        if "t_grid" in data:
            kw["t_grid"] = grid("t_grid", "start", "stop")
        if "vector" in data:
            kw["vector"] = convert(
                "vector",
                data["vector"],
                lambda entries: tuple((int(i), float(v)) for i, v in entries),
                "a list of [index, value] pairs",
            )
        if "tolerances" in data:
            tol = section("tolerances", emitted["tolerances"])
            for key in emitted["tolerances"]:
                if tol is not None and key in tol:
                    kw[key] = convert(f"tolerances.{key}", tol[key], float, "a number")
        for key in ("out_dir", "mode"):
            if key in data:
                kw[key] = str(data[key])
        for key in ("seed", "horizon"):
            if key in data:
                kw[key] = convert(key, data[key], int, "an integer")
        if "inject_corruption" in data:
            kw["inject_corruption"] = bool(data["inject_corruption"])
        m = section("s_matrix", ("kind", "t", "path")) if "s_matrix" in data else None
        if m is not None:
            kind = m.get("kind")
            if kind == "identity":
                kw["s_matrix"] = ("identity",)
            elif kind == "timestep":
                kw["s_matrix"] = ("timestep", convert("s_matrix.t", m.get("t", 1.0), float, "a number"))
            elif kind == "file":
                kw["s_matrix"] = ("file", str(m.get("path", "")))
            else:
                kw["s_matrix"] = (str(kind),)
        if problems:
            raise ConfigValidationError(problems)
        return replace(cls(), **kw)

    def validate(self, command: str | None = None) -> list[str]:
        """The rules this config breaks for ``command``; with None, only those every command shares."""
        problems = []
        if self.subject not in _SUBJECTS:
            problems.append(f"subject must be one of {_SUBJECTS}, got {self.subject!r}")
        if self.N < 1:
            problems.append(f"N must be >= 1, got {self.N}")
        elif self.N > _N_CAP:
            problems.append(f"N must be <= {_N_CAP} (the size budget), got {self.N}")
        if command == "cesaro":  # the r_grid and the mode are read by cesaro alone
            problems += self._cesaro_problems()
        t0, t1, tcount = self.t_grid
        if tcount < 1:
            problems.append("t_grid count must be >= 1")
        elif tcount > _GRID_COUNT_CAP:
            problems.append(f"t_grid.count must be <= {_GRID_COUNT_CAP} (the size budget), got {tcount}")
        if not (math.isfinite(t0) and math.isfinite(t1)):
            problems.append("t_grid start and stop must be finite")
        elif t0 < 0 or t1 < t0:
            problems.append("t_grid needs 0 <= start <= stop")
        elif self.subject == "S" and t1 > _S_T_CAP:
            problems.append(
                f"t_grid.stop must be <= {_S_T_CAP:g} for subject S "
                f"(its series needs about t terms), got {t1:g}"
            )
        if not self.vector:
            problems.append("input vector must have at least one entry")
        else:
            for i, _v in self.vector:
                if not 1 <= i <= self.N:
                    problems.append(f"vector index {i} outside 1..{self.N}")
            if len({i for i, _v in self.vector}) < len(self.vector):
                problems.append("vector lists an index more than once")
            if not math.isfinite(float(np.abs([v for _i, v in self.vector]).sum())):
                problems.append("input vector entries and their l1 norm must be finite")
        for name in ("quadrature_tol", "convergence_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                problems.append(f"tolerances.{name} must be finite and > 0, got {value!r}")
        if self.horizon < 1:
            problems.append("horizon must be >= 1")
        elif self.horizon > _HORIZON_CAP:
            problems.append(f"horizon must be <= {_HORIZON_CAP} (the size budget), got {self.horizon}")
        if self.s_matrix[0] not in _S_KINDS:
            problems.append(f"s_matrix kind must be one of {_S_KINDS}")
        elif self.s_matrix[0] == "timestep" and not (
            math.isfinite(self.s_matrix[1]) and self.s_matrix[1] >= 0
        ):
            problems.append(f"s_matrix.t must be finite and >= 0, got {self.s_matrix[1]!r}")
        if self.subject == "S" and self.N > _S_DIM_CAP:
            problems.append(
                f"subject S runs dense exponential series; use N <= {_S_DIM_CAP}"
            )
        return problems

    def _cesaro_problems(self) -> list[str]:
        """The rules on the r_grid and the mode; the largest r also bounds T's truncation certificate."""
        problems = []
        start, factor, count = self.r_grid
        if count < 1:
            problems.append("r_grid count must be >= 1")
        elif count > _GRID_COUNT_CAP:
            problems.append(f"r_grid.count must be <= {_GRID_COUNT_CAP} (the size budget), got {count}")
        if not (math.isfinite(start) and math.isfinite(factor)):
            problems.append("r_grid start and factor must be finite")
        elif start <= 0 or factor <= 1:
            problems.append("r_grid needs start > 0 and factor > 1")
        elif self.N <= _N_CAP and not math.isfinite(self.N / start):  # the kernels scale coordinate h by h/r
            problems.append(f"r_grid.start must be above N / DBL_MAX = {self.N / sys.float_info.max:.3g}, got {start!r}")
        if 1 <= self.N <= _N_CAP and count >= 1 and 0 < start < math.inf and 1 < factor < math.inf:
            try:
                r_max = start * factor ** (count - 1)
            except OverflowError:
                r_max = math.inf
            if r_max / (2.0 * self.N) > 0.5:
                raise_N = f" or raise N to at least {int(r_max)}" if math.isfinite(r_max) else ""
                problems.append(
                    f"r_grid: largest r = {r_max:g} gives a vacuous truncation certificate "
                    f"(r/(2N) = {r_max / (2 * self.N):.3g} > 0.5); shrink the r_grid{raise_N}"
                )
        if self.mode not in _MODES:
            problems.append(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "opnorm" and self.subject != "M":
            problems.append("opnorm mode is only available for subject M")
        return problems

    def ensure_valid(self, command: str | None = None):
        problems = self.validate(command)
        if problems:
            raise ConfigValidationError(problems)

    def r_values(self) -> np.ndarray:
        return geometric_grid(*self.r_grid)

    def t_values(self) -> np.ndarray:
        t0, t1, count = self.t_grid
        return np.linspace(t0, t1, count)

    def input_vector(self) -> TruncatedVector:
        coords = np.zeros(self.N)
        for i, v in self.vector:
            coords[i - 1] = v
        return TruncatedVector(coords)

    def power_operator(self) -> PowerBoundedOperator:
        kind = self.s_matrix[0]
        if kind == "identity":
            return PowerBoundedOperator.identity(self.N)
        if kind == "timestep":
            return PowerBoundedOperator.from_timestep(
                float(self.s_matrix[1]), self.N, horizon=self.horizon
            )
        try:
            matrix = from_sparse_triples(Path(self.s_matrix[1]).read_text(), dim=self.N)
            op = PowerBoundedOperator.from_matrix(matrix, horizon=self.horizon)
        except ValueError as exc:
            raise ConfigValidationError([f"s_matrix.path: {exc}"]) from None
        if not math.isfinite(op.power_bound):
            raise ConfigValidationError([
                f"s_matrix.path: no power T^k with ||T^k||_1 <= 1 up to horizon {self.horizon}, "
                "so no power bound is certified"
            ])
        return op


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _metadata(cfg: ExperimentConfig) -> str:
    return json.dumps(
        {"config": cfg.to_dict(), "version": __version__}, indent=2, sort_keys=True
    )


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_simulate(cfg: ExperimentConfig) -> list[Path]:
    """Trajectory of t -> subject(t) x over the configured t-grid."""
    cfg.ensure_valid()
    x = cfg.input_vector()
    ts = cfg.t_values().tolist()
    track = min(cfg.N, 16)
    if cfg.subject == "S":
        T_op = cfg.power_operator()
        scratch = np.empty(cfg.N)
        rows = (
            (row_stats(y, scratch), y[:track])
            for y in (apply_S(t, x, T_op, cfg.quadrature_tol).coords for t in ts)
        )
    else:
        # T is lower triangular: coordinates 1..16 are those of its action on x_1..x_16
        perturbed = cfg.subject == "T"
        head = trajectory_kernel(TruncatedVector(x.coords[:track]), perturbed)(ts)
        rows = zip(support_summaries(x, ts, perturbed, mean=False), head)
    header = ["t", "norm_l1", "f_value", "max_coordinate", "max_index"]
    header += [f"coord_{j}" for j in range(1, track + 1)]
    lines = [",".join(header)]
    for t, ((norm, top, top_index, fval, *_), coords) in zip(ts, rows):
        cells = [_fmt(t), _fmt(norm), _fmt(fval), _fmt(top), str(top_index)]
        lines.append(",".join(cells + [_fmt(v) for v in coords.tolist()]))
    out = Path(cfg.out_dir)
    csv_path = out / "trajectory.csv"
    meta_path = out / "metadata.json"
    _write(csv_path, "\n".join(lines) + "\n")
    _write(meta_path, _metadata(cfg))
    return [csv_path, meta_path]


def _build_curve(cfg: ExperimentConfig) -> CesaroCurve:
    rs = cfg.r_values()
    if cfg.mode == "opnorm":
        return curve_cesaro_M_opnorm(rs, cfg.N)
    x = cfg.input_vector()
    if cfg.subject == "M":
        return curve_cesaro_M(rs, x)
    if cfg.subject == "T":
        return curve_cesaro_T(rs, x)
    return curve_cesaro_S(rs, x, cfg.power_operator(), cfg.quadrature_tol)


def cmd_cesaro(cfg: ExperimentConfig) -> list[Path]:
    """Cesaro-mean curve over the configured r-grid plus a convergence verdict."""
    cfg.ensure_valid("cesaro")
    curve = _build_curve(cfg)
    if len(curve) >= 4:
        window = max(2, len(curve) // 4)
        verdict = cauchy_convergence_test(curve, window=window, tol=cfg.convergence_tol)
    else:
        verdict = ConvergenceVerdict(
            "inconclusive", detail={"reason": "fewer than 4 grid points"}
        )
    out = Path(cfg.out_dir)
    paths = [out / "cesaro_curve.csv", out / "verdict.json", out / "metadata.json"]
    _write(paths[0], curve.to_csv())
    _write(paths[1], verdict.to_json())
    _write(paths[2], _metadata(cfg))
    return paths


def cmd_verify(cfg: ExperimentConfig) -> tuple[int, list[Path]]:
    """Full invariant suite at the configured truncation; exit 0 iff all pass."""
    cfg.ensure_valid()
    results = run_all(
        cfg.N,
        cfg.seed,
        quadrature_tol=cfg.quadrature_tol,
        convergence_tol=cfg.convergence_tol,
        inject_corruption=cfg.inject_corruption,
    )
    all_passed = all(r.passed for r in results)
    report = {
        "version": __version__,
        "config": cfg.to_dict(),
        "checks": [r.to_dict() for r in results],
        "all_passed": all_passed,
    }
    out = Path(cfg.out_dir)
    path = out / "verify_report.json"
    _write(path, json.dumps(report, indent=2, sort_keys=True))
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.name}: measured {r.measured:.3e} vs bound {r.bound:.3e}")
    return (EXIT_OK if all_passed else EXIT_INVARIANT), [path]


def cmd_matrix(cfg: ExperimentConfig) -> list[Path]:
    """Export the perturbed-generator matrix in sparse triples and dense JSON."""
    cfg.ensure_valid()
    if cfg.N > 10_000:
        raise ConfigValidationError(
            [f"matrix export capped at N = 10000, got {cfg.N}"]
        )
    op = matrix_B(cfg.N)
    out = Path(cfg.out_dir)
    paths = [out / "matrix_B.txt", out / "metadata.json"]
    out.mkdir(parents=True, exist_ok=True)
    with paths[0].open("w") as fh:
        to_sparse_triples(op, fh)
    note = None
    if cfg.N <= 64:
        dense_path = out / "matrix_B_dense.json"
        _write(dense_path, matrix_json(op))
        paths.insert(1, dense_path)
    else:
        note = f"dense JSON skipped: N = {cfg.N} > 64 (sparse triples only)"
    meta = {"config": cfg.to_dict(), "version": __version__}
    if note:
        meta["note"] = note
    _write(paths[-1], json.dumps(meta, indent=2, sort_keys=True))
    return paths


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigValidationError([f"config file is not valid JSON: {exc}"])
        cfg = ExperimentConfig.from_dict(data)
    else:
        cfg = ExperimentConfig()
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.subject is not None:
        overrides["subject"] = args.subject
    if args.dim is not None:
        overrides["N"] = args.dim
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = replace(cfg, **overrides)
    problems = cfg.validate(args.command)
    if problems:
        raise ConfigValidationError(problems)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodiclab",
        description="Cesaro-mean ergodicity laboratory for truncated l1 semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, txt in (
        ("simulate", "sample t -> T(t)x trajectories to CSV"),
        ("cesaro", "sample Cesaro-mean curves and run the convergence verdict"),
        ("verify", "run the full invariant suite; exit 0 iff everything passes"),
        ("matrix", "export the perturbed-generator matrix"),
    ):
        p = sub.add_parser(name, help=txt)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--subject", choices=_SUBJECTS, help="semigroup to study")
        p.add_argument("--dim", type=int, help="truncation dimension N")
        p.add_argument("--seed", type=int, help="seed for randomized checks")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "simulate":
            cmd_simulate(cfg)
        elif args.command == "cesaro":
            cmd_cesaro(cfg)
        elif args.command == "matrix":
            cmd_matrix(cfg)
        else:
            code, _ = cmd_verify(cfg)
            return code
    except ConfigValidationError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
