"""Reproducible experiment runner.

Subcommands build the configured operators, run the diagnostic suites,
and emit CSV/JSON artifacts suitable for plotting.  All numeric CSV
cells use 17-significant-digit scientific notation and all JSON is
sorted, so identical configs and seeds produce byte-identical outputs.

Exit codes: 0 success, 1 invariant failure, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cesaro import (
    CSV_BLOCK_ROWS,
    CesaroCurve,
    Support,
    curve_cesaro_M,
    curve_cesaro_M_opnorm,
    curve_cesaro_S,
    curve_cesaro_T,
    geometric_grid,
    support_summaries,
)
from .csvtext import csv_lines
from .diagnostics import ConvergenceVerdict, cauchy_convergence_test
from .exp_semigroup import PowerBoundedOperator, series_target, stream_S
from .semigroups import (
    StructuredOperator,
    from_sparse_triples,
    grid_kernel,
    matrix_B,
    matrix_json,
    matrix_T,
    to_sparse_triples,
)
from .space import TruncatedVector, norm_l1, row_stats

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

_SUBJECTS = ("M", "T", "S")
_MODES = ("vector", "opnorm")
# each s_matrix kind, with the key of its parameter and that key's default
_S_KINDS = {"identity": None, "timestep": ("s_matrix.t", 1.0), "file": ("s_matrix.path", "")}

# size budget, fixed so that what runs does not depend on the machine.  M/T cesaro and simulate
# read x by its support alone, with arrays the size of the support per block of grid points, so N
# costs them no memory; below about 9.4e7, s(s - 1) and (a - 1)c stay exact doubles.  verify forms
# dense N-vectors, and the matrix export writes N(N+1)/2 triples.  A CSV is written a block of grid
# points at a time; a curve keeps a few numbers per grid point, a trajectory none.
_N_CAPS = {"simulate": 2**26, "cesaro": 2**26, "verify": 2**22, "matrix": 10_000}
_GRID_COUNT_CAP = 100_000
# subject S holds a few N-vectors, sweep blocks of exp_semigroup.BLOCK_ELEMENTS and its operator; a matrix
# file is parsed from its lines, about 150 bytes per entry: 80 MB at 8 entries per column here, 5 GB at 2^22
_S_DIM_CAP = 2**16
# the series for S(t) runs about t + 40 sqrt(t) matrix-vector products
_S_T_CAP = 1e4
# the power-bound scan applies the adjoint up to horizon times, O(nnz) each
_HORIZON_CAP = 4096
# verify's S checks bound rounding errors near 1e-14 by a few times quadrature_tol
_VERIFY_QUADRATURE_TOL_MIN = 1e-13

_COMMAND_HELP = {
    "simulate": "sample t -> T(t)x trajectories to CSV",
    "cesaro": "sample Cesaro-mean curves and run the convergence verdict",
    "verify": "run the full invariant suite; exit 0 iff everything passes",
    "matrix": "export the perturbed-generator matrix",
}
COMMANDS = tuple(_COMMAND_HELP)
# the options of every command: the config field each sets, its value's name in the usage, its type, its help
_OPTIONS = {
    "--config": ("config", "P", str, "path to a JSON config file"),
    "--out": ("out_dir", "D", str, "output directory (overrides config)"),
    "--subject": ("subject", "|".join(_SUBJECTS), _SUBJECTS, "semigroup to study"),
    "--dim": ("N", "INT", int, "truncation dimension N"),
    "--seed": ("seed", "INT", int, "seed for randomized checks"),
}
_USAGE = "usage: ergodiclab COMMAND " + " ".join(f"[{name} {meta}]" for name, (_, meta, *_) in _OPTIONS.items())
# the readers of a key: each command that reads it, with None or the (field, value) it reads it under
_EVERY = dict.fromkeys(COMMANDS)
_ON_S = dict.fromkeys(("simulate", "cesaro"), ("subject", "S"))
_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "a list of [index, value] pairs",
}


class ConfigValidationError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class _Key(NamedTuple):
    """One JSON key of a config: its path, its JSON type, its place in a tuple field, and its readers."""

    path: str
    type: type  # bool, int, float, str, or list for the vector's [index, value] pairs
    slot: int | None  # in the tuple field named by the key's section
    readers: dict

    @property
    def field(self) -> str:
        """The ExperimentConfig field that holds this key."""
        return self.path.split(".")[0] if self.slot is not None else self.path.rpartition(".")[2]

    def read_by(self, command: str, cfg: "ExperimentConfig") -> bool:
        """Whether ``command`` reads this key of ``cfg``."""
        if command not in self.readers:
            return False
        when = self.readers[command]
        return when is None or getattr(cfg, when[0]) == when[1]

    def held_by(self, kind: str | None) -> bool:
        """Whether a config whose s_matrix has ``kind`` holds this key; with None, whatever its kind.

        s_matrix holds its kind, then the parameter of that kind alone.
        """
        param = _S_KINDS.get(kind)
        return self.field != "s_matrix" or self.slot == 0 or bool(param) and self.path == param[0]


_SCHEMA = (
    _Key("subject", str, None, dict.fromkeys(("simulate", "cesaro"))),
    _Key("N", int, None, _EVERY),
    _Key("r_grid.start", float, 0, {"cesaro": None}),
    _Key("r_grid.factor", float, 1, {"cesaro": None}),
    _Key("r_grid.count", int, 2, {"cesaro": None}),
    _Key("t_grid.start", float, 0, {"simulate": None}),
    _Key("t_grid.stop", float, 1, {"simulate": None}),
    _Key("t_grid.count", int, 2, {"simulate": None}),
    _Key("vector", list, None, {"simulate": None, "cesaro": ("mode", "vector")}),
    _Key("tolerances.quadrature_tol", float, None, {"verify": None, **_ON_S}),
    _Key("tolerances.convergence_tol", float, None, {"cesaro": None, "verify": None}),
    _Key("out_dir", str, None, _EVERY),
    _Key("seed", int, None, {"verify": None}),
    _Key("mode", str, None, {"cesaro": None}),
    _Key("s_matrix.kind", str, 0, _ON_S),
    _Key("s_matrix.t", float, 1, _ON_S),
    _Key("s_matrix.path", str, 1, _ON_S),
    _Key("horizon", int, None, _ON_S),
    _Key("inject_corruption", bool, None, {"verify": None}),
)
_KEYS = {key.path: key for key in _SCHEMA}
_SECTIONS = {key.path.rpartition(".")[0] for key in _SCHEMA} - {""}


def _parse(kind: type, value):
    """``value`` as JSON type ``kind``, or None: no boolean is a number, and no fraction an integer."""
    accepted = (int, float) if kind in (int, float) else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        return None
    if kind is list:
        pairs = [(_parse(int, p[0]), _parse(float, p[1])) if isinstance(p, list) and len(p) == 2 else (None,)
                 for p in value]
        return None if any(None in pair for pair in pairs) else tuple(pairs)
    if kind is int and isinstance(value, float) and not value.is_integer():
        return None
    try:
        return kind(value)
    except OverflowError:  # an integer beyond every float
        return None


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
        """The config as JSON: every key of the schema that it holds."""
        d = {}
        for key in _SCHEMA:
            if key.held_by(self.s_matrix[0]):
                value = getattr(self, key.field) if key.slot is None else getattr(self, key.field)[key.slot]
                section, _, name = key.path.rpartition(".")
                (d.setdefault(section, {}) if section else d)[name] = (
                    [[int(i), float(v)] for i, v in value] if key.type is list else key.type(value)
                )
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config from parsed JSON; every unknown or missing key and value of another type is named."""
        if not isinstance(data, dict):
            raise ConfigValidationError(
                [f"config must be a JSON object, got {type(data).__name__}"]
            )
        flat, problems, given, missing = {}, [], {}, {}
        for name, value in data.items():
            if name not in _SECTIONS:
                flat[name] = value
            elif isinstance(value, dict):
                flat.update((f"{name}.{key}", v) for key, v in value.items())
            else:
                problems.append(f"{name} must be a JSON object, got {type(value).__name__}")
        # a dotted name at the top level is no key
        unknown = [path for path in flat if path not in _KEYS or "." in path and path in data]
        problems += [f"{path} is not a known key" for path in unknown]
        for key in _SCHEMA:
            section, _, name = key.path.rpartition(".")
            if key.path in flat:
                given[key.path] = _parse(key.type, flat[key.path])
                if given[key.path] is None:
                    problems.append(f"{key.path} must be {_TYPE_NAMES[key.type]}, got {flat[key.path]!r}")
            elif isinstance(data.get(section), dict) and key.slot is not None and key.held_by(None):
                missing.setdefault(section, []).append(name)  # a tuple needs every part
        problems += [f"{section} is missing {', '.join(names)}" for section, names in missing.items()]
        if problems:
            raise ConfigValidationError(problems)
        kind = given.get("s_matrix.kind")
        if _S_KINDS.get(kind):
            given.setdefault(*_S_KINDS[kind])
        kw = {}
        for key in _SCHEMA:
            if key.path in given and key.held_by(kind):
                value = given[key.path]
                kw[key.field] = value if key.slot is None else kw.get(key.field, ()) + (value,)
        return replace(cls(), **kw)

    def validate(self, command: str) -> list[str]:
        """The rules this config breaks for ``command``; each binds only where its key is read."""
        return [message for path, message in self._broken(command) if _KEYS[path].read_by(command, self)]

    def _broken(self, command: str):
        """(key path, message) for each broken rule, whoever reads the key; ``command`` adds its own budget."""
        if self.subject not in _SUBJECTS:
            yield "subject", f"subject must be one of {_SUBJECTS}, got {self.subject!r}"
        elif self.subject == "S" and self.N > _S_DIM_CAP:
            yield "subject", f"subject S needs N <= {_S_DIM_CAP} (the size budget), got {self.N}"
        cap = _N_CAPS[command]
        if self.N < 1:
            yield "N", f"N must be >= 1, got {self.N}"
        elif self.N > cap:
            yield "N", f"N must be <= {cap} for {command} (the size budget), got {self.N}"
        for grid, ends in (("r_grid", "start and factor"), ("t_grid", "start and stop")):
            first, second, count = getattr(self, grid)
            if count < 1:
                yield f"{grid}.count", f"{grid} count must be >= 1"
            elif count > _GRID_COUNT_CAP:
                yield f"{grid}.count", (
                    f"{grid}.count must be <= {_GRID_COUNT_CAP} (the size budget), got {count}"
                )
            if not (math.isfinite(first) and math.isfinite(second)):
                yield f"{grid}.start", f"{grid} {ends} must be finite"
        start, factor, count = self.r_grid
        ordered = 0 < start < math.inf and 1 < factor < math.inf
        if math.isfinite(start) and math.isfinite(factor) and not ordered:
            yield "r_grid.start", "r_grid needs start > 0 and factor > 1"
        elif ordered and self.N <= cap and not math.isfinite(self.N / start):  # kernels scale h by h/r
            limit = self.N / sys.float_info.max
            yield "r_grid.start", f"r_grid.start must be above N / DBL_MAX = {limit:.3g}, got {start!r}"
        # the largest r bounds T's truncation certificate, and it is S's only cap on r
        if ordered and 1 <= self.N <= cap and count >= 1:
            try:
                r_max = float(geometric_grid(start, factor, count, last=True)[0])
            except OverflowError:  # count - 1 has no float
                r_max = math.inf
            if not math.isfinite(r_max):
                yield "r_grid.count", "r_grid: largest r = start * factor^(count - 1) overflows; shrink the r_grid"
            elif self.subject != "M" and r_max / (2.0 * self.N) > 0.5:
                yield "r_grid.count", (
                    f"r_grid: largest r = {r_max:g} gives a vacuous truncation certificate "
                    f"(r/(2N) = {r_max / (2 * self.N):.3g} > 0.5); "
                    f"shrink the r_grid or raise N to at least {int(r_max)}"
                )
        t0, t1, _count = self.t_grid
        if math.isfinite(t0) and math.isfinite(t1) and not 0 <= t0 <= t1:
            yield "t_grid.start", "t_grid needs 0 <= start <= stop"
        if self.subject == "S" and 0 <= t0 <= t1 and _S_T_CAP < t1 < math.inf:
            yield "t_grid.stop", (
                f"t_grid.stop must be <= {_S_T_CAP:g} for subject S "
                f"(its series needs about t terms), got {t1:g}"
            )
        if not self.vector:
            yield "vector", "input vector must have at least one entry"
        for i, _v in self.vector:
            if not 1 <= i <= self.N:
                yield "vector", f"vector index {i} outside 1..{self.N}"
        if len({i for i, _v in self.vector}) < len(self.vector):
            yield "vector", "vector lists an index more than once"
        # summed in Python floats, an overflow is inf and no numpy warning
        if not math.isfinite(sum(abs(v) for _i, v in self.vector)):
            yield "vector", "input vector entries and their l1 norm must be finite"
        for name in ("quadrature_tol", "convergence_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                yield f"tolerances.{name}", f"tolerances.{name} must be finite and > 0, got {value!r}"
        if command == "verify" and 0 < self.quadrature_tol < _VERIFY_QUADRATURE_TOL_MIN:
            yield "tolerances.quadrature_tol", (
                f"tolerances.quadrature_tol must be >= {_VERIFY_QUADRATURE_TOL_MIN:g} for verify, "
                f"got {self.quadrature_tol!r}"
            )
        if self.seed < 0:
            yield "seed", f"seed must be >= 0, got {self.seed}"
        if self.mode not in _MODES:
            yield "mode", f"mode must be one of {_MODES}, got {self.mode!r}"
        if self.mode == "opnorm" and self.subject != "M":
            yield "mode", "opnorm mode is only available for subject M"
        kind = self.s_matrix[0]
        if kind not in _S_KINDS:
            yield "s_matrix.kind", f"s_matrix kind must be one of {tuple(_S_KINDS)}"
        elif kind == "timestep" and not (math.isfinite(self.s_matrix[1]) and self.s_matrix[1] >= 0):
            yield "s_matrix.t", f"s_matrix.t must be finite and >= 0, got {self.s_matrix[1]!r}"
        elif kind == "file" and not self.s_matrix[1]:
            yield "s_matrix.path", "s_matrix.path must name a matrix file"
        if self.horizon < 1:
            yield "horizon", "horizon must be >= 1"
        elif self.horizon > _HORIZON_CAP:
            yield "horizon", f"horizon must be <= {_HORIZON_CAP} (the size budget), got {self.horizon}"

    def ensure_valid(self, command: str):
        problems = self.validate(command)
        if problems:
            raise ConfigValidationError(problems)

    def r_values(self) -> np.ndarray:
        return geometric_grid(*self.r_grid)

    def t_values(self) -> np.ndarray:
        t0, t1, count = self.t_grid
        return np.linspace(t0, t1, count)

    def input_vector(self, n: int | None = None) -> TruncatedVector:
        """x as a dense vector, or its first ``n`` coordinates; a listed +-0.0 keeps its sign."""
        coords = np.zeros(self.N if n is None else n)
        for i, v in self.vector:
            if i <= coords.size:
                coords[i - 1] = v
        return TruncatedVector(coords)

    def support(self) -> Support:
        """x for the M/T kernels: its nonzero entries by increasing index; a listed +-0.0 is dropped."""
        entries = sorted((i, v) for i, v in self.vector if v != 0.0)
        return Support(self.N, np.array([i for i, _ in entries], dtype=float), np.array([v for _, v in entries]))

    def power_operator(self) -> PowerBoundedOperator:
        kind = self.s_matrix[0]
        if kind == "identity":
            return PowerBoundedOperator.from_matrix(StructuredOperator(np.ones(self.N)))
        if kind == "timestep":
            return PowerBoundedOperator.from_matrix(matrix_T(float(self.s_matrix[1]), self.N), horizon=self.horizon)
        try:
            op = PowerBoundedOperator.from_matrix(
                from_sparse_triples(Path(self.s_matrix[1]).read_text(), dim=self.N), horizon=self.horizon
            )
        except ValueError as exc:
            raise ConfigValidationError([f"s_matrix.path: {exc}"]) from None
        if not math.isfinite(op.power_bound):
            raise ConfigValidationError([
                f"s_matrix.path: no power T^k with ||T^k||_1 <= 1 up to horizon {self.horizon}, "
                "so no power bound is certified"
            ])
        return op


def _metadata(cfg: ExperimentConfig, **extra) -> str:
    return json.dumps({"config": cfg.to_dict(), "version": __version__, **extra}, indent=2, sort_keys=True)


@contextmanager
def _published(path: Path):
    """A text file to write ``path`` through: a sibling that replaces ``path`` only once the block ends without
    an error, so that an error part way leaves no file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f".{path.name}.part")
    try:
        with part.open("w") as fh:
            yield fh
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def _write(path: Path, text: str):
    with _published(path) as fh:
        fh.write(text)


def _series_operator(cfg: ExperimentConfig, x: TruncatedVector, r: float) -> PowerBoundedOperator:
    """S's T, once ``series_target`` accepts its series' Poisson window target at the smallest r."""
    T = cfg.power_operator()
    try:
        series_target(cfg.quadrature_tol, T.power_bound, norm_l1(x), r)
    except ValueError as err:
        raise ConfigValidationError([f"vector: {err}"]) from None
    return T


def _regrouped(blocks, rows: int):
    """The rows of the arrays ``blocks`` in order, as arrays of ``rows`` rows but the last."""
    held = []
    for block in blocks:
        held = np.concatenate((held, block)) if len(held) else block
        cut = len(held) - len(held) % rows
        yield from (held[i : i + rows] for i in range(0, cut, rows))
        held = held[cut:]
    if len(held):
        yield held


def cmd_simulate(cfg: ExperimentConfig) -> list[Path]:
    """Trajectory of t -> subject(t) x over the configured t-grid, written CSV_BLOCK_ROWS points at a time."""
    cfg.ensure_valid("simulate")
    ts = cfg.t_values()
    track = min(cfg.N, 16)
    # blocks of a row per t: norm, largest |coordinate|, its index, f, then (S alone) coordinates 1..track
    if cfg.subject == "S":
        x, head = cfg.input_vector(), None
        T = _series_operator(cfg, x, 1.0)
        blocks = (np.column_stack((row_stats(y), y[:, :track])) for y in stream_S(ts, x, T, cfg.quadrature_tol))
    else:
        # T is lower triangular: coordinates 1..16 are those of its action on x_1..x_16
        perturbed = cfg.subject == "T"
        head = grid_kernel(cfg.input_vector(track), perturbed, mean=False)
        blocks = support_summaries(cfg.support(), ts, perturbed, mean=False)
    header = ["t", "norm_l1", "f_value", "max_coordinate", "max_index"]
    header += [f"coord_{j}" for j in range(1, track + 1)]
    paths = [Path(cfg.out_dir) / "trajectory.csv", Path(cfg.out_dir) / "metadata.json"]
    with _published(paths[0]) as fh:
        fh.write(",".join(header) + "\n")
        for k, block in enumerate(_regrouped(blocks, CSV_BLOCK_ROWS)):
            t = ts[k * CSV_BLOCK_ROWS : k * CSV_BLOCK_ROWS + len(block)]
            norm, top, index, fval = block[:, :4].T
            coords = block[:, 4:] if head is None else head(t)
            fh.write(csv_lines([t, norm, fval, top, index.astype(np.int64), *coords.T]))
    _write(paths[1], _metadata(cfg))
    return paths


def _build_curve(cfg: ExperimentConfig) -> CesaroCurve:
    rs = cfg.r_values()
    if cfg.mode == "opnorm":
        return curve_cesaro_M_opnorm(rs, cfg.N)
    if cfg.subject == "M":
        return curve_cesaro_M(rs, cfg.support())
    if cfg.subject == "T":
        return curve_cesaro_T(rs, cfg.support())
    x = cfg.input_vector()
    return curve_cesaro_S(rs, x, _series_operator(cfg, x, float(rs.min())), cfg.quadrature_tol)


def cmd_cesaro(cfg: ExperimentConfig) -> list[Path]:
    """Cesaro-mean curve over the configured r-grid plus a convergence verdict."""
    cfg.ensure_valid("cesaro")
    curve = _build_curve(cfg)
    if len(curve) >= 4:
        window = max(2, len(curve) // 4)
        verdict = cauchy_convergence_test(curve, window=window, tol=cfg.convergence_tol)
    else:
        verdict = ConvergenceVerdict("inconclusive", detail={"reason": "fewer than 4 grid points"})
    out = Path(cfg.out_dir)
    paths = [out / "cesaro_curve.csv", out / "verdict.json", out / "metadata.json"]
    with _published(paths[0]) as fh:
        curve.to_csv(fh)
    _write(paths[1], verdict.to_json())
    _write(paths[2], _metadata(cfg))
    return paths


def cmd_verify(cfg: ExperimentConfig) -> tuple[int, list[Path]]:
    """Full invariant suite at the configured truncation; exit 0 iff all pass."""
    cfg.ensure_valid("verify")
    from .verification import run_all  # loaded by verify alone

    results = run_all(cfg.N, cfg.seed, quadrature_tol=cfg.quadrature_tol, convergence_tol=cfg.convergence_tol,
                      inject_corruption=cfg.inject_corruption)
    all_passed = all(r.passed for r in results)
    path = Path(cfg.out_dir) / "verify_report.json"
    _write(path, _metadata(cfg, checks=[r.to_dict() for r in results], all_passed=all_passed))
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.name}: measured {r.measured:.3e} vs bound {r.bound:.3e}")
    return (EXIT_OK if all_passed else EXIT_INVARIANT), [path]


def cmd_matrix(cfg: ExperimentConfig) -> list[Path]:
    """Export the perturbed-generator matrix in sparse triples and dense JSON."""
    cfg.ensure_valid("matrix")
    op = matrix_B(cfg.N)
    out = Path(cfg.out_dir)
    paths = [out / "matrix_B.txt", out / "metadata.json"]
    with _published(paths[0]) as fh:
        to_sparse_triples(op, fh)
    extra = {}
    if cfg.N <= 64:
        dense_path = out / "matrix_B_dense.json"
        _write(dense_path, matrix_json(op))
        paths.insert(1, dense_path)
    else:
        extra["note"] = f"dense JSON skipped: N = {cfg.N} > 64 (sparse triples only)"
    _write(paths[-1], _metadata(cfg, **extra))
    return paths


def _load_config(given: dict) -> ExperimentConfig:
    """The ``--config`` file's config, or the default one, with the other options of ``given`` set."""
    path = given.pop("config", None)
    try:
        data = json.loads(Path(path).read_text()) if path else {}
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"config file is not valid JSON: {exc}"])
    return replace(ExperimentConfig.from_dict(data), **given)


def _read_argv(argv: list[str]) -> tuple[str, dict]:
    """The command and the options by field of ``COMMAND [--opt value | --opt=value]...``; the last repeat wins."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"COMMAND must be one of {', '.join(COMMANDS)}, got {repr(argv[0]) if argv else 'nothing'}")
    given, rest = {}, iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        if name not in _OPTIONS:
            raise ValueError(f"unrecognized argument {arg!r}")
        value = value if eq else next(rest, None)
        if value is None or not eq and value.partition("=")[0] in _OPTIONS:
            raise ValueError(f"{name} expects a value")
        field, meta, kind, _ = _OPTIONS[name]
        try:
            given[field] = int(value) if kind is int else value
        except ValueError:
            raise ValueError(f"{name} expects {meta}, got {value!r}") from None
        if kind not in (int, str) and value not in kind:
            raise ValueError(f"{name} expects {meta}, got {value!r}")
    return argv[0], given


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        rows = [*_COMMAND_HELP.items(), *((f"{name} {meta}", text) for name, (_, meta, _, text) in _OPTIONS.items())]
        print(_USAGE, "\nCesaro-mean ergodicity laboratory for truncated l1 semigroups\n",
              *(f"  {name:<16} {text}" for name, text in rows),
              "\nEach option is --opt value or --opt=value; a repeated option keeps its last value.", sep="\n")
        return EXIT_OK
    try:
        command, given = _read_argv(argv)
    except ValueError as exc:
        print(f"{_USAGE}\nargument error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        cfg = _load_config(given)
        if command == "verify":
            return cmd_verify(cfg)[0]
        {"simulate": cmd_simulate, "cesaro": cmd_cesaro, "matrix": cmd_matrix}[command](cfg)
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
