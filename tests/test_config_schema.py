"""The config schema under fuzzing: every config either runs or exits 2 naming a field.

Mutations are drawn from the schema table of ``ergodiclab.cli`` for every key: values
just inside and just outside each rule, NaN, +-inf, huge, negative and zero values, a
value of another JSON type, the key dropped, and an unknown key beside it.  As in
QuickCheck (Claessen & Hughes, ICFP 2000) the draws are seeded, so a failure
reproduces.  Each mutation runs in-process through ``main`` at N <= 1024 on the
commands that read the key, and is validated for those that do not; values just inside
a size cap are checked through ``validate`` alone.
"""

import contextlib
import io
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

from ergodiclab.cli import (
    _SCHEMA,
    _TYPE_NAMES,
    COMMANDS,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigValidationError,
    ExperimentConfig,
    main,
)

SUBJECTS = ("M", "T", "S")
TIME_CAP = 10.0  # seconds for one run of main
NAMES = {key.path.split(".")[0] for key in _SCHEMA}
TINY = sys.float_info.min * sys.float_info.epsilon  # the smallest positive float


def base(subject):
    """A config that every command runs in milliseconds: N = 16, r_max = 0.5 and t up to 2."""
    return {
        "subject": subject, "N": 16, "vector": [[1, 0.5], [3, -0.25]],
        "r_grid": {"start": 0.25, "factor": 2.0, "count": 2},
        "t_grid": {"start": 0.0, "stop": 2.0, "count": 3},
        "s_matrix": {"kind": "timestep", "t": 1.0}, "horizon": 16, "out_dir": "out",
    }


DROP, UNKNOWN = object(), object()


def mutate(data, path, value):
    """Set ``path`` of ``data`` to ``value``, drop it, or give it an unknown sibling key; return ``data``."""
    section, _, name = path.rpartition(".")
    held = data.setdefault(section, {}) if section else data
    if path == "s_matrix.path":
        held["kind"] = "file"  # the path is read for this kind alone
    if value is DROP:
        held.pop(name, None)
    elif value is UNKNOWN:
        held[name + "_x"] = 1
    else:
        held[name] = value
    return data


def mutated(subject, path, value):
    return mutate(base(subject), path, value)


# values of each JSON type: extremes of its range, and values of some other type
EXTREMES = {
    bool: [True, False],
    int: [0, -1, 10**400],
    float: [float("nan"), float("inf"), -float("inf"), 1e308, -1.0, 0.0, TINY],
    str: ["", "bogus"],
    list: [[], [[1, 1e308], [2, 1e308]], [[1, sys.float_info.max]], [[1, 1.0], [1, 2.0]]],
}
WRONG_TYPE = {
    bool: ["false", 0, None],
    int: [64.5, "7", True, None],
    float: ["1.0", True, None],
    str: [5, None, True],
    list: [5, "v", None, {"1": 1.0}, [[1]], [[True, 1.0]], [[1, "2"]]],
}
# values just inside and just outside the rules on each key, at base N = 16
EDGES = {
    "subject": ["M", "T", "S", "X"],
    "N": [1, 0, 256, 257],
    "r_grid.start": [8.0, 8.000000000000002, 1e-307, 8e-308],  # r_max <= N; N / start finite
    "r_grid.factor": [1.0, 1.0000000000000002, 64.0, 64.00000000000001],
    "r_grid.count": [1, 7, 8],
    "t_grid.start": [2.0, 2.0000000000000004, -TINY],
    "t_grid.stop": [0.0, -TINY, 1e4, 10000.000000000002],  # subject S caps t at 1e4
    "t_grid.count": [1],
    "vector": [[[16, 1.0]], [[17, 1.0]], [[0, 1.0]]],
    "tolerances.quadrature_tol": [1e-13, 9.9e-14],  # the floor of verify
    "tolerances.convergence_tol": [],
    "out_dir": ["out", "sub/dir"],
    "seed": [],
    "mode": ["vector", "opnorm"],
    "s_matrix.kind": ["identity", "timestep", "file"],
    "s_matrix.t": [],
    "s_matrix.path": ["W.txt", "nan.txt", "missing.txt"],
    "horizon": [1, 4096, 4097],
    "inject_corruption": [],
}


def values(key):
    return EDGES[key.path] + EXTREMES[key.type] + WRONG_TYPE[key.type] + [DROP, UNKNOWN]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Run in tmp_path, which holds a valid and a NaN matrix file for s_matrix.path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "W.txt").write_text("".join(f"{k} {k} 0.5\n" for k in range(1, 17)))
    (tmp_path / "nan.txt").write_text("% dim 16\n1 1 nan\n")
    return tmp_path


def run(command, data, path="config.json"):
    """(exit code, stderr) of main on the JSON config ``data``, within the time cap."""
    with open(path, "w") as fh:
        json.dump(data, fh)
    err = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", path])
    assert time.monotonic() - start < TIME_CAP, (command, data)
    return code, err.getvalue()


def check_outcome(command, data, code, err):
    """Exit 0, 2 naming a field, 3 on an I/O error, or 1 only when verify is told to corrupt."""
    lines = err.splitlines()
    if code == EXIT_VALIDATION:
        assert lines and all(line.startswith("config error: ") for line in lines), err
        assert all(any(name in line for name in NAMES) for line in lines), err
    elif code == EXIT_IO:
        assert lines and all(line.startswith("i/o error: ") for line in lines), err
    else:
        corrupt = command == "verify" and data.get("inject_corruption") is True
        assert (code, err) == (EXIT_INVARIANT if corrupt else EXIT_OK, ""), (command, data, err)


def as_read(command, cfg):
    """The keys ``command`` reads of ``cfg``, with their values."""
    data = cfg.to_dict()
    read = [(key.path, data.get(key.path.split(".")[0])) for key in _SCHEMA if key.read_by(command, cfg)]
    return command, repr(read)


def test_every_mutation_runs_or_exits_2(workdir):
    ran = set()  # a command does not run again on a config it reads alike
    for subject in SUBJECTS:
        for key in _SCHEMA:
            for value in values(key):
                data = mutated(subject, key.path, value)
                try:
                    cfg = ExperimentConfig.from_dict(data)
                except ConfigValidationError:  # a format error, whoever reads the key
                    if subject == "M":
                        assert run("matrix", data)[0] == EXIT_VALIDATION
                    continue
                for command in COMMANDS:
                    if not key.read_by(command, cfg):
                        # a rule binds only where its key is read; the rest of base() is valid
                        assert cfg.validate(command) == [], (command, key.path, value)
                    elif as_read(command, cfg) not in ran:
                        ran.add(as_read(command, cfg))
                        code, err = run(command, data)
                        check_outcome(command, data, code, err)
                        if cfg.validate(command):
                            assert code == EXIT_VALIDATION, (command, data)
                        elif code == EXIT_VALIDATION:  # a matrix file, and the S series' tolerance, at run time
                            assert err.startswith(("config error: s_matrix.path: ", "config error: vector: ")), err


def test_seeded_pairs_of_mutations(workdir):
    rng = random.Random(20001)
    for _ in range(40):
        data = base(rng.choice(SUBJECTS))
        for key in rng.sample(_SCHEMA, 2):
            mutate(data, key.path, rng.choice(values(key)))
        command = rng.choice(COMMANDS)
        check_outcome(command, data, *run(command, data))


@pytest.mark.parametrize("subject", SUBJECTS)
@pytest.mark.parametrize("command", COMMANDS)
def test_small_case_runs(workdir, command, subject):
    assert run(command, base(subject)) == (EXIT_OK, "")


# --- size caps, through validate alone ---

CAPS = [
    # command, subject, key, just inside, just outside
    ("simulate", "M", "N", 2**26, 2**26 + 1),
    ("cesaro", "T", "N", 2**26, 2**26 + 1),
    ("verify", "M", "N", 2**22, 2**22 + 1),
    ("matrix", "M", "N", 10_000, 10_001),
    ("simulate", "S", "N", 2**16, 2**16 + 1),
    ("cesaro", "M", "r_grid.count", 100_000, 100_001),
    ("simulate", "M", "t_grid.count", 100_000, 100_001),
    ("simulate", "S", "t_grid.stop", 1e4, 10000.000000000002),
    ("simulate", "S", "horizon", 4096, 4097),
]


@pytest.mark.parametrize("command, subject, path, inside, outside", CAPS)
def test_size_caps_bind_just_outside(command, subject, path, inside, outside):
    def config(value):  # r_max stays below N at 100 000 grid points
        data = base(subject) | {"r_grid": {"start": 1e-6, "factor": 1.0000001, "count": 2}}
        return ExperimentConfig.from_dict(mutate(data, path, value))

    assert config(inside).validate(command) == []
    problems = config(outside).validate(command)
    assert problems and any(path.split(".")[0] in p for p in problems), problems


# --- the readers table: a rule binds a command that reads its key, and no other ---

OUT_OF_RANGE = {
    "subject": "X", "N": 0, "r_grid.start": -1.0, "r_grid.factor": 0.5, "r_grid.count": 0,
    "t_grid.start": -1.0, "t_grid.stop": -1.0, "t_grid.count": 0, "vector": [[17, 1.0]],
    "tolerances.quadrature_tol": 0.0, "tolerances.convergence_tol": 0.0, "seed": -1,
    "mode": "bogus", "s_matrix.kind": "bogus", "s_matrix.t": -1.0, "s_matrix.path": "nan.txt",
    "horizon": 0,
}
# cheapest first
CANDIDATES = [(command, subject, mode) for command in ("matrix", "simulate", "cesaro", "verify")
              for subject in SUBJECTS for mode in ("vector", "opnorm")]


def test_every_key_without_a_rule_is_listed():
    assert {key.path for key in _SCHEMA} - set(OUT_OF_RANGE) == {"out_dir", "inject_corruption"}


@pytest.mark.parametrize("path", OUT_OF_RANGE)
def test_rule_binds_the_readers_of_its_key(workdir, path):
    key = next(key for key in _SCHEMA if key.path == path)
    reading, other = [], []
    for command, subject, mode in CANDIDATES:
        data = mutate(base(subject) | {"mode": mode}, path, OUT_OF_RANGE[path])
        if ExperimentConfig.from_dict(base(subject) | {"mode": mode}).validate(command):
            continue  # opnorm mode binds cesaro on M alone
        (reading if key.read_by(command, ExperimentConfig.from_dict(data)) else other).append((command, data))
    command, data = reading[0]
    code, err = run(command, data)
    assert code == EXIT_VALIDATION and f"config error: {path.split('.')[0]}" in err, err
    if path != "N":  # every command reads N
        assert run(*other[0]) == (EXIT_OK, "")


# --- configs a command that never reads the field used to reject ---

@pytest.mark.parametrize(
    "argv, data",
    [
        (["verify", "--dim", "64"], {"t_grid": {"start": 0, "stop": 1, "count": 10**12}}),
        (["matrix", "--dim", "64"], {"t_grid": {"start": 0, "stop": 1, "count": 10**12}}),
        (["verify", "--dim", "64"], {"horizon": 5000}),
        (["verify", "--dim", "64"], {"vector": [[1000, 1.0]]}),
        (["verify", "--dim", "64"], {"s_matrix": {"kind": "bogus"}}),
        (["verify", "--dim", "64"], {"subject": "S", "t_grid": {"start": 0, "stop": 2e4, "count": 3}}),
        (["verify", "--subject", "S", "--dim", "1024"], {}),
        (["matrix", "--subject", "S", "--dim", "1024"], {}),
        (["simulate", "--subject", "T"], {"s_matrix": {"kind": "timestep", "t": -1.0}}),
    ],
)
def test_fields_a_command_never_reads_do_not_bind_it(workdir, argv, data):
    with open("config.json", "w") as fh:
        json.dump(data, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", "config.json", "--out", "out"]) == EXIT_OK


def test_file_kind_without_a_path_names_the_path(workdir):
    # it read the path "" and exited 3 with "Is a directory: '.'"
    data = {"subject": "S", "N": 16, "s_matrix": {"kind": "file"}}
    for command, config in (("simulate", data), ("cesaro", base("S") | data)):
        assert run(command, config) == (EXIT_VALIDATION, "config error: s_matrix.path must name a matrix file\n")
    assert run("simulate", data | {"subject": "T"}) == (EXIT_OK, "")  # no subject but S reads s_matrix


# --- the README's config table ---

def readme_rows():
    """(keys, types, defaults, read by) of each row of the README's config table; k keys have k types and defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Key | Type | Default | Rule | Read by |\n")[1].split("\n\n")[0]
    for row in table.splitlines()[1:]:
        keys_cell, type_cell, default_cell, _rule, read_by = (cell.strip() for cell in row.strip("|").split(" | "))
        keys = re.findall(r"`([^`]+)`", keys_cell)
        # `r_grid.start`, `.factor`, `.count` is shorthand for r_grid.factor and r_grid.count
        keys = [keys[0].rpartition(".")[0] + key if key.startswith(".") else key for key in keys]
        split = (lambda cell: cell.split(", ")) if len(keys) > 1 else (lambda cell: [cell])
        yield keys, split(type_cell), split(default_cell), read_by


def test_readme_config_table_lists_the_schema_keys():
    listed = [key for keys, *_ in readme_rows() for key in keys]
    assert sorted(listed) == sorted(key.path for key in _SCHEMA)


def read_by_cell(key):
    """The Read-by cell of ``key``: its readers, those that read it under a condition after the rest."""
    if key.readers == dict.fromkeys(COMMANDS):
        return "every command"
    conditions = {None: "", ("subject", "S"): " on S", ("mode", "vector"): " in vector mode"}
    groups = {}
    for command, when in key.readers.items():
        groups.setdefault(when, []).append(f"`{command}`")
    return "; ".join(", ".join(commands) + conditions[when] for when, commands in groups.items())


def test_readme_config_table_holds_the_schema_types_defaults_and_readers():
    defaults = {}
    for cfg in (ExperimentConfig(), ExperimentConfig.from_dict({"s_matrix": {"kind": "file"}})):  # and s_matrix.path
        for section, value in cfg.to_dict().items():
            for name, v in value.items() if isinstance(value, dict) else [("", value)]:
                defaults.setdefault(f"{section}.{name}" if name else section, v)
    schema = {key.path: key for key in _SCHEMA}
    for keys, types, values, read_by in readme_rows():
        for path, type_name, value in zip(keys, types, values, strict=True):
            key = schema[path]
            assert type_name == _TYPE_NAMES[key.type].partition(" ")[2], path
            assert json.loads(value.strip("`")) == defaults[path] and type(defaults[path]) is key.type, path
            assert read_by == read_by_cell(key), path
