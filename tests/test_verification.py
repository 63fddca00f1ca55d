"""Tests for the invariant suite: the registry at every N, its controls and its cost."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ergodiclab import coeffs, semigroups, space, verification
from ergodiclab.space import TruncatedVector
from rows import on_cpus


def make_ctx(N, seed=3):
    return verification._Context(N, seed, 1e-10, 1e-2, False)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(space, name)

    def counted(x, h):
        calls.append(h)
        return original(x, h)

    monkeypatch.setattr(space, name, counted)
    return calls


@pytest.mark.parametrize("N", [1, 2, 5, 1024])
def test_partial_sum_decomposition_exact_on_healthy_code(N):
    res = verification.check_space_partial_sum_decomposition(make_ctx(N))
    assert res.name == "space.partial_sum_decomposition"
    assert res.measured == 0.0
    assert res.bound == 0.0
    assert res.passed


def leaky_Q(x, h):
    # negative control: Q_h also keeps coordinate h+1
    coords = np.zeros(x.dim)
    coords[h - 1 : h + 1] = x.coords[h - 1 : h + 1]
    return TruncatedVector(coords)


def leaky_P(x, h):
    # negative control: P_h keeps h+1 coordinates
    coords = x.coords.copy()
    coords[h + 1 :] = 0.0
    return TruncatedVector(coords)


@pytest.mark.parametrize("name, broken", [("project_Q", leaky_Q), ("project_P", leaky_P)])
def test_partial_sum_decomposition_catches_broken_projection(monkeypatch, name, broken):
    monkeypatch.setattr(space, name, broken)
    res = verification.check_space_partial_sum_decomposition(make_ctx(64))
    assert res.passed is False
    assert res.measured > 0.0


def test_partial_sum_decomposition_projection_calls_are_linear(monkeypatch):
    # a deterministic guard against a loop over every j <= h (O(N^2) work)
    ctx = make_ctx(32768)
    q_calls = count_calls(monkeypatch, "project_Q")
    p_calls = count_calls(monkeypatch, "project_P")
    assert verification.check_space_partial_sum_decomposition(ctx).passed
    assert 0 < len(q_calls) <= 2 * len(ctx.index_sample)
    assert 0 < len(p_calls) <= 2 * len(ctx.index_sample)


@pytest.mark.parametrize("leading_zeros", [0, 1, 32767, 32768])
def test_expansion_uniqueness_bounded_for_any_x(monkeypatch, leading_zeros):
    # the cost must not depend on where x first has a nonzero coordinate
    N = 32768
    coords = np.zeros(N)
    coords[leading_zeros:] = 1.0
    monkeypatch.setattr(verification, "_random_vector", lambda rng, n: TruncatedVector(coords))
    ctx = make_ctx(N)
    p_calls = count_calls(monkeypatch, "project_P")
    res = verification.check_space_expansion_uniqueness(ctx)
    assert res.name == "space.expansion_uniqueness"
    assert res.measured == 0.0
    assert res.passed
    assert len(p_calls) <= 2 * len(ctx.index_sample)



@pytest.mark.parametrize("N", [2, 1024])
def test_spectrum_check_catches_an_entry_above_the_diagonal(monkeypatch, N):
    # negative control: with one entry above B's diagonal the diagonal is no longer the spectrum
    dense = semigroups.StructuredOperator.dense

    def broken(op):
        out = dense(op)
        if op.below is not None:  # B; A is diagonal
            out[0, -1] = 1e-6
        return out

    monkeypatch.setattr(semigroups.StructuredOperator, "dense", broken)
    result = verification.check_spectrum(make_ctx(N))
    assert result.name == "semigroups.spectrum_diagonal" and not result.passed
    assert result.measured == 1e-6


def sum_identities_over_every_pair():
    """check_coeffs_sum_identities' value from all 499 500 pairs at each t, with no block skipped."""
    n = np.arange(1, 1001, dtype=float)
    worst = 0.0
    for t in (0.0, 0.1, 1.0, 10.0, 100.0):
        cum, expn = np.cumsum(coeffs.b_row(t, 1000)), np.exp(-t / n)
        gap = np.abs(np.subtract.outer(cum, cum) - np.subtract.outer(expn, expn)) / n[:, None]
        worst = max(worst, float(gap[np.tri(1000, k=-1, dtype=bool)].max()))
    return worst


@pytest.mark.parametrize("at, t, scale", [(None, 0.0, 0.0), (2, 0.1, 1e-15), (40, 10.0, 1e-12), (700, 1.0, 1e-9),
                                          (999, 100.0, 1e-14), (1000, 0.0, 1e-3)])
def test_sum_identities_skip_no_block_that_holds_the_largest_gap(monkeypatch, at, t, scale):
    # b(at, t) moved by scale grows the gaps of every n >= at, in blocks that the bound must not skip
    row = coeffs.b_row

    def moved(t_, n_max):
        out = row(t_, n_max)
        if t_ == t and at is not None:
            out[at - 1] += scale
        return out

    monkeypatch.setattr(coeffs, "b_row", moved)
    assert verification.check_coeffs_sum_identities(make_ctx(2)).measured == sum_identities_over_every_pair()


# --- the whole registry: every invariant and its bound are written once, in CHECKS ---

REGISTRY_N = [1, 2, 257, 1024]


@pytest.fixture(scope="module", params=REGISTRY_N, ids=lambda n: f"N{n}")
def suite(request):
    """One run of every check per N.

    N = 1 and 2 are the degenerate truncations, 257 lies past the 256 and
    128 sub-caps inside the checks, and 1024 is the cap of ``small_N``, the
    largest size of the dense checks.
    """
    return request.param, verification.run_all(request.param, 7)


@pytest.mark.parametrize("index", range(len(verification.CHECKS)),
                         ids=[check.__name__ for check in verification.CHECKS])
def test_invariant_holds(suite, index):
    _N, results = suite
    result = results[index]
    assert result.passed, f"{result.name}: measured {result.measured:.3e} vs bound {result.bound:.3e}"


def test_check_order_cannot_matter(suite):
    # every check draws from its own seeded stream, so running them backwards changes nothing
    N, results = suite
    ctx = verification._Context(N, 7, 1e-10, 1e-2, False)
    backwards = [check(ctx) for check in reversed(verification.CHECKS)]
    assert backwards[::-1] == results


def test_check_names_are_unique_report_keys(suite):
    _N, results = suite
    names = [result.name for result in results]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("N", REGISTRY_N)
def test_injected_corruption_fails_exactly_its_check(N):
    # the negative controls break one entry of dense(B) and add a coordinate the summaries miss;
    # every other check must stay green
    failed = [result.name for result in verification.run_all(N, 7, inject_corruption=True) if not result.passed]
    assert failed == ["semigroups.matrix_B_matches_apply", "cesaro.summaries_match_rows"]


# --- the report keeps its bits whatever CPUs the process may use ---

def as_hex(results):
    return [(r.name, r.passed, r.measured.hex(), r.bound.hex()) for r in results]


@pytest.mark.parametrize("corrupt", [False, True], ids=["healthy", "corrupt"])
@pytest.mark.parametrize("N", REGISTRY_N)
def test_results_keep_their_bits_on_one_and_two_cpus(N, corrupt):
    runs = []
    for k in (1, 2):
        with on_cpus(k):
            runs.append(as_hex(verification.run_all(N, 7, inject_corruption=corrupt)))
    assert runs[0] == runs[1]


# --- the benchmark tracer's catalogue stays in step with the program ---

def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # a renamed or deleted layer fails here instead of showing up as a missing target
    tracing = _tracing_module()
    for name, (modname, path) in {**tracing.SPLIT, **tracing.TOTAL}.items():
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr, None)), name
        assert attr in vars(owner), f"{name}: the tracer wraps only attributes defined on {owner.__name__}"
    # the catalogue times every check but those added since the benchmark's last change, listed here
    # until the benchmark's next change adds them to CHECK_NAMES
    untimed = ["check_summaries_match_rows"]
    assert tracing.CHECK_NAMES == [check.__name__ for check in verification.CHECKS if check.__name__ not in untimed]


def _readers(trees) -> dict[tuple[str, str], set[tuple[str, str | None]]]:
    """Each src def that a Name or Attribute node reads, as (its module, its name) -> the (module, top-level def or
    class) reading it.

    A read resolves to the module that bound it: ``from .m import f`` or ``from ergodiclab.m import f``, an
    attribute of a module bound by ``from . import m`` or ``from ergodiclab import m``, or a def of the reading
    module itself.  An attribute of anything else (``cfg.vector``) reads no src def.
    """
    readers = {}
    for module, tree in trees.items():
        names = {node.name: (module, node.name) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                package = (node.module if node.level == 0
                           else f"ergodiclab.{node.module}" if node.module else "ergodiclab")
                for alias in node.names:
                    if package == "ergodiclab":
                        modules[alias.asname or alias.name] = alias.name
                    elif package.startswith("ergodiclab."):
                        names[alias.asname or alias.name] = (package.removeprefix("ergodiclab."), alias.name)
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    target = names.get(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                    target = (modules[node.value.id], node.attr)
                else:
                    continue
                if target:
                    readers.setdefault(target, set()).add((module, getattr(stmt, "name", None)))
    return readers


def test_every_public_src_function_has_a_caller():
    # code that no caller reaches gets deleted; a name that only a paper pin or the tracer reads stays,
    # and the check_* functions are reached through verification.CHECKS
    src = Path(verification.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    public = {module: {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith(("_", "check_"))} for module, tree in trees.items()}
    readers = _readers(trees)
    pinned = _readers({"test_acceptance": ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())})
    tracing = _tracing_module()
    traced = set({**tracing.SPLIT, **tracing.TOTAL}.values())
    uncalled = [
        f"{module}.{name}" for module, names in public.items() for name in sorted(names)
        if not readers.get((module, name), set()) - {(module, name)}
        and (module, name) not in pinned and (f"ergodiclab.{module}", name) not in traced
    ]
    assert not uncalled, f"no caller reaches {uncalled}"
    # a module's __all__, where it has one, names exactly its public defs and classes
    exported = {module: set(ast.literal_eval(stmt.value)) for module, tree in trees.items() for stmt in tree.body
                if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]}
    assert {module: names ^ public[module] for module, names in exported.items() if names != public[module]} == {}
