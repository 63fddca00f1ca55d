"""Tests for the space checks of the invariant suite: results, controls, cost."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ergodiclab import space, verification
from ergodiclab.space import TruncatedVector


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



# --- the whole registry at small and odd N ---

@pytest.fixture(scope="module", params=[2, 257], ids=lambda n: f"N{n}")
def suite(request):
    """One run of every check per N; 257 lies past the 256 and 128 sub-caps inside the checks."""
    return verification.run_all(request.param, 7)


@pytest.mark.parametrize("index", range(len(verification.CHECKS)),
                         ids=[check.__name__ for check in verification.CHECKS])
def test_invariant_holds(suite, index):
    result = suite[index]
    assert result.passed, f"{result.name}: measured {result.measured:.3e} vs bound {result.bound:.3e}"


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
    assert tracing.CHECK_NAMES == [check.__name__ for check in verification.CHECKS]
