"""Tests for the invariant suite: the registry at every N, its controls and its cost."""

import importlib
import importlib.util
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ergodiclab import semigroups, space, verification
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


# --- the forked helper: results keep their bits, its errors raise, no child outlives a run ---

@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the process may use; on leaving, assert that no child process is left."""
    yield lambda k: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def as_hex(results):
    return [(r.name, r.passed, r.measured.hex(), r.bound.hex()) for r in results]


@pytest.mark.parametrize("corrupt", [False, True], ids=["healthy", "corrupt"])
@pytest.mark.parametrize("N", REGISTRY_N)
def test_results_keep_their_bits_on_one_and_two_cpus(cpus, N, corrupt):
    runs = []
    for k in (1, 2):
        cpus(k)
        runs.append(as_hex(verification.run_all(N, 7, inject_corruption=corrupt)))
    assert runs[0] == runs[1]


def in_helper_only(monkeypatch, tmp_path, action, then_in_caller=lambda: None):
    """Wrap every check: in the helper it runs ``action`` first; the caller waits until the helper has."""
    caller, mark = os.getpid(), tmp_path / "helper-pulled"

    def wrap(check):
        def run(ctx):
            if os.getpid() != caller:
                mark.touch()
                action()
            deadline = time.monotonic() + 60.0
            while not mark.exists() and time.monotonic() < deadline:  # so the helper pulls a check
                time.sleep(0.001)
            then_in_caller()
            return check(ctx)
        return run

    monkeypatch.setattr(verification, "CHECKS", [wrap(check) for check in verification.CHECKS])


def test_a_check_that_raises_in_the_helper_alone_raises(monkeypatch, tmp_path, cpus):
    cpus(2)

    def fail():
        raise RuntimeError("raised in the helper")

    in_helper_only(monkeypatch, tmp_path, fail)
    with pytest.raises(RuntimeError, match="raised in the helper"):
        verification.run_all(64, 7)


def test_a_helper_that_dies_loses_no_result(monkeypatch, tmp_path, cpus):
    cpus(1)
    serial = as_hex(verification.run_all(64, 7))
    cpus(2)
    in_helper_only(monkeypatch, tmp_path, lambda: os._exit(3))
    assert as_hex(verification.run_all(64, 7)) == serial


def test_an_error_in_the_caller_stops_the_helper(monkeypatch, tmp_path, cpus):
    cpus(2)
    naps = []

    def nap_once():  # the helper's first check takes 10 s, unless the helper is stopped
        if not naps:
            naps.append(True)
            time.sleep(10.0)

    def fail():
        raise RuntimeError("raised in the caller")

    in_helper_only(monkeypatch, tmp_path, nap_once, fail)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="raised in the caller"):
        verification.run_all(64, 7)
    assert time.monotonic() - start < 5.0


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
