"""The vectors that the M/T row tests share, and the one-point rows that the grid kernels are pinned against."""

import contextlib
import io
import json
import os
import threading

import numpy as np
import pytest

from ergodiclab.cesaro import Support
from ergodiclab.cli import EXIT_OK, main
from ergodiclab.semigroups import StructuredOperator, matrix_T
from ergodiclab.space import TruncatedVector


def sparse_vector(n, seed=17):
    """Signed x with n // 8 nonzeros (at least one)."""
    rng = np.random.default_rng(seed)
    coords = np.zeros(n)
    k = max(1, n // 8)
    coords[rng.choice(n, k, replace=False)] = rng.uniform(-1.0, 1.0, k)
    return TruncatedVector(coords)


def signed_with_gaps(n):
    """Signed x with x_1 != 0, runs of zeros (one of them -0.0) and, from n = 4, a zero prefix sum after index 2."""
    rng = np.random.default_rng(n)
    coords = np.zeros(n)
    on = np.unique(np.concatenate(([0], rng.choice(n, min(n, 40), replace=False))))
    coords[on] = rng.uniform(0.5, 1.0, on.size) * rng.choice([-1.0, 1.0], on.size)
    if n >= 4:
        coords[2:4] = [-coords[0] - coords[1], -0.0]
    return TruncatedVector(coords)


@contextlib.contextmanager
def on_cpus(k):
    """This process pinned to k of the CPUs it may use (all of them, if fewer) while the block runs.

    Where the platform sets no affinity mask, the block runs as it is.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(mask)[:k])
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def support_of(x):
    """x by its nonzero entries, as ``ExperimentConfig.support`` hands them to the M/T kernels."""
    at = np.flatnonzero(x.coords)
    return Support(x.dim, at + 1.0, x.coords[at])


def csv_text(curve):
    """What ``curve.to_csv`` writes."""
    out = io.StringIO()
    curve.to_csv(out)
    return out.getvalue()


def perturbation(t, n):
    """N_t = T(t) - M(t): the strictly lower part of ``matrix_T(t, n)``, on a zero diagonal."""
    return StructuredOperator(np.zeros(n), matrix_T(t, n).below)


def one_point_mean(r, x, perturbed):
    """C_M(r)x or C_T(r)x at one r, in the kernels' operation order: ((-e) (h/r)) x, plus ((I prefix) / r)."""
    h = np.arange(1, x.dim + 1, dtype=float)
    e = np.expm1(-r / h)
    row = -e * (h / r) * x.coords
    if perturbed and x.dim > 1:
        he = e * h
        row[1:] = (he[:-1] - he[1:]) * np.cumsum(x.coords)[:-1] / r + row[1:]
    return row


def one_point_orbit(t, x, perturbed):
    """M(t)x or T(t)x at one t: e^{-t/h} x, plus the coupling -expm1(-t/(h(h-1))) e^{-t/h} (I prefix)."""
    h = np.arange(1, x.dim + 1, dtype=float)
    decay = np.exp(-t / h)
    row = decay * x.coords
    if perturbed and x.dim > 1:
        pairs = h[1:] * (h[1:] - 1)
        row[1:] += -np.expm1(-t / pairs) * decay[1:] * np.cumsum(x.coords)[:-1]
    return row


def simulate_csv(out, subject, x, count):
    """The bytes of the trajectory.csv that ``simulate`` writes into ``out`` for x on t = 0..40 (``count`` points)."""
    config = {
        "subject": subject,
        "N": x.dim,
        "vector": [[k + 1, v] for k, v in enumerate(x.coords.tolist()) if v],
        "r_grid": {"start": 0.25, "factor": 2.0, "count": 2},
        "t_grid": {"start": 0.0, "stop": 40.0, "count": count},
    }
    out.mkdir(exist_ok=True)
    (out / "cfg.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(out / "cfg.json"), "--out", str(out)]) == EXIT_OK
    return (out / "trajectory.csv").read_bytes()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def raised(run):
    """The type and message of what ``run`` raises; no thread may outlive the call."""
    before = threading.active_count()
    with pytest.raises(Exception) as info:
        run()
    assert threading.active_count() == before
    return type(info.value), str(info.value)
