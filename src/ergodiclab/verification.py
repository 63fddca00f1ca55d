"""Invariant suite behind the ``verify`` command.

Each check re-validates one structural invariant at the configured
truncation and reports a measured value against its bound.  The suite is
deterministic for a fixed (N, seed, tolerances) triple: randomized
probes draw from a seeded generator and nothing here depends on wall
time or machine identity.

``CHECKS`` is the one place an invariant and its bound are written:
pytest runs the same registry at N = 1, 2, 257 and 1024
(``tests/test_verification.py``) instead of restating it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import cesaro, coeffs, diagnostics, exp_semigroup, semigroups, space
from .space import TruncatedVector, basis_vector, norm_l1, pair

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def _result(name: str, measured: float, bound: float) -> CheckResult:
    measured = float(measured)
    bound = float(bound)
    return CheckResult(name=name, passed=bool(measured <= bound), measured=measured, bound=bound)


def _random_vector(rng: np.random.Generator, N: int) -> TruncatedVector:
    return TruncatedVector(rng.uniform(-1.0, 1.0, size=N))


# --- space ---

def check_space_holder(ctx) -> CheckResult:
    rng = ctx.rng("space_holder")
    worst = 0.0
    for _ in range(20):
        x = _random_vector(rng, ctx.N)
        f = rng.uniform(-2.0, 2.0, size=ctx.N)
        slack = abs(pair(f, x)) - np.abs(f).max() * norm_l1(x)
        worst = max(worst, slack)
    return _result("space.holder_inequality", worst, 1e-12 * ctx.N)


def check_space_partial_sum_decomposition(ctx) -> CheckResult:
    """P_h = sum_{j<=h} Q_j, checked through its telescoping step.

    At every sampled h the check compares P_h x with P_{h-1} x + Q_h x
    exactly, with P_0 x := 0 (so h = 1 checks P_1 = Q_1).  Summing the step
    over h gives the partial-sum identity, and h = N in the sample adds
    P_N x = x.  The cost is O(|index_sample| N); summing every block Q_j
    would be O(N^2), so that exhaustive sum runs at small N in
    ``tests/test_space.py::test_partial_sum_is_sum_of_blocks``.
    """
    rng = ctx.rng("space_decomp")
    x = _random_vector(rng, ctx.N)
    worst = 0.0
    for h in ctx.index_sample:
        partial = space.project_P(x, h).coords
        below = space.project_P(x, h - 1).coords if h > 1 else 0.0
        step = below + space.project_Q(x, h).coords
        worst = max(worst, float(np.abs(partial - step).max()))
        if h == ctx.N:
            worst = max(worst, float(np.abs(partial - x.coords).max()))
    return _result("space.partial_sum_decomposition", worst, 0.0)


def check_space_projections(ctx) -> CheckResult:
    rng = ctx.rng("space_proj")
    x = _random_vector(rng, ctx.N)
    worst = 0.0
    for h in ctx.index_sample:
        for proj in (space.project_P, space.project_Q):
            once = proj(x, h)
            twice = proj(once, h)
            worst = max(worst, float(np.abs(once.coords - twice.coords).max()))
            worst = max(worst, norm_l1(once) - norm_l1(x))
    return _result("space.projection_idempotent_contractive", worst, 0.0)


def check_space_expansion_uniqueness(ctx) -> CheckResult:
    rng = ctx.rng("space_unique")
    x = _random_vector(rng, ctx.N)
    # a vector whose partial projections all vanish must be zero, and conversely;
    # P_N x = x, so the sampled h (N among them) decide "all P_h x vanish"
    all_zero = all(norm_l1(space.project_P(x, h)) == 0.0 for h in ctx.index_sample)
    consistent = all_zero == (norm_l1(x) == 0.0)
    zero_ok = all(
        norm_l1(space.project_P(TruncatedVector(np.zeros(ctx.N)), h)) == 0.0
        for h in ctx.index_sample
    )
    return _result("space.expansion_uniqueness", 0.0 if (consistent and zero_ok) else 1.0, 0.0)


# --- coefficient family ---

def check_coeffs_sum_identities(ctx) -> CheckResult:
    """The largest |(S_n - S_m) - (e_n - e_m)| / n over 1 <= m < n <= 1000 at five t: S sums b_row, e_n = exp(-t/n).

    Rounding is monotone, so each n's largest value is its largest |gap| over m, divided by n.  A block
    of n is skipped when a bound on every value in it is no larger than the largest found: with
    u = eps/2 and d = S - e, |fl(fl(S_n - S_m) - fl(e_n - e_m))| <= (1 + u)(u |S_n - S_m| + u |e_n - e_m|
    + |d_n| + |d_m|), and the spans of S and e and the largest |d| up to n bound that for every m < n.
    """
    n_max, rows = 1000, 32
    n = np.arange(1, n_max + 1, dtype=float)
    worst = 0.0
    for t in (0.0, 0.1, 1.0, 10.0, 100.0):
        cum = np.cumsum(coeffs.b_row(t, n_max))
        expn = np.exp(-t / n)
        span = sum(np.maximum.accumulate(v) - np.minimum.accumulate(v) for v in (cum, expn))
        # 2u for u and 1.001 for the roundings of the bound itself and the (1 + u) factors
        bound = (2.0**-52 * span + 2.0 * np.maximum.accumulate(np.abs(cum - expn))) / n * 1.001
        for i in range(1, n_max, rows):
            top = min(i + rows, n_max)
            if bound[i:top].max() <= worst:
                continue
            gap = np.subtract.outer(cum[i:top], cum[: top - 1])
            gap -= np.subtract.outer(expn[i:top], expn[: top - 1])
            gap[:, i:] *= np.tri(top - i, top - i - 1, -1)  # only m < n
            worst = max(worst, float((np.maximum(gap.max(axis=1), -gap.min(axis=1)) / n[i:top]).max()))
    return _result("coeffs.sum_identities_exactness", worst, 1e-13)


def check_coeffs_positivity(ctx) -> CheckResult:
    worst = 0.0
    for t in (0.0, 0.01, 0.5, 3.0, 40.0, 1e4):
        worst = max(worst, float(-coeffs.b_row(t, min(ctx.N, 4096)).min()))
    return _result("coeffs.positivity", worst, 0.0)


def check_coeffs_tail_consistency(ctx) -> CheckResult:
    worst = 0.0
    for t in (0.0, 0.1, 1.0, 10.0):
        for m, n in ((1, 2), (1, 50), (7, 19), (100, 1000)):
            lhs = coeffs.partial_sum_b(m, n, t) + coeffs.tail_sum_b(n, t)
            worst = max(worst, abs(lhs - coeffs.tail_sum_b(m, t)))
    return _result("coeffs.tail_consistency", worst, 1e-14)


def check_coeffs_integral_derivative(ctx) -> CheckResult:
    step = 1e-5
    worst = 0.0
    for h in (1, 2, 3, 10, 97):
        for r in (0.3, 1.0, 7.5, 40.0):
            fd = (coeffs.integral_b(h, r + step) - coeffs.integral_b(h, r - step)) / (2 * step)
            worst = max(worst, abs(fd - coeffs.b(h, r)))
    return _result("coeffs.integral_derivative_fd", worst, 1e-8)


def check_coeffs_integral_vs_quadrature(ctx) -> CheckResult:
    worst = 0.0
    for h in (1, 2, 5, 31, 100):
        for r in (0.5, 4.0, 100.0):
            closed = coeffs.integral_b(h, r)
            # absolute quadrature target an order below the relative check
            tol = max(1e-11 * abs(closed), 1e-16)
            # b(h, s) at every node in one pass: the family's coupling at h, read off [h - 1, h], or e^{-s} at h = 1
            at = np.array([h - 1.0, h] if h > 1 else [1.0])
            integrand = lambda nodes, at=at, h=h: coeffs.family(nodes[:, None], at, h > 1, False)[h > 1]
            oracle = cesaro.adaptive_simpson(integrand, 0.0, r, tol)[0]
            worst = max(worst, abs(closed - oracle) / max(abs(oracle), 1e-300))
    return _result("coeffs.integral_vs_quadrature_rel", worst, 1e-10)


# --- semigroups ---

def check_semigroup_law_M(ctx) -> CheckResult:
    rng = ctx.rng("law_M")
    worst = 0.0
    for t, s in ((0.0, 0.0), (0.5, 1.5), (2.0, 0.25), (10.0, 10.0)):
        x = _random_vector(rng, ctx.N)
        lhs = semigroups.apply_M(t + s, x)
        rhs = semigroups.apply_M(t, semigroups.apply_M(s, x))
        worst = max(worst, norm_l1(lhs - rhs) / max(norm_l1(x), 1e-300))
    return _result("semigroups.law_M_exact", worst, 1e-14)


def check_semigroup_law_T(ctx) -> CheckResult:
    t = s = 1.0
    x = basis_vector(1, ctx.N)
    lhs = semigroups.apply_T(t + s, x)
    rhs = semigroups.apply_T(t, semigroups.apply_T(s, x))
    defect = norm_l1(lhs - rhs)
    bound = 2.0 * coeffs.tail_sum_b(ctx.N, t + s)
    return _result("semigroups.law_T_defect", defect, bound)


# M(t) is diagonal: each column of M(t) or M(t) - I holds one entry, so the largest
# column sum of |entries| is the largest |diagonal entry|, bit for bit

def check_opnorm_M_minus_I(ctx) -> CheckResult:
    worst = 0.0
    for t in (0.01, 0.5, 1.0, 5.0):
        measured = float(np.abs(semigroups.matrix_M(t, ctx.small_N).diag - 1.0).max())
        worst = max(worst, abs(measured - (1.0 - math.exp(-t))))
    return _result("semigroups.opnorm_M_minus_I_exact", worst, 1e-14)


def check_opnorm_M_bounded(ctx) -> CheckResult:
    worst = 0.0
    for t in (0.0, 0.3, 2.0, 50.0):
        measured = float(np.abs(semigroups.matrix_M(t, ctx.small_N).diag).max())
        if measured > worst:
            worst = measured
    return _result("semigroups.opnorm_M_le_one", worst, 1.0 + 1e-15)


def check_nonnegativity(ctx) -> CheckResult:
    worst = 0.0
    for t in (0.0, 0.7, 3.0):
        for builder in (semigroups.matrix_M, semigroups.matrix_T):  # T's least entry is at most its lower part's
            worst = max(worst, -builder(t, ctx.small_N).min_entry())
    return _result("semigroups.nonnegativity", worst, 0.0)


def check_column_stochasticity(ctx) -> CheckResult:
    worst = 0.0
    for t in (0.5, 2.0):
        # dense()'s column sums, added row by row as numpy adds them: diag, then below[j] at each row j > k
        op = semigroups.matrix_T(t, ctx.small_N)
        sums = op.diag.copy()
        for j in range(1, ctx.small_N):
            sums[:j] += op.below[j]
        deficit = 1.0 - sums
        hi = coeffs.tail_sum_b(ctx.small_N, t)
        worst = max(worst, float((-deficit).max()), float((deficit - hi).max()))
    return _result("semigroups.column_deficit_in_range", worst, 1e-14 * ctx.small_N)


def check_adjoint_residual(ctx) -> CheckResult:
    res = semigroups.adjoint_residual_vector(ctx.N)
    worst = float(np.abs(res + 1.0 / ctx.N).max())
    return _result("semigroups.adjoint_residual_uniform", worst, 1e-15)


def check_f_invariance(ctx) -> CheckResult:
    rng = ctx.rng("f_inv")
    ones = np.ones(ctx.N)
    worst = 0.0
    for t in (0.1, 1.0, 4.0):
        deficit = coeffs.tail_sum_b(ctx.N, t)
        for _ in range(5):
            x = _random_vector(rng, ctx.N)
            drift = abs(pair(ones, semigroups.apply_T(t, x)) - pair(ones, x))
            allowed = deficit * norm_l1(x) + 1e-12 * ctx.N
            worst = max(worst, drift - allowed)
    return _result("semigroups.f_invariance_up_to_deficit", worst, 0.0)


def check_spectrum(ctx) -> CheckResult:
    # A and B are lower triangular: their spectrum is the diagonal (as LAPACK returns it) if nothing sits above it
    n = min(ctx.N, 512)
    expected = np.sort(-1.0 / np.arange(1, n + 1, dtype=float))
    worst = 0.0
    for builder in (semigroups.matrix_A, semigroups.matrix_B):
        entries = builder(n).dense()
        worst = max(worst, float(np.abs(np.sort(np.diagonal(entries)) - expected).max()))
        entries[np.tri(n, dtype=bool)] = 0.0
        worst = max(worst, float(entries.max()), -float(entries.min()))
        del entries  # one dense matrix at a time
    return _result("semigroups.spectrum_diagonal", worst, 1e-12)


def check_matrix_B_consistency(ctx) -> CheckResult:
    n = ctx.small_N
    op, worst = semigroups.matrix_B(n), 0.0
    for k in range(0, n, 32):  # columns k+1..k+32 against the images of e_{k+1}, ..., e_{k+32}, one per row
        entries = op.dense(k, min(k + 32, n))
        if ctx.inject_corruption and k == 0:
            entries[min(1, n - 1), 0] += 1e-3  # negative control: break one entry
        images = op.apply_block(np.eye(n, min(32, n - k), -k).T)  # F-ordered, so images.T is C-ordered as entries
        worst = max(worst, float(np.abs(entries - images.T).max()))
    return _result("semigroups.matrix_B_matches_apply", worst, 0.0)


def check_kernel_B(ctx) -> CheckResult:
    return _result("semigroups.kernel_B_trivial", 0.0 if semigroups.kernel_B(ctx.N) else 1.0, 0.0)


# --- exponential semigroup ---

def _power_op(ctx) -> exp_semigroup.PowerBoundedOperator:
    return exp_semigroup.PowerBoundedOperator.from_matrix(semigroups.matrix_T(1.0, min(ctx.N, 64)), horizon=64)


def _renorm_ops(ctx) -> tuple[exp_semigroup.PowerBoundedOperator, ...]:
    """T(1), certified at power 1, where the renorm is the l1 norm, and a matrix certified at power 4.

    [[0.5, 1.5], [0, 0.5]] has ||T^n||_1 = 2, 1.75, 1.25, then 0.8125: power bound 2.
    """
    return _power_op(ctx), exp_semigroup.PowerBoundedOperator.from_matrix(np.array([[0.5, 1.5], [0.0, 0.5]]))


def check_renorm_contractive(ctx) -> CheckResult:
    rng = ctx.rng("renorm_contract")
    worst = 0.0
    for T in _renorm_ops(ctx):
        for _ in range(10):
            x = _random_vector(rng, T.dim)
            worst = max(worst, exp_semigroup.renorm(T.operator.apply(x), T) - exp_semigroup.renorm(x, T))
    return _result("exp.renorm_contractive", worst, 1e-12)


def check_renorm_axioms(ctx) -> CheckResult:
    rng = ctx.rng("renorm_axioms")
    worst = 0.0
    for T in _renorm_ops(ctx):
        for _ in range(10):
            x = _random_vector(rng, T.dim)
            y = _random_vector(rng, T.dim)
            a = rng.uniform(-3.0, 3.0)
            worst = max(
                worst,
                abs(exp_semigroup.renorm(a * x, T) - abs(a) * exp_semigroup.renorm(x, T)),
                exp_semigroup.renorm(x + y, T) - exp_semigroup.renorm(x, T) - exp_semigroup.renorm(y, T),
            )
    return _result("exp.renorm_norm_axioms", worst, 1e-12)


def check_fixed_vector_transfer(ctx) -> CheckResult:
    dim = min(ctx.N, 8)
    matrix = np.eye(dim)
    if dim >= 2:
        matrix[1, 1] = 0.5  # e_2 not fixed; e_1 and higher coordinates fixed
    T = exp_semigroup.PowerBoundedOperator.from_matrix(matrix, horizon=32)
    fixed = basis_vector(1, dim)
    tol = ctx.quadrature_tol
    rows = np.concatenate([*exp_semigroup.stream_S([0.2, 1.0, 9.0], fixed, T, tol)])
    worst = float(np.add.reduce(np.abs(rows - fixed.coords), axis=1).max())
    return _result("exp.fixed_vector_transfer", worst, tol)


def check_S_monotone_bound(ctx) -> CheckResult:
    rng = ctx.rng("S_monotone")
    tol = ctx.quadrature_tol
    worst = 0.0
    for T in _renorm_ops(ctx):
        for t in (0.1, 1.0, 10.0, 100.0):
            for _ in range(3):
                x = _random_vector(rng, T.dim)
                ratio = exp_semigroup.renorm(exp_semigroup.apply_S(t, x, T, tol), T) / exp_semigroup.renorm(x, T)
                worst = max(worst, ratio)
    return _result("exp.S_renorm_le_one", worst, 1.0 + 10.0 * tol)


def check_S_defect(ctx) -> CheckResult:
    rng = ctx.rng("S_defect")
    T = _power_op(ctx)
    tol = ctx.quadrature_tol
    worst = 0.0
    for t, s in ((0.5, 0.5), (1.0, 2.0)):
        x = _random_vector(rng, T.dim)
        worst = max(worst, exp_semigroup.semigroup_defect_S(t, s, x, T, tol))
    return _result("exp.semigroup_defect", worst, 4.0 * tol * T.power_bound)


# --- Cesaro means ---

def check_oracle_cesaro_M(ctx) -> CheckResult:
    worst = 0.0
    n = min(ctx.N, 100)
    for r in (0.5, 1.0, 5.0, 20.0, 100.0):
        for k in (1, min(3, n), min(47, n), n):
            x = basis_vector(k, n)
            closed = cesaro.cesaro_M(r, x)
            oracle = cesaro.cesaro_quadrature(semigroups.grid_kernel(x, perturbed=False, mean=False), r, 1e-11)
            worst = max(worst, norm_l1(closed - oracle))
    return _result("cesaro.oracle_equivalence_M", worst, max(1e-9, 10 * 1e-11))


def check_oracle_cesaro_T(ctx) -> CheckResult:
    worst = 0.0
    n = min(ctx.N, 256)
    for r in (0.5, 5.0, 20.0):
        for k in (1, min(17, n)):
            x = basis_vector(k, n)
            closed = cesaro.cesaro_T(r, x)
            oracle = cesaro.cesaro_quadrature(semigroups.grid_kernel(x, perturbed=True, mean=False), r, 1e-11)
            worst = max(worst, norm_l1(closed - oracle))
    return _result("cesaro.oracle_equivalence_T", worst, max(1e-9, 10 * 1e-11))


def check_strong_convergence_M(ctx) -> CheckResult:
    rng = ctx.rng("strong_M")
    worst = 0.0
    for k in ctx.index_sample:
        e_k = basis_vector(k, ctx.N)
        for r in (1.0, 10.0, 1000.0):
            value = norm_l1(cesaro.cesaro_M(r, e_k))
            worst = max(worst, value - k / r)
    x = _random_vector(rng, ctx.N)
    support = ctx.N
    for r in (1.0, 50.0):
        worst = max(worst, norm_l1(cesaro.cesaro_M(r, x)) - (support / r) * norm_l1(x))
    return _result("cesaro.strong_convergence_rate_M", worst, 0.0)


def check_uniform_floor(ctx) -> CheckResult:
    rs = np.minimum(cesaro.geometric_grid(1.0, 2.0, 14), float(ctx.N))  # repeats of N change no max
    worst = 0.0
    for r in rs:
        worst = max(worst, diagnostics.UNIFORM_FLOOR - cesaro.cesaro_M_opnorm(float(r), ctx.N))
    return _result("cesaro.uniform_opnorm_floor", worst, 1e-12)


def check_mass_escape_T(ctx) -> CheckResult:
    r = max(1.0, ctx.N / 8.0)
    v = cesaro.cesaro_T(r, basis_vector(1, ctx.N))
    fval = pair(np.ones(ctx.N), v)
    shortfall = (1.0 - r / (2.0 * ctx.N)) - fval
    return _result("cesaro.f_value_conservation_T", shortfall, 0.0)


def check_linearity(ctx) -> CheckResult:
    rng = ctx.rng("linearity")
    n = min(ctx.N, 128)
    x = _random_vector(rng, n)
    y = _random_vector(rng, n)
    a, bcoef = 1.7, -0.4
    worst = 0.0
    for r in (0.5, 8.0):
        lhs = cesaro.cesaro_T(r, a * x + bcoef * y)
        rhs = a * cesaro.cesaro_T(r, x) + bcoef * cesaro.cesaro_T(r, y)
        worst = max(worst, norm_l1(lhs - rhs))
        lhs_m = cesaro.cesaro_M(r, a * x + bcoef * y)
        rhs_m = a * cesaro.cesaro_M(r, x) + bcoef * cesaro.cesaro_M(r, y)
        worst = max(worst, norm_l1(lhs_m - rhs_m))
    return _result("cesaro.linearity", worst, 1e-12)


def check_summaries_match_rows(ctx) -> CheckResult:
    """M/T curve and trajectory summaries read off the support of x against the full rows.

    x is signed, with x_1 != 0 and a gap where the prefix sum is 0.  Norms and maxima are
    compared relative to the row's, f values and steps to ||x||_1, and the row must hold the
    reported maximum at the reported index.  The negative control moves the rows' x_N.
    """
    n, rng = ctx.small_N, ctx.rng("summaries")
    on = np.flatnonzero(np.bincount(np.append(rng.choice(n, min(n, 8), replace=False), 0), minlength=n))
    coords = np.zeros(n)
    coords[on] = rng.uniform(0.5, 1.0, on.size) * rng.choice([-1.0, 1.0], on.size)
    for j in on[1:][np.diff(np.append(on, n))[1:] > 1][:1]:  # a support index after x_1 with a gap after it
        coords[j] = -np.cumsum(coords)[j - 1]
    at, scale = np.flatnonzero(coords), float(np.abs(coords).sum())
    x = cesaro.Support(n, at + 1.0, coords[at])
    seen = TruncatedVector(coords + np.eye(1, n, n - 1).ravel() * 1e-9 * scale if ctx.inject_corruption else coords)
    worst = 0.0
    for mean, grid in ((True, cesaro.geometric_grid(0.25, 2.0, 12)), (False, np.linspace(0.0, 2.0 * n, 12))):
        for perturbed in (False, True):
            rows = semigroups.grid_kernel(seen, perturbed, mean)(grid)
            norm, top, index, fval, step = np.concatenate([*cesaro.support_summaries(x, grid, perturbed, mean)]).T
            want = space.row_stats(rows)
            unit, held = np.where(want == 0.0, 1.0, want), np.abs(rows[np.arange(len(rows)), index.astype(int) - 1])
            gaps = [np.abs(norm - want[:, 0]) / unit[:, 0], np.abs(fval - want[:, 3]) / scale,
                    np.maximum(np.abs(top - want[:, 1]), np.abs(held - want[:, 1])) / unit[:, 1]]
            if mean:
                gaps.append(np.abs(step[1:] - np.add.reduce(np.abs(rows[1:] - rows[:-1]), axis=1)) / scale)
            worst = max(worst, *(float(gap.max()) for gap in gaps))
    return _result("cesaro.summaries_match_rows", worst, 1e-13)


# --- diagnostics ---

def check_verdict_soundness(ctx) -> CheckResult:
    n = max(ctx.N, 32)
    rs = cesaro.geometric_grid(1.0, 2.0, int(math.log2(n)) + 1)
    rs = rs[rs <= n]
    if rs.size < 6:
        rs = np.linspace(0.25, max(1.0, float(n)), 6)
    curve = cesaro.curve_cesaro_M_opnorm(rs, n)
    verdict = diagnostics.cauchy_convergence_test(curve, window=3, tol=ctx.convergence_tol)
    ok = verdict.verdict != "diverges" or (
        verdict.witness is not None and verdict.witness >= verdict.threshold
    )
    return _result("diagnostics.verdict_soundness", 0.0 if ok else 1.0, 0.0)


def check_kernel_criterion_consistency(ctx) -> CheckResult:
    dims_seen = set()
    worst = 0.0
    for n in (10, 100, 1000):
        res = semigroups.adjoint_residual_vector(n)
        worst = max(worst, float(np.abs(res + 1.0 / n).max()))
        dims_seen.add(diagnostics.kernel_criterion(semigroups.matrix_B(n))["null_dim"])
    if dims_seen != {0}:
        worst = max(worst, 1.0)
    return _result("diagnostics.kernel_criterion_consistency", worst, 1e-15)


def check_opnorm_crossing(ctx) -> CheckResult:
    # largest grid r still holding the floor should sit within a factor 2 of N
    rs = cesaro.geometric_grid(1.0, 2.0, int(math.log2(max(ctx.N, 2))) + 3)
    holding = [float(r) for r in rs if cesaro.cesaro_M_opnorm(float(r), ctx.N) >= diagnostics.UNIFORM_FLOOR - 1e-12]
    if not holding:
        return _result("diagnostics.opnorm_crossing_proportional", 1.0, 0.0)
    ratio = max(holding) / ctx.N
    ok = 0.5 <= ratio <= 2.0
    return _result("diagnostics.opnorm_crossing_proportional", 0.0 if ok else ratio, 0.0)


def check_mass_accounting(ctx) -> CheckResult:
    worst = 0.0
    for r in (1.0, float(max(1, ctx.N // 4))):
        v = cesaro.cesaro_T(r, basis_vector(1, ctx.N))
        n1 = norm_l1(v)
        cert = cesaro.cesaro_T_certificate(r, ctx.N)
        worst = max(worst, n1 - 1.0, 1.0 - (n1 + cert + 1e-13 * ctx.N))
    return _result("diagnostics.mass_accounting", worst, 0.0)


# the registry: every check_ function above, in the order of definition
CHECKS = [check for name, check in list(globals().items()) if name.startswith("check_")]


class _Context:
    def __init__(self, N, seed, quadrature_tol, convergence_tol, inject_corruption):
        self.N = N
        self.seed = seed
        self.quadrature_tol = quadrature_tol
        self.convergence_tol = convergence_tol
        self.inject_corruption = inject_corruption
        self.small_N = min(N, 1024)
        # deterministic, order-independent index sample spanning the dimension
        raw = {1, 2, 3, N // 7 + 1, N // 3 + 1, N // 2 + 1, N}
        self.index_sample = sorted(k for k in raw if 1 <= k <= N)

    def rng(self, label: str) -> np.random.Generator:
        # each check gets its own stream so check order cannot matter;
        # crc32 keeps the stream stable across processes (hash() is salted)
        return np.random.default_rng([self.seed, zlib.crc32(label.encode())])


def run_all(N: int, seed: int, quadrature_tol: float = 1e-10, convergence_tol: float = 1e-2,
            inject_corruption: bool = False) -> list[CheckResult]:
    """Run every invariant check at truncation N, in registry order; deterministic per seed."""
    ctx = _Context(N, seed, quadrature_tol, convergence_tol, inject_corruption)
    return [check(ctx) for check in CHECKS]
