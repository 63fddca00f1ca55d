"""The mutation register: every recorded mutant of ``src/`` must still fail the tests named for it.

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py NAME ...     # only the named mutants

Run it from the root of a checkout.  ``src/``, ``tests/`` and ``pyproject.toml`` are
copied to a temporary directory.  Each mutant replaces one exact text, which must occur
exactly once in its file, runs only its named tests there, and restores the file.  A
mutant is caught when every named test fails or errors; a named test that passes makes
it a survivor.  One line per mutant gives its verdict and time.  The exit code is 0 when
every mutant is caught, 1 when one survives, and 2 when an old text does not occur
exactly once, a named test is not collected, or a mutant breaks the import of a test file.

Stdlib only.  It is not a test module: tier-1 runs no mutant, and
``tests/test_mutants.py`` only holds the register to the code.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300  # a mutant that hangs its tests this long counts as caught


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node IDs that must each fail


VERIFICATION = "src/ergodiclab/verification.py"
COEFFS = "src/ergodiclab/coeffs.py"
CESARO = "src/ergodiclab/cesaro.py"
CLI = "src/ergodiclab/cli.py"
DIAGNOSTICS = "src/ergodiclab/diagnostics.py"
EXP = "src/ergodiclab/exp_semigroup.py"
SPACE = "src/ergodiclab/space.py"
CSVTEXT = "src/ergodiclab/csvtext.py"
SEMIGROUPS = "src/ergodiclab/semigroups.py"
TV = "tests/test_verification.py"
TC = "tests/test_cesaro.py"
TD = "tests/test_diagnostics.py"
TE = "tests/test_exp_semigroup.py"
TS = "tests/test_streaming.py"
TX = "tests/test_csvtext.py"
TU = "tests/test_summaries.py"
TG = "tests/test_semigroups.py"
TK = "tests/test_coeffs.py"
TB = "tests/test_blocks.py"
TM = "tests/test_matrix_free_S.py"

# the mutations that the tests of the run order, the Simpson oracle, the T certificate, the
# convergence verdict, the S series' target, the pairing's length guard, the kernel criterion's
# null dimension, the NaN r and t guards, the grid checks, the row summaries of a block, the S
# sweeps' own J and dimension guard, the S steps across sweeps, the config's support, the
# publication of a CSV, the CSV writer's fast path, D's bisection in chunks, the summaries' blocks,
# the sum identities' skipped blocks, the adjoint residual's blocks, the Poisson window's loss,
# renorm's power range, the divergence floor, the mean rows' order of operations, the width of
# the family's index pairs and B's coupling were each first shown to catch
RECORDED = [
    Mutant("rng.one_shared_stream", VERIFICATION,
           "return np.random.default_rng([self.seed, zlib.crc32(label.encode())])",
           "self.shared = getattr(self, 'shared', None) or np.random.default_rng(self.seed)\n"
           "        return self.shared",
           (f"{TV}::test_check_order_cannot_matter[N257]",)),
    Mutant("simpson.ascending_order", CESARO,
           "rank[np.argsort(at)[::-1][:count]]",
           "rank[np.argsort(at)[:count]]",
           (f"{TC}::test_level_synchronous_simpson_keeps_the_depth_first_bits[exponential]",
            f"{TC}::test_grid_kernel_oracle_keeps_the_depth_first_bits[100-T]")),
    Mutant("simpson.no_zero_row", CESARO,
           "return np.add.accumulate(rows, axis=0, out=rows)[-1].copy()",
           "return np.add.accumulate(rows[1:], axis=0, out=rows[1:])[-1].copy()",
           (f"{TC}::test_simpson_budget_exhaustion_payload_keeps_its_bits[sqrt_left_end]",
            f"{TC}::test_level_synchronous_simpson_keeps_the_depth_first_bits[exponential]")),
    Mutant("simpson.flush_past_pending", CESARO,
           "total = _added(total, held, x[0].max(initial=-np.inf))",
           "total = _added(total, held, -np.inf)",
           (f"{TC}::test_level_synchronous_simpson_keeps_the_depth_first_bits[sin_cos]",
            f"{TC}::test_budget_boundary_is_the_depth_first_node_count")),
    Mutant("simpson.flush_only_at_the_end", CESARO,
           "total = _added(total, held, x[0].max(initial=-np.inf))",
           "total = _added(total, held, np.inf if x.size else -np.inf)",
           (f"{TC}::test_simpson_peak_is_set_by_its_widest_level_not_by_what_it_accepted",
            f"{TB}::test_structure_checks_build_no_dense_matrix[check_oracle_cesaro_T-]")),
    Mutant("simpson.one_call_per_node", CESARO,
           "fresh = _rows(f, halves[1].ravel()).reshape(2, k, -1)",
           "fresh = np.concatenate([_rows(f, node[None]) for node in halves[1].ravel()]).reshape(2, k, -1)",
           (f"{TC}::test_oracle_calls_its_kernel_once_per_level_not_per_node",)),
    Mutant("simpson.budget_checked_after_the_fact", CESARO,
           "if evals + 2 * k > budget:",
           "if evals > budget:",
           (f"{TC}::test_budget_boundary_is_the_depth_first_node_count",)),
    Mutant("simpson.ltol_not_halved", CESARO,
           "ltol = 0.5 * ltol",
           "ltol = 1.0 * ltol",
           (f"{TC}::test_grid_kernel_oracle_keeps_the_depth_first_bits[100-T]",)),
    Mutant("simpson.left_plus_right_first", CESARO,
           "rows[1:].reshape(count, 3, -1)[place[go]] = terms[:, go].transpose(1, 0, 2)",
           "rows[1:].reshape(count, 3, -1)[place[go]] = np.stack((terms[0, go] + terms[1, go], 0.0 * terms[1, go],"
           " terms[2, go]), 1)",
           (f"{TC}::test_grid_kernel_oracle_keeps_the_depth_first_bits[100-T]",)),
    Mutant("certificate.by_subtraction", CESARO,
           "np.where(u < 1.0, low / 2.0 - low * low * np.polyval(_PHI2_TAIL, low), 1.0 + np.expm1(-high) / high)",
           "1.0 + np.expm1(-u) / u",
           (f"{TC}::test_T_certificate_never_understates_at_small_r_over_N[65536]",)),
    Mutant("certificate.no_slack", CESARO,
           "np.maximum(np.where(u < 1.0, 2.5, 4.5) * _EPS * value, 2 * math.ulp(0.0))",
           "np.maximum(0.0 * _EPS * value, 2 * math.ulp(0.0))",
           (f"{TC}::test_T_certificate_never_understates_at_any_r_over_N",)),
    Mutant("certificate.no_subnormal_floor", CESARO,
           "np.maximum(np.where(u < 1.0, 2.5, 4.5) * _EPS * value, 2 * math.ulp(0.0))",
           "np.maximum(np.where(u < 1.0, 2.5, 4.5) * _EPS * value, 0.0)",
           (f"{TC}::test_T_certificate_never_understates_at_any_r_over_N",)),
    Mutant("verdict.rising_steps_decay", DIAGNOSTICS,
           "if slope >= 0:\n        return False",
           "if slope >= 0:\n        return True",
           (f"{TD}::test_growing_tail_differences_do_not_converge",)),
    Mutant("verdict.escape_test_flipped", DIAGNOSTICS,
           "maxes[-1] <= 0.5 * maxes[0]",
           "maxes[-1] > 0.5 * maxes[0]",
           (f"{TD}::test_mass_escape_curve_diverges",)),
    Mutant("verdict.cauchy_flipped", DIAGNOSTICS,
           "tail_diffs < tol",
           "tail_diffs >= tol",
           (f"{TD}::test_convergence_on_decaying_curve",)),
    Mutant("verdict.threshold_above_the_floor", DIAGNOSTICS,
           "threshold = UNIFORM_FLOOR - 1e-12",
           "threshold = UNIFORM_FLOOR + 1e-12",
           (f"{TD}::test_divergence_on_opnorm_curve",)),
    Mutant("series.no_target_guard", EXP,
           "if target < _TINY:",
           "if target < 0.0:",
           tuple(f"{TE}::test_S_target_below_the_normal_range_raises[{call}]"
                 for call in ("apply_S", "stream_S", "stream_cesaro_S", "curve_cesaro_S", "semigroup_defect_S"))
           + ("tests/test_cli.py::test_S_series_tolerance_below_the_normal_range_names_the_vector[simulate]",
              "tests/test_cli.py::test_S_series_tolerance_below_the_normal_range_names_the_vector[cesaro]")),
    Mutant("pair.no_length_guard", SPACE,
           "if f.size < x.dim:",
           "if False:",
           ("tests/test_space.py::test_pair_sequence_functional",)),
    Mutant("kernel_criterion.null_dim_zero", DIAGNOSTICS,
           '"null_dim": nullity(op),',
           '"null_dim": 0,',
           (f"{TD}::test_kernel_criterion_zero_generator",)),
    Mutant("r_guard.nan_passes", COEFFS,
           "bad = ~(r > 0)",
           "bad = r <= 0",
           (f"{TC}::test_opnorm_refuses_a_nonpositive_r[nan]",)),
    Mutant("t_guard.nan_passes", COEFFS,
           "~(t >= 0)",
           "t < 0",
           (f"{TK}::test_b_domain_errors", f"{TK}::test_partial_sum_domain_errors",
            f"{TG}::test_M_rejects_negative_time")),
    Mutant("grid_guard.first_point_only", COEFFS,
           "    bad = ~(t >= 0)\n    if bad.any():",
           "    bad = ~(t >= 0)\n    if bad.flat[0]:",
           (f"{TB}::test_bad_grid_point_names_the_first[trajectory_kernel]",
            f"{TU}::test_bad_point_in_a_later_block_raises_after_the_rows_before_it[trajectory]")),
    Mutant("row_stats.sum_by_matvec", SPACE,
           "at + 1, np.add.reduce(part, axis=1)))",
           "at + 1, part @ np.ones(part.shape[1])))",
           (f"{TS}::test_row_stats_keeps_the_bits_of_each_rows_own_reductions[1000]",
            f"{TS}::test_row_stats_keeps_the_bits_of_each_rows_own_reductions[65536]")),
    Mutant("S_sweeps.block_J_for_every_row", EXP,
           "row[L : J + 1] = w[: max(J + 1 - L, 0)]",
           "row[L : L + w.size] = w[: row.size - L]",
           (f"{TM}::test_mean_blocks_agree_with_one_block",)),
    Mutant("S_sweeps.no_dim_guard", EXP,
           'raise ValueError(f"tol must be > 0, got {tol}")\n    if x.dim != T.dim:',
           'raise ValueError(f"tol must be > 0, got {tol}")\n    if False:',
           (f"{TE}::test_S_tolerance_validation",)),
    Mutant("S_steps.no_carry_across_sweeps", CESARO,
           "change = part - np.concatenate((part[:1] if prev is None else prev, part[:-1]))",
           "change = part - np.concatenate((part[:1], part[:-1]))",
           (f"{TM}::test_S_curve_steps_carry_the_row_before_across_sweeps",)),
    Mutant("curve_T.no_subnormal_floor", CESARO,
           "error = error + np.maximum(2 * _EPS * error, 2 * math.ulp(0.0))",
           "error = error + np.maximum(2 * _EPS * error, 0.0)",
           (f"{TC}::test_T_curve_trunc_error_never_understates_the_exact_bound",)),
    Mutant("support.unsorted", CLI,
           "entries = sorted((i, v) for i, v in self.vector if v != 0.0)",
           "entries = list((i, v) for i, v in self.vector if v != 0.0)",
           (f"{TS}::test_the_config_support_drops_zero_entries_and_sorts_the_rest[257]",)),
    Mutant("support.keeps_signed_zeros", CLI,
           "entries = sorted((i, v) for i, v in self.vector if v != 0.0)",
           "entries = sorted((i, v) for i, v in self.vector)",
           (f"{TS}::test_the_config_support_drops_zero_entries_and_sorts_the_rest[257]",
            f"{TS}::test_the_config_support_drops_zero_entries_and_sorts_the_rest[1024]")),
    Mutant("csv.published_before_its_last_block", CLI,
           "        with part.open(\"w\") as fh:\n            yield fh\n        os.replace(part, path)\n",
           "        with part.open(\"w\") as fh:\n            os.replace(part, path)\n            yield fh\n",
           (f"{TU}::test_a_bad_point_in_a_later_csv_block_leaves_no_file",
            f"{TU}::test_nan_row_in_a_later_piece_raises_as_in_a_serial_run")),
    Mutant("csv.no_decade_carry", CSVTEXT,
           "carry = high == 1e9",
           "carry = high == -1.0",
           (f"{TX}::test_every_float_cell_is_what_percent_prints",)),
    Mutant("csv.near_tie_rounded", CSVTEXT,
           "(np.abs(frac - 0.5) > 1e-9)",
           "(np.abs(frac - 0.5) > -1.0)",
           (f"{TX}::test_every_float_cell_is_what_percent_prints",)),
    Mutant("csv.no_dekker_error", CSVTEXT,
           "rest = (p - whole) + ((((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo)",
           "rest = (p - whole) + a * lo",
           (f"{TX}::test_every_float_cell_is_what_percent_prints",)),
    Mutant("D.whole_grid_at_once", CESARO,
           "_D_POINTS = 4096",
           "_D_POINTS = 10**9",
           (f"{TS}::test_D_bisection_memory_does_not_grow_with_the_grid",)),
    Mutant("D.chunk_without_the_pair_before", CESARO,
           "r_grid[max(i - 1, 0) : i + _D_POINTS]",
           "r_grid[i : i + _D_POINTS + 1]",
           (f"{TS}::test_D_bisection_in_chunks_keeps_the_bits_of_one_pass",)),
    Mutant("summaries.nan_block_drops_its_prefix", CESARO,
           "np.column_stack((norm, top, index, f, step))[:finite]",
           "np.column_stack((norm, top, index, f, step))[:finite if finite == rows.size else 0]",
           (f"{TU}::test_bad_point_in_a_later_block_raises_after_the_rows_before_it[curve]",
            f"{TU}::test_bad_point_in_a_later_block_raises_after_the_rows_before_it[trajectory]")),
    Mutant("summaries.first_step_from_its_own_block", CESARO,
           "np.concatenate((y[:1] if prev is None else prev, y[:-1]))",
           "np.concatenate((y[:1], y[:-1]))",
           (f"{TU}::test_blocks_keep_the_bits_of_one_call_per_point[sparse-C_M]",
            f"{TU}::test_blocks_keep_the_bits_of_one_call_per_point[sparse-C_T]",
            f"{TU}::test_blocks_keep_the_bits_of_one_call_per_point[full-C_T]")),
    Mutant("sum_identities.block_skipped_by_its_least_bound", VERIFICATION,
           "if bound[i:top].max() <= worst:",
           "if bound[i:top].min() <= worst:",
           (f"{TV}::test_sum_identities_skip_no_block_that_holds_the_largest_gap[700-1.0-1e-09]",)),
    Mutant("poisson.rest_first_factor_only", EXP,
           "rest = p * q * ((j + 1) / (1.0 - q) + q / (1.0 - q) ** 2)",
           "rest = p * q",
           tuple(f"{TE}::test_poisson_window_loss_covers_the_dropped_first_moment[{t}-{tol}]"
                 for t in ("0.01", "700.0", "10000.0") for tol in ("1e-10", "1e-30"))),
    Mutant("renorm.one_power_fewer", EXP,
           "T.powers(x.coords, T.certified_power - 1))",
           "T.powers(x.coords, T.certified_power - 2))",
           (f"{TE}::test_renorm_equals_the_walk_over_4096_powers[weighted_shift_3]",)),
    Mutant("verdict.floor_at_one_half", DIAGNOSTICS,
           "UNIFORM_FLOOR = 1.0 - 1.0 / math.e",
           "UNIFORM_FLOOR = 0.5",
           (f"{TD}::test_mass_escape_below_the_floor_is_inconclusive",)),
    Mutant("mean_rows.coupling_over_r_before_the_prefix", SEMIGROUPS,
           "            coupling *= prefix\n            if mean:\n                coupling /= grid\n",
           "            if mean:\n                coupling /= grid\n            coupling *= prefix\n",
           (f"{TB}::test_means_block_rows_are_the_one_point_means[gathered-257-C_T]",
            f"{TB}::test_means_block_rows_are_the_one_point_means[sliced-1024-C_T]")),
    Mutant("family.pair_width_dropped", COEFFS,
           "coupling = np.divide(-grid, np.divide(g, h[top] - prev, out=g))",
           "coupling = np.divide(-grid, g)",
           (f"{TU}::test_summaries_pin_the_full_rows[257-signed_gap-T]",
            f"{TU}::test_summaries_pin_the_full_rows[65536-signed_gap-T]",
            f"{TV}::test_invariant_holds[N257-check_summaries_match_rows]",
            f"{TK}::test_family_coupling_over_a_wide_pair_against_high_precision[37]",
            f"{TK}::test_support_index_1_pairs_with_one_half_and_stays_finite_at_t_0")),
    Mutant("adjoint.float_object_per_entry", SEMIGROUPS,
           "for term in sums[start : start + 4096].tolist():",
           "for term in sums.tolist()[start : start + 4096]:",
           (f"{TG}::test_adjoint_residual_holds_a_few_arrays_not_a_float_object_per_entry",)),
    Mutant("semigroups.matrix_B_coupling", SEMIGROUPS,
           "np.divide(1.0, np.multiply(h[1:], h[:-1], out=below[1:]), out=below[1:])",
           "np.divide(1.0 + 1e-9, np.multiply(h[1:], h[:-1], out=below[1:]), out=below[1:])",
           (f"{TV}::test_invariant_holds[N257-check_adjoint_residual]",
            f"{TV}::test_invariant_holds[N257-check_kernel_criterion_consistency]")),
]

# one per verification.CHECKS entry: its comparison flipped, or its slack dropped; the registry
# run of that check at the named N is the test that must fail.  (check, N, old, new)
_CHECK_EDITS = [
    ("check_space_holder", 2, "worst = max(worst, slack)", "worst = max(worst, -slack)"),
    ("check_space_partial_sum_decomposition", 2,
     "step = below + space.project_Q(x, h).coords", "step = below - space.project_Q(x, h).coords"),
    ("check_space_projections", 2,
     "worst = max(worst, norm_l1(once) - norm_l1(x))", "worst = max(worst, norm_l1(x) - norm_l1(once))"),
    ("check_space_expansion_uniqueness", 2,
     "consistent = all_zero == (norm_l1(x) == 0.0)", "consistent = all_zero != (norm_l1(x) == 0.0)"),
    ("check_coeffs_sum_identities", 2,
     '_result("coeffs.sum_identities_exactness", worst, 1e-13)',
     '_result("coeffs.sum_identities_exactness", worst, 0.0)'),
    ("check_coeffs_positivity", 2,
     "float(-coeffs.b_row(t, min(ctx.N, 4096)).min())", "float(coeffs.b_row(t, min(ctx.N, 4096)).max())"),
    ("check_coeffs_tail_consistency", 2,
     '_result("coeffs.tail_consistency", worst, 1e-14)', '_result("coeffs.tail_consistency", worst, 0.0)'),
    ("check_coeffs_integral_derivative", 2,
     '_result("coeffs.integral_derivative_fd", worst, 1e-8)', '_result("coeffs.integral_derivative_fd", worst, 0.0)'),
    ("check_coeffs_integral_vs_quadrature", 2,
     '_result("coeffs.integral_vs_quadrature_rel", worst, 1e-10)',
     '_result("coeffs.integral_vs_quadrature_rel", worst, 0.0)'),
    ("check_semigroup_law_M", 2,
     '_result("semigroups.law_M_exact", worst, 1e-14)', '_result("semigroups.law_M_exact", worst, 0.0)'),
    ("check_semigroup_law_T", 257,
     "bound = 2.0 * coeffs.tail_sum_b(ctx.N, t + s)", "bound = 0.0 * coeffs.tail_sum_b(ctx.N, t + s)"),
    ("check_opnorm_M_minus_I", 2,
     '_result("semigroups.opnorm_M_minus_I_exact", worst, 1e-14)',
     '_result("semigroups.opnorm_M_minus_I_exact", worst, 0.0)'),
    ("check_opnorm_M_bounded", 2,
     '_result("semigroups.opnorm_M_le_one", worst, 1.0 + 1e-15)',
     '_result("semigroups.opnorm_M_le_one", worst, 1.0 - 1e-15)'),
    ("check_nonnegativity", 1,
     "worst = max(worst, -builder(t, ctx.small_N).min_entry())",
     "worst = max(worst, builder(t, ctx.small_N).min_entry())"),
    ("check_column_stochasticity", 257,
     '_result("semigroups.column_deficit_in_range", worst, 1e-14 * ctx.small_N)',
     '_result("semigroups.column_deficit_in_range", worst, 0.0 * ctx.small_N)'),
    ("check_adjoint_residual", 257,
     '_result("semigroups.adjoint_residual_uniform", worst, 1e-15)',
     '_result("semigroups.adjoint_residual_uniform", worst, 0.0)'),
    ("check_f_invariance", 2, "worst = max(worst, drift - allowed)", "worst = max(worst, allowed - drift)"),
    ("check_spectrum", 2,
     "entries[np.tri(n, dtype=bool)] = 0.0", "entries[~np.tri(n, dtype=bool)] = 0.0"),
    ("check_matrix_B_consistency", 2,
     "entries - images.T", "entries + images.T"),
    ("check_kernel_B", 2,
     "0.0 if semigroups.kernel_B(ctx.N) else 1.0", "1.0 if semigroups.kernel_B(ctx.N) else 0.0"),
    ("check_renorm_contractive", 2,
     "exp_semigroup.renorm(T.operator.apply(x), T) - exp_semigroup.renorm(x, T)",
     "exp_semigroup.renorm(x, T) - exp_semigroup.renorm(T.operator.apply(x), T)"),
    ("check_renorm_axioms", 2,
     '_result("exp.renorm_norm_axioms", worst, 1e-12)', '_result("exp.renorm_norm_axioms", worst, 0.0)'),
    ("check_fixed_vector_transfer", 2,
     '_result("exp.fixed_vector_transfer", worst, tol)', '_result("exp.fixed_vector_transfer", worst, 0.0 * tol)'),
    ("check_S_monotone_bound", 2,
     "ratio = exp_semigroup.renorm(exp_semigroup.apply_S(t, x, T, tol), T) / exp_semigroup.renorm(x, T)",
     "ratio = exp_semigroup.renorm(x, T) / exp_semigroup.renorm(exp_semigroup.apply_S(t, x, T, tol), T)"),
    ("check_S_defect", 2,
     '_result("exp.semigroup_defect", worst, 4.0 * tol * T.power_bound)',
     '_result("exp.semigroup_defect", worst, 0.0 * tol * T.power_bound)'),
    ("check_oracle_cesaro_M", 2,
     '_result("cesaro.oracle_equivalence_M", worst, max(1e-9, 10 * 1e-11))',
     '_result("cesaro.oracle_equivalence_M", worst, 0.0)'),
    ("check_oracle_cesaro_T", 2,
     '_result("cesaro.oracle_equivalence_T", worst, max(1e-9, 10 * 1e-11))',
     '_result("cesaro.oracle_equivalence_T", worst, 0.0)'),
    ("check_strong_convergence_M", 2, "worst = max(worst, value - k / r)", "worst = max(worst, k / r - value)"),
    ("check_uniform_floor", 2,
     "diagnostics.UNIFORM_FLOOR - cesaro.cesaro_M_opnorm(float(r), ctx.N))",
     "cesaro.cesaro_M_opnorm(float(r), ctx.N) - diagnostics.UNIFORM_FLOOR)"),
    ("check_mass_escape_T", 2,
     "shortfall = (1.0 - r / (2.0 * ctx.N)) - fval", "shortfall = fval - (1.0 - r / (2.0 * ctx.N))"),
    ("check_linearity", 257,
     '_result("cesaro.linearity", worst, 1e-12)', '_result("cesaro.linearity", worst, 0.0)'),
    ("check_summaries_match_rows", 257,
     '_result("cesaro.summaries_match_rows", worst, 1e-13)', '_result("cesaro.summaries_match_rows", worst, 0.0)'),
    ("check_verdict_soundness", 2,
     "verdict.witness >= verdict.threshold", "verdict.witness < verdict.threshold"),
    ("check_kernel_criterion_consistency", 2,
     '_result("diagnostics.kernel_criterion_consistency", worst, 1e-15)',
     '_result("diagnostics.kernel_criterion_consistency", worst, 0.0)'),
    ("check_opnorm_crossing", 2,
     ">= diagnostics.UNIFORM_FLOOR - 1e-12]", "< diagnostics.UNIFORM_FLOOR - 1e-12]"),
    ("check_mass_accounting", 2, "worst = max(worst, n1 - 1.0,", "worst = max(worst, 1.0 - n1,"),
]

CHECK_MUTANTS = [Mutant(check, VERIFICATION, old, new, (f"{TV}::test_invariant_holds[N{n}-{check}]",))
                 for check, n, old, new in _CHECK_EDITS]

MUTANTS = RECORDED + CHECK_MUTANTS


def stale(mutants) -> list[str]:
    """Mutants whose old text does not occur exactly once in the checkout's file."""
    return [m.name for m in mutants if (ROOT / m.path).read_text().count(m.old) != 1]


def _pytest(work: Path, tests) -> tuple[str, set[str] | str]:
    """Run ``tests`` in ``work``: ("ran", failed or errored node IDs), or ("timeout" | "missing" | "broken", why)."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "--no-header", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", f"timed out after {TIMEOUT_S} s"
    if proc.returncode in (4, 5):  # a named test that pytest cannot find
        return "missing", output.strip().splitlines()[-1] if output.strip() else ""
    # the short summary: "FAILED <node id> - ..." or "ERROR <node id or, for a collection error, file>"
    failed = {line.split()[1] for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    files = sorted(node for node in failed if "::" not in node)
    return ("broken", "collection error in " + ", ".join(files)) if files else ("ran", failed)


def _verdict(outcome: str, failed, tests) -> tuple[str, str]:
    """caught, survived (a named test passed), or invalid (a named test missing, or a test file broken)."""
    if outcome == "timeout":
        return "caught", failed
    if outcome != "ran":
        return "invalid", failed
    passed = [test for test in tests if test not in failed]
    return ("survived", "passed: " + ", ".join(passed)) if passed else ("caught", "")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    problems = [f"unknown mutant: {name}" for name in sorted(set(argv) - {m.name for m in MUTANTS})]
    problems += [f"stale: the old text of {name} does not occur exactly once" for name in stale(chosen)]
    problems += [f"no test named for {m.name}" for m in chosen if not m.tests]
    if problems:
        print("\n".join(problems))
        return 2
    survivors, invalid, start = [], [], time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        outcome, failed = _pytest(work, sorted({test for m in chosen for test in m.tests}))
        if outcome != "ran" or failed:  # a named test that fails unmutated would make every verdict vacuous
            print(f"the named tests do not all pass unmutated: {outcome} {failed}")
            return 2
        for m in chosen:
            target = work / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            began = time.monotonic()
            try:
                verdict, detail = _verdict(*_pytest(work, m.tests), m.tests)
            finally:
                target.write_text(original)
            print(f"{verdict:8s} {time.monotonic() - began:6.1f} s  {m.name}" + (f"  ({detail})" if detail else ""),
                  flush=True)
            (survivors if verdict == "survived" else invalid if verdict == "invalid" else []).append(m.name)
    print(f"{len(chosen)} mutants, {len(survivors)} survived, {len(invalid)} invalid, "
          f"in {time.monotonic() - start:.0f} s")
    return 2 if invalid else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
