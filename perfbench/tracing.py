"""Span recorder for the traced run, installed on ergodiclab from outside.

Each target is a public function, method or constructor hook of the
program.  The wrapper records one span per call (name, parent, start,
end).  Modules bind names with ``from ... import ...``, so the wrapper is
bound in every ergodiclab namespace (and module-level list, such as
``verification.CHECKS``) that holds the original object.

The catalogue below is also the per-layer metric list of BENCHMARK.json:
``SPLIT`` targets report ``<span>.calls`` and ``<span>.self_s``;
``TOTAL`` targets report ``<span>.s``, the inclusive time summed over calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, attribute path)
SPLIT = {
    "space.project_Q": ("ergodiclab.space", "project_Q"),
    "space.project_P": ("ergodiclab.space", "project_P"),
    # construction cost (validation and copy) of every vector
    "space.TruncatedVector": ("ergodiclab.space", "TruncatedVector.__post_init__"),
    "space.norm_l1": ("ergodiclab.space", "norm_l1"),
    "space.pair": ("ergodiclab.space", "pair"),
    "coeffs.b_row": ("ergodiclab.coeffs", "b_row"),
    "coeffs.integral_b_row": ("ergodiclab.coeffs", "integral_b_row"),
    "coeffs.b": ("ergodiclab.coeffs", "b"),
    "coeffs.integral_b": ("ergodiclab.coeffs", "integral_b"),
    "semigroups.apply_M": ("ergodiclab.semigroups", "apply_M"),
    "semigroups.apply_T": ("ergodiclab.semigroups", "apply_T"),
    "semigroups.adjoint_residual_vector": ("ergodiclab.semigroups", "adjoint_residual_vector"),
    "semigroups.kernel_B": ("ergodiclab.semigroups", "kernel_B"),
    "semigroups.opnorm_l1": ("ergodiclab.semigroups", "opnorm_l1"),
    "semigroups.matrix_T": ("ergodiclab.semigroups", "matrix_T"),
    "semigroups.from_sparse_triples": ("ergodiclab.semigroups", "from_sparse_triples"),
    "semigroups.matrix_B": ("ergodiclab.semigroups", "matrix_B"),
    "semigroups.to_sparse_triples": ("ergodiclab.semigroups", "to_sparse_triples"),
    "cesaro.cesaro_M": ("ergodiclab.cesaro", "cesaro_M"),
    "cesaro.cesaro_T": ("ergodiclab.cesaro", "cesaro_T"),
    "cesaro.CesaroCurve.to_csv": ("ergodiclab.cesaro", "CesaroCurve.to_csv"),
    "cesaro.adaptive_simpson": ("ergodiclab.cesaro", "adaptive_simpson"),
    "cesaro.cesaro_quadrature": ("ergodiclab.cesaro", "cesaro_quadrature"),
    "diagnostics.cauchy_convergence_test": ("ergodiclab.diagnostics", "cauchy_convergence_test"),
    "diagnostics.kernel_criterion": ("ergodiclab.diagnostics", "kernel_criterion"),
    "exp_semigroup.PowerBoundedOperator.from_matrix": (
        "ergodiclab.exp_semigroup",
        "PowerBoundedOperator.from_matrix",
    ),
    "exp_semigroup.apply_S": ("ergodiclab.exp_semigroup", "apply_S"),
    "exp_semigroup.renorm": ("ergodiclab.exp_semigroup", "renorm"),
}

CHECK_NAMES = [
    "check_space_holder",
    "check_space_partial_sum_decomposition",
    "check_space_projections",
    "check_space_expansion_uniqueness",
    "check_coeffs_sum_identities",
    "check_coeffs_positivity",
    "check_coeffs_tail_consistency",
    "check_coeffs_integral_derivative",
    "check_coeffs_integral_vs_quadrature",
    "check_semigroup_law_M",
    "check_semigroup_law_T",
    "check_opnorm_M_minus_I",
    "check_opnorm_M_bounded",
    "check_nonnegativity",
    "check_column_stochasticity",
    "check_adjoint_residual",
    "check_f_invariance",
    "check_spectrum",
    "check_matrix_B_consistency",
    "check_kernel_B",
    "check_renorm_contractive",
    "check_renorm_axioms",
    "check_fixed_vector_transfer",
    "check_S_monotone_bound",
    "check_S_defect",
    "check_oracle_cesaro_M",
    "check_oracle_cesaro_T",
    "check_strong_convergence_M",
    "check_uniform_floor",
    "check_mass_escape_T",
    "check_linearity",
    "check_verdict_soundness",
    "check_kernel_criterion_consistency",
    "check_opnorm_crossing",
    "check_mass_accounting",
]

TOTAL = {
    "cli.cmd_simulate": ("ergodiclab.cli", "cmd_simulate"),
    "cli.cmd_cesaro": ("ergodiclab.cli", "cmd_cesaro"),
    "cli.cmd_verify": ("ergodiclab.cli", "cmd_verify"),
    "cli.cmd_matrix": ("ergodiclab.cli", "cmd_matrix"),
    "cli.ExperimentConfig.power_operator": ("ergodiclab.cli", "ExperimentConfig.power_operator"),
    **{f"verification.{name}": ("ergodiclab.verification", name) for name in CHECK_NAMES},
}

# counted by wrapping the integrand passed to cesaro.adaptive_simpson
EVALS = "cesaro.adaptive_simpson.evals"

# measured by the runner from the children's rusage, not by spans
PROC = ["proc.user_s", "proc.sys_s", "proc.minor_faults"]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in catalogue order."""
    units = {}
    for name in SPLIT:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in TOTAL:
        units[f"{name}.s"] = "s"
    units[EVALS] = "count"
    units.update({"proc.user_s": "s", "proc.sys_s": "s", "proc.minor_faults": "count"})
    units.update({"cli.output_bytes": "bytes", "trace.overhead_s": "s"})
    return units


class Recorder:
    """Keeps spans in memory as [name, parent, start, end] until the call ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.evals = 0
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def wrap_simpson(self, name: str, fn):
        def counted(f):
            def integrand(s):
                self.evals += 1
                return f(s)

            return integrand

        @functools.wraps(fn)
        def with_counter(f, *args, **kwargs):
            return fn(counted(f), *args, **kwargs)

        return self.wrap(name, with_counter)

    def install(self):
        """Wrap every catalogue target and rebind it wherever it is bound."""
        rebind = {}
        for name, (modname, path) in {**SPLIT, **TOTAL}.items():
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = (self.wrap_simpson if name == "cesaro.adaptive_simpson" else self.wrap)(name, fn)
            setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            rebind[id(fn)] = wrapper
        for modname, module in list(sys.modules.items()):
            if modname != "ergodiclab" and not modname.startswith("ergodiclab."):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in rebind:
                    setattr(module, key, rebind[id(value)])
                elif isinstance(value, list):
                    value[:] = [rebind.get(id(item), item) for item in value]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, _parent, start, end) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[idx]
        return out

    def dump(self) -> dict:
        """Spans in a compact form: names table plus [name, parent, start, end] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "parent", "start", "end"],
            "spans": [[index[n], p, round(a, 9), round(b, 9)] for n, p, a, b in self.spans],
        }


def span_metrics(summaries: list[dict], evals: int) -> dict[str, float]:
    """Fold the span summaries of one iteration's calls into per-layer metrics."""
    merged: dict[str, dict] = {}
    for summary in summaries:
        for name, agg in summary.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
    metrics = {}
    for name in SPLIT:
        agg = merged.get(name, {})
        metrics[f"{name}.calls"] = agg.get("calls", 0)
        metrics[f"{name}.self_s"] = agg.get("self_s", 0.0)
    for name in TOTAL:
        metrics[f"{name}.s"] = merged.get(name, {}).get("total_s", 0.0)
    metrics[EVALS] = evals
    return metrics
