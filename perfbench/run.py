"""Benchmark of the ergodiclab command line, one fresh process per call.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration of a workload runs its CLI calls one after another, each
in a new interpreter that imports ``ergodiclab.cli`` from ``src`` and
calls ``main(argv)`` once; a repeat inside one process would hide the
first-touch and import costs every CLI user pays.  The runner itself is
stdlib only and single-threaded, and runs one child at a time.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` (median over iterations of the summed in-child ``main`` time),
``setup_s`` (median spawn-to-imported time of every child in the run) and
``peak_rss_mb`` (median over iterations of the largest child ``ru_maxrss``).
With ``--trace 1`` untraced and traced iterations alternate, and the line
reports the per-layer metrics of ``tracing.py``.  The line before it holds
the details: quartiles, sample counts, inputs and machine facts.  Both go
to ``.perfbench_out/results``; the spans of the last traced iteration go
to ``.perfbench_out/spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import COVERAGE, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 10     # import-only children per run, on top of one per CLI call
MIN_ITERATIONS = 3    # untraced iterations per --trace 0 run, unless that takes twice --seconds
RUN_LIMIT_S = 170.0   # a run must end within 180 s; no iteration starts that would pass this
# One BLAS thread per child: with one child at a time on a small box, a second
# thread made the dense S workload slower and its times noisier.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(Exception):
    pass


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_facts(nproc: int) -> dict:
    """Host facts recorded with every result (read-only probes of /proc and /sys)."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        if level and kind:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(f"{base}/{entry}/size")
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "process_model": "fresh interpreter per CLI call, one child at a time, single-threaded runner",
        "runner_threads": threading.active_count(),
    }


class Children:
    """Starts one child at a time and collects its result file."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({var: "1" for var in THREAD_VARS})

    def run(self, argv=None, trace=False, facts=False, spans_path=None) -> dict:
        self.count += 1
        spec_path = self.work / f"spec{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        err_path = self.work / f"stderr{self.count}.txt"
        spec = {"argv": argv, "trace": trace, "facts": facts, "result": str(result_path),
                "spans_path": str(spans_path) if spans_path else None}
        spec_path.write_text(json.dumps(spec))
        with open(err_path, "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    env=self.env, cwd=self.work, stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=max(1.0, self.deadline - spawned))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise ChildFailed(f"{argv}: killed at the run's time limit") from None
        if proc.returncode != 0 or not result_path.exists():
            raise ChildFailed(f"{argv}: child exited {proc.returncode}: {err_path.read_text()[-2000:]}")
        result = json.loads(result_path.read_text())
        if Path(result["module"]).resolve().parent.parent != SRC.resolve():
            raise ChildFailed(f"imported ergodiclab from {result['module']}, not from {SRC}")
        result["setup_s"] = result["ready"] - spawned
        if result.get("rc") != 0 and argv is not None:
            result["error"] = result.get("error") or err_path.read_text()[-2000:]
        return result


def _tree(out: Path) -> tuple[str, int]:
    """Digest and total size of every file the call wrote."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def run_iteration(children: Children, workload, trace: bool, outputs: Path, digests: dict,
                  spans_dir: Path | None) -> dict:
    it = {"wall_s": 0.0, "peak_rss_mb": 0.0, "user_s": 0.0, "sys_s": 0.0, "minor_faults": 0,
          "output_bytes": 0, "setups": [], "calls": {}, "errors": [], "spans": [], "evals": 0,
          "attempted": 0, "complete": False}
    for call in workload.calls:
        out = outputs / call.name
        shutil.rmtree(out, ignore_errors=True)
        spans_path = spans_dir / f"{call.name}.json" if spans_dir else None
        it["attempted"] += 1
        try:
            res = children.run(call.argv + ["--out", str(out.relative_to(children.work))], trace=trace,
                               spans_path=spans_path)
        except ChildFailed as exc:
            it["errors"].append(f"{call.name}: {exc}")
            return it
        error = None
        if res.get("rc") != 0:
            error = f"exit code {res.get('rc')} {res.get('error') or ''}".strip()
        else:
            try:
                call.check(out)
            except Exception as exc:  # a malformed artifact must count as a failed call
                error = f"{type(exc).__name__}: {exc}"
        digest, size = _tree(out) if out.exists() else ("", 0)
        # same seed, same inputs: every iteration (traced or not) must write the same bytes
        if error is None and digests.setdefault(call.name, digest) != digest:
            error = "outputs differ from the first iteration of this run"
        if error:
            it["errors"].append(f"{call.name}: {error}")
        it["calls"][call.name] = res["main_s"]
        it["wall_s"] += res["main_s"]
        it["peak_rss_mb"] = max(it["peak_rss_mb"], res["maxrss_kb"] / 1024.0)
        for key in ("user_s", "sys_s", "minor_faults"):
            it[key] += res[key]
        it["output_bytes"] += size
        it["setups"].append(res["setup_s"])
        if trace:
            it["spans"].append(res["spans"])
            it["evals"] += res["evals"]
            it["missing_targets"] = res["missing_targets"]
        shutil.rmtree(out, ignore_errors=True)
    it["complete"] = True
    return it


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_metrics(plain: list[dict], traced: list[dict], coverage: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced iterations; unreached layers from the coverage pass."""
    units = tracing.metric_units()
    per_iteration = [tracing.span_metrics(it["spans"], it["evals"]) for it in traced]
    values = {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
    reached = {span for it in traced for summary in it["spans"] for span in summary}
    filled = set()
    for name, value in tracing.span_metrics(coverage["spans"], coverage["evals"]).items():
        span = name.rsplit(".", 1)[0]
        if span not in reached:
            values[name] = value
            filled.add(span)
    for key in ("user_s", "sys_s", "minor_faults"):
        values[f"proc.{key}"] = statistics.median(it[key] for it in plain)
    values["cli.output_bytes"] = statistics.median(it["output_bytes"] for it in plain)
    values["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                  - statistics.median(it["wall_s"] for it in plain))
    return {name: _metric(values[name], unit) for name, unit in units.items()}, sorted(filled)


def bench(args, work: Path, deadline: float) -> int:
    nproc = len(os.sched_getaffinity(0))
    inputs = work / "inputs"
    inputs.mkdir()
    workload = WORKLOADS[args.workload](args.seed, inputs)
    children = Children(work, deadline)
    spans_dir = OUT / "spans" / f"{args.workload}-seed{args.seed}" if args.trace else None
    if spans_dir:
        spans_dir.mkdir(parents=True, exist_ok=True)

    # warm-up child: compiles bytecode and loads numpy's pages before anything is timed
    facts = machine_facts(nproc)
    facts.update(children.run(facts=True)["facts"])
    facts["thread_env"] = {var: children.env[var] for var in THREAD_VARS}
    setups = [children.run()["setup_s"] for _ in range(SETUP_PROBES)]

    plain, traced, errors = [], [], []
    digests: dict[str, str] = {}
    attempted = 0
    started = time.monotonic()
    min_iterations = 1 if args.trace else MIN_ITERATIONS
    aborted = False
    while not aborted:
        begun = time.monotonic()
        for trace in (False, True) if args.trace else (False,):
            it = run_iteration(children, workload, trace, work / "out", digests, spans_dir if trace else None)
            attempted += it["attempted"]
            errors += it["errors"]
            if not it["complete"]:
                aborted = True
                break
            (traced if trace else plain).append(it)
        now = time.monotonic()
        elapsed = now - started
        if elapsed >= args.seconds and (len(plain) >= min_iterations or elapsed >= 2 * args.seconds):
            break
        if now + (now - begun) > deadline:
            break
    if not plain or (args.trace and not traced):
        print(f"no complete iteration: {errors[:3]}", file=sys.stderr)
        return 1
    if args.trace:
        inputs = work / "coverage"
        inputs.mkdir()
        calls = [call for name, build in COVERAGE.items() if name != args.workload
                 for call in build(args.seed, inputs).calls]
        coverage = run_iteration(children, Workload(calls), True, work / "coverage_out", {}, None)
        attempted += coverage["attempted"]
        errors += coverage["errors"]

    setups += [s for it in plain + traced for s in it["setups"]]
    walls = [it["wall_s"] for it in plain]
    rss = [it["peak_rss_mb"] for it in plain]
    failed = len(errors)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "iterations": len(plain), "traced_iterations": len(traced),
        "wall_s": _quartiles(walls), "setup_s": _quartiles(setups), "peak_rss_mb": _quartiles(rss),
        "call_wall_s": {name: statistics.median(it["calls"][name] for it in plain) for name in plain[0]["calls"]},
        "error_rate": failed / attempted, "errors": errors[:10],
        "inputs": workload.inputs, "machine": facts,
    }
    if args.trace:
        detail["missing_targets"] = traced[-1].get("missing_targets", [])
        metrics, detail["coverage_spans"] = per_layer_metrics(plain, traced, coverage)
    else:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(rss), "MB"),
        }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"detail": detail, "metrics": metrics}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for message in errors[:10]:
        print(f"failed: {message[:500]}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ergodiclab" / "cli.py").is_file():
        print(f"program source not found: {SRC / 'ergodiclab'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return bench(args, work, deadline)
    except ChildFailed as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
