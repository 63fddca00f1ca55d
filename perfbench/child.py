"""One benchmark call in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

The spec names the CLI argv (or none, for an import-only set-up probe),
whether to trace, and where to write the result.  The runner starts this
script with PYTHONPATH pointing at the checkout's ``src``.  The first
thing it does is import ``ergodiclab.cli`` (numpy included), so the
time from process spawn to the ``ready`` stamp below is the set-up cost
every CLI user pays.
"""

import sys
import time

import ergodiclab.cli as cli

READY = time.monotonic()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _blas_facts() -> dict:
    """BLAS library, version and live thread count of the loaded numpy."""
    import numpy as np

    facts = {"numpy": np.__version__, "python": platform.python_version()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        facts["blas"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                break
    return facts


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = {"ready": READY, "module": os.path.abspath(cli.__file__)}
    if spec.get("facts"):
        result["facts"] = _blas_facts()
    argv = spec.get("argv")
    if argv is not None:
        recorder = None
        if spec.get("trace"):
            from tracing import Recorder

            recorder = Recorder()
            recorder.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            result["rc"] = cli.main(argv)
        except SystemExit as exc:
            result["rc"] = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            result["rc"] = None
            result["error"] = traceback.format_exc()
        result["main_s"] = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["maxrss_kb"] = after.ru_maxrss
        result["user_s"] = after.ru_utime - before.ru_utime
        result["sys_s"] = after.ru_stime - before.ru_stime
        result["minor_faults"] = after.ru_minflt - before.ru_minflt
        if recorder is not None:
            result["spans"] = recorder.summary()
            result["evals"] = recorder.evals
            result["missing_targets"] = recorder.missing
            if spec.get("spans_path"):
                with open(spec["spans_path"], "w") as fh:
                    json.dump(recorder.dump(), fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
