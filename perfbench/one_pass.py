"""One benchmark pass, in the fresh interpreter ``run.py`` starts for it.

A fresh process pays every ``lru_cache`` fill again (NC enumeration, the
Moebius table), as each ``freestein`` command does.  Set-up (importing
freestein and building the workload's inputs) is timed from the first line
of this file; the pass itself follows.  With ``--side`` the process runs
the workload's probe (``workloads.PROBE``) in place of the pass and reports
provenance.  The result is written as JSON to ``--result``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def provenance() -> dict:
    """Interpreter, numpy, BLAS and kernel backend of this process."""
    import ctypes
    import os
    import platform

    import numpy as np

    from freestein import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model() or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(ctypes, np),
        "kernels_backend": _kernels.BACKEND,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def _blas_threads(ctypes, np):
    """Thread count of the OpenBLAS that numpy wheels bundle, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--side", action="store_true", help="set-up and probe only, with provenance")
    args = ap.parse_args()

    import inputs
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    state = workloads.SETUP[args.workload](inputs.make_inputs(args.workload, args.seed), args.workdir)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if args.side:
        p = workloads.Pass()
        if args.workload in workloads.PROBE:
            workloads.PROBE[args.workload](state, p)
        result["provenance"] = provenance()
    else:
        import tracing

        recorder = tracing.Recorder() if args.trace else None
        if recorder:
            tracing.install(recorder)
        p = workloads.Pass(recorder)
        workloads.RUN[args.workload](state, p, args.seed)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder:
            import catalog

            result["layers"] = tracing.layer_metrics(recorder, catalog.PER_LAYER)
            recorder.dump(args.workdir / "spans.json")
    result.update(p.timers, attempted=p.attempted, failures=p.failures)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
