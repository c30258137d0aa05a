"""One benchmark child process: import diracbound.cli, optionally run main.

Usage: python3 child.py REPORT MODE [TRACE_OUT] -- [CLI ARGS...]

MODE is one of
  setup      import only; report when the import returned
  warmup     the same, and report the OpenBLAS thread count
  run        run cli.main on the CLI args, untraced
  trace      the same with the tracer installed; spans go to TRACE_OUT
  selfcheck  trace under cProfile and compare call counts

REPORT receives a JSON object of CLOCK_MONOTONIC readings, which the
parent shares, so it can split spawn-to-exit time into import and main.
"""

import json
import sys
import time

import diracbound.cli

_IMPORTED = time.monotonic()


def _openblas_threads():
    """Threads OpenBLAS runs with, read from the loaded library."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def main():
    report_path, mode = sys.argv[1], sys.argv[2]
    sep = sys.argv.index("--")
    trace_out = sys.argv[3] if sep > 3 else None
    argv = sys.argv[sep + 1:]
    report = {"imported": _IMPORTED, "module_file": diracbound.__file__}
    rc = 0
    if mode == "warmup":
        report["openblas_threads"] = _openblas_threads()
    elif mode != "setup":
        tracer = prof = None
        if mode in ("trace", "selfcheck"):
            import tracer as tracing
            tracer = tracing.Tracer().install()
        if mode == "selfcheck":
            import cProfile
            prof = cProfile.Profile()
            prof.enable()
        report["main_start"] = time.monotonic()
        rc = diracbound.cli.main(argv)
        sys.stdout.flush()
        report["main_end"] = time.monotonic()
        if prof is not None:
            prof.disable()
            prof.create_stats()
            report["mismatches"] = tracing.profile_mismatches(tracer, prof.stats)
            report["calls"] = tracer.calls()
        if tracer is not None:
            tracer.dump(trace_out)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
