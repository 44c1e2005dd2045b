"""One `semibvm` CLI invocation in a fresh interpreter, with its costs.

Started by run.py as ``python3 perfbench/child.py REQUEST SPAWN_T``, where
REQUEST is a JSON file naming the source tree, the CLI arguments, whether
to trace, and where to write the result; SPAWN_T is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide, so set-up time spans both processes).

The result file records set-up time (process start until ``semibvm.cli``
is imported), the wall time of ``semibvm.cli.main(argv)``, the user plus
system CPU of that call and of the workers it waited for, the peak RSS of
this process, the exit code and the numeric runtime.  The process exits
with the CLI's exit code.
"""

import sys
import time


def _openblas() -> list[dict]:
    """Version and thread count of each OpenBLAS this process loaded (Linux)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": path.rsplit("/", 1)[-1]}
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}"):
            threads = getattr(lib, symbol.format("get_num_threads"), None)
            config = getattr(lib, symbol.format("get_config"), None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                entry.update(threads=int(threads()), config=config().decode())
                break
        out.append(entry)
    return out


def main() -> int:
    import json

    with open(sys.argv[1]) as fh:
        request = json.load(fh)
    spawn_t = float(sys.argv[2])
    sys.path.insert(0, request["src"])
    import semibvm.cli

    imported_t = time.monotonic()

    import os
    import resource

    src = os.path.realpath(request["src"])
    if not os.path.realpath(semibvm.cli.__file__).startswith(src + os.sep):
        print(f"semibvm imported from {semibvm.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def cpu() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    cpu0 = cpu()
    t0 = time.perf_counter()
    try:
        code = semibvm.cli.main(request["argv"])
    finally:
        wall = time.perf_counter() - t0
        cpu_s = cpu() - cpu0
        if tracer is not None:
            tracer.restore()
            tracer.write(request["spans"])

    import numpy
    import scipy

    result = {
        "exit_code": code,
        "setup_s": imported_t - spawn_t,
        "wall_s": wall,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runtime": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": _openblas(),
        },
    }
    with open(request["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
