"""One dtscatter CLI invocation in a fresh interpreter, timed from inside.

    python3 child.py SPAWN_T RECORD_PATH TRACE [CONFIG_PATH]

SPAWN_T is run.py's ``time.monotonic()`` just before it spawned this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks
compare).  The child imports ``dtscatter.cli`` first, so that ``setup_s``
covers interpreter start plus the package import and nothing else, then
runs ``cli.main(["--config", CONFIG_PATH])`` and writes a JSON record to
RECORD_PATH.  Untraced, it also times a fixed pure-Python loop
(``calibrate``) right before and right after ``main``; run.py scales the
invocation's times by the loop's speed to remove the host's speed swings
from the end-to-end metrics (README.md, "Host speed").  With TRACE = 1 the public functions listed in tracer.py are
wrapped before ``main`` runs and their spans go into the record.  Without
CONFIG_PATH the child only imports the package and records the
environment (interpreter, numpy, BLAS library and thread count).
"""

import sys
import time

import dtscatter.cli as cli

_IMPORTED = time.monotonic()

import json  # noqa: E402  (after the timed import on purpose)
import os  # noqa: E402
import traceback  # noqa: E402


def _blas_threads(numpy_dir: str):
    """Thread count of the OpenBLAS bundled with numpy, or None if numpy
    uses another BLAS."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy_dir), "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(os.path.dirname(np.__file__)),
        "nproc": os.cpu_count(),
    }


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: dict updates, integer
    arithmetic and bytes copies, about 6.5 ms on a 2.1 GHz Xeon vCPU that
    the host does not slow.  It uses nothing of dtscatter or numpy, so no
    change to the program moves it."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(50000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    block = bytes(range(256)) * 256
    for _ in range(20):
        block = block[1:] + block[:1]
    return time.perf_counter() - start


def _exit_code(main, argv) -> int:
    """``main(argv)``'s exit code as the interpreter would report it: an
    uncaught exception is exit 1 with its traceback on stderr."""
    try:
        return main(argv)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> int:
    spawn_t, record_path, trace = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    record = {"setup_s": _IMPORTED - spawn_t}
    if len(sys.argv) < 5:
        record["environment"] = _environment()
    else:
        argv = ["--config", sys.argv[4]]
        if trace == "1":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            start = time.monotonic()
            code = tracer.call_root(_exit_code, cli.main, argv)
            record["cmd_s"] = time.monotonic() - start
            record["trace"] = tracer.record()
        else:
            before = calibrate()
            start = time.monotonic()
            code = _exit_code(cli.main, argv)
            record["cmd_s"] = time.monotonic() - start
            record["calibrate_s"] = [before, calibrate()]
        record["exit"] = code
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
