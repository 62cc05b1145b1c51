"""Loads irscollab from the checkout that holds this benchmark.

The benchmark measures the sources next to it, never an installed copy, so
the package is imported from ``<root>/src`` and its location is checked.
BLAS threads are capped at the number of usable cores before numpy loads,
so all load comes from one process with no more threads than cores.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Set each BLAS thread variable to at most the usable core count."""
    cores = usable_cores()
    for var in _THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)


def load():
    """Import irscollab from this checkout's src/ and nowhere else."""
    package = SRC / "irscollab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no irscollab sources at {package}")
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import irscollab

    if Path(irscollab.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported irscollab from {irscollab.__file__}, not {package}")
    return irscollab


def _openblas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What the results depend on besides the code: cores, versions, BLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": usable_cores(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
    }
