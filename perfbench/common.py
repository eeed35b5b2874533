"""Paths and process settings shared by the benchmark's processes."""
from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# BLAS and OpenMP pools pinned to one thread for the benchmark's own
# processes; the values are recorded with every result.
THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def pin_threads() -> None:
    """Must run before numpy is first imported in this process."""
    os.environ.update(THREAD_VARS)
    for var in ("EMBLEND_REMOTE_ENDPOINT", "EMBLEND_DESCRIBE_ENDPOINT",
                "EMBLEND_REMOTE_API_KEY"):
        os.environ.pop(var, None)


def use_checkout_sources() -> None:
    """Import emblend from the checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "emblend", "__init__.py")):
        raise SetupError(f"no emblend sources under {SRC}")
    pin_threads()
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
