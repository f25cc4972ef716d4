"""What every part of the benchmark shares: where the program is, how to
import it, and how to summarise timings.

The benchmark lives in ``perfbench/`` at the root of a checkout and
runs the program from that checkout's ``src/``. It never falls back to
an installed copy: without ``src/repro`` the import fails and the run
exits non-zero before printing a result.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from typing import Dict, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Traces and other run output; inside the checkout, ignored by git.
OUT_DIR = ROOT / ".perfbench_out"


class BenchError(Exception):
    """A correctness check failed, or a metric could not be measured."""


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``.

    The workload and result caches are turned off: they would write
    outside the checkout and would let a later run skip the work it is
    meant to time.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    os.environ["REPRO_CACHE"] = "off"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def l1(before: Dict[object, float], after: Dict[object, float]) -> float:
    """L1 distance between two region-length maps."""
    keys = set(before) | set(after)
    return sum(abs(after.get(k, 0.0) - before.get(k, 0.0)) for k in keys)


def metric(value: float, unit: str) -> Dict[str, object]:
    if not math.isfinite(value):
        raise BenchError(f"metric value {value!r} is not finite")
    return {"value": float(value), "unit": unit}
