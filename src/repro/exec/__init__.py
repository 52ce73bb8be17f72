"""Pluggable compute execution for the SHMT runtime (``repro.exec``).

Separates the portable program representation (what the DES runtime
schedules) from backend execution (where the numpy work runs) -- the HPVM
split applied to this reproduction.  Three pieces:

* :mod:`repro.exec.task` -- :class:`ComputeTask`, the pure unit of numeric
  work, plus content fingerprinting;
* :mod:`repro.exec.backends` -- ``serial`` / ``pool`` / ``process``
  backends behind one ``submit() -> TaskHandle`` interface;
* :mod:`repro.exec.cache` -- the content-addressed :class:`ResultCache`,
  one per experiment sweep (runtimes outside a sweep run without one).

Select with ``RuntimeConfig(backend=..., jobs=...)`` or the CLI
``--backend/--jobs`` flags.  See docs/performance.md.
"""

from repro.exec.backends import (
    ExecBackend,
    PoolBackend,
    ProcessBackend,
    ResolvedHandle,
    SerialBackend,
    TaskHandle,
    backend_names,
    default_jobs,
    make_backend,
)
from repro.exec.cache import CacheStats, ResultCache
from repro.exec.task import ComputeTask, fingerprint_array, fingerprint_value

__all__ = [
    "CacheStats",
    "ComputeTask",
    "ExecBackend",
    "PoolBackend",
    "ProcessBackend",
    "ResolvedHandle",
    "ResultCache",
    "SerialBackend",
    "TaskHandle",
    "backend_names",
    "default_jobs",
    "fingerprint_array",
    "fingerprint_value",
    "make_backend",
]
