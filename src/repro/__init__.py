"""repro: a reproduction of "Simultaneous and Heterogenous Multithreading"
(Hsu & Tseng, MICRO '23) on a simulated heterogeneous platform.

Quick start::

    from repro import SHMTRuntime, VOPCall, jetson_nano_platform, make_scheduler
    from repro.workloads import generate

    runtime = SHMTRuntime(jetson_nano_platform(), make_scheduler("QAWS-TS"))
    report = runtime.execute(generate("sobel", size=(512, 512)))
    print(report.makespan, report.work_shares)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced figure and table.
"""

from repro.core import (
    BatchReport,
    ExecutionReport,
    VirtualDevice,
    PartitionConfig,
    Program,
    ProgramResult,
    RuntimeConfig,
    SHMTRuntime,
    VOPCall,
    make_scheduler,
    scheduler_names,
    vop_catalog,
)
from repro.devices import (
    CPUDevice,
    EdgeTPUDevice,
    GPUDevice,
    Platform,
    gpu_only_platform,
    gpu_tpu_platform,
    jetson_nano_platform,
)
from repro.exec import (
    ComputeTask,
    ExecBackend,
    ResultCache,
    backend_names,
    make_backend,
)
from repro.faults import (
    DeviceDeath,
    FaultEvent,
    FaultKind,
    FaultPlan,
    OutputCorruption,
    Straggler,
    TransientFaults,
)
from repro.errors import (
    AdmissionRejected,
    CheckpointCorrupt,
    DeadlineExceeded,
    DeviceFault,
    InvalidInput,
    ReproError,
    ServiceKilled,
    ServiceStopped,
    UnknownName,
)
from repro.obs import (
    Decision,
    DecisionKind,
    DecisionLog,
    MetricsRegistry,
    RunMetrics,
    RunObserver,
    write_jsonl,
)
from repro.serve import (
    AdmissionConfig,
    BreakerConfig,
    BreakerState,
    JobResult,
    JobSpec,
    JobState,
    ServiceConfig,
    ShmtService,
    load_checkpoint,
)
from repro.verify import InvariantViolation, RunChecker, Violation

__version__ = "1.0.0"

__all__ = [
    "BatchReport",
    "ExecutionReport",
    "VirtualDevice",
    "PartitionConfig",
    "Program",
    "ProgramResult",
    "RuntimeConfig",
    "SHMTRuntime",
    "VOPCall",
    "make_scheduler",
    "scheduler_names",
    "vop_catalog",
    "CPUDevice",
    "EdgeTPUDevice",
    "GPUDevice",
    "Platform",
    "gpu_only_platform",
    "gpu_tpu_platform",
    "jetson_nano_platform",
    "ComputeTask",
    "ExecBackend",
    "ResultCache",
    "backend_names",
    "make_backend",
    "DeviceDeath",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "OutputCorruption",
    "Straggler",
    "TransientFaults",
    "Decision",
    "DecisionKind",
    "DecisionLog",
    "MetricsRegistry",
    "RunMetrics",
    "RunObserver",
    "write_jsonl",
    "ReproError",
    "InvalidInput",
    "UnknownName",
    "AdmissionRejected",
    "DeadlineExceeded",
    "CheckpointCorrupt",
    "DeviceFault",
    "ServiceStopped",
    "ServiceKilled",
    "AdmissionConfig",
    "BreakerConfig",
    "BreakerState",
    "JobResult",
    "JobSpec",
    "JobState",
    "ServiceConfig",
    "ShmtService",
    "load_checkpoint",
    "InvariantViolation",
    "RunChecker",
    "Violation",
    "__version__",
]
