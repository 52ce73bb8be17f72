"""Multi-VOP programs: the paper's Figure 1 view of an application.

An application is a sequence of functions (A..E in Figure 1), each of which
SHMT executes as one VOP with intra-VOP heterogeneous parallelism.  A
:class:`Program` wires named steps together -- a step's input is either a
literal array or the output of an earlier step -- and executes them in
dependency order on one runtime, concatenating per-step reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.result import ExecutionReport
from repro.core.runtime import SHMTRuntime
from repro.core.vop import VOPCall
from repro.errors import InvalidInput


@dataclass
class Step:
    """One program step: a VOP applied to a literal or an earlier output."""

    name: str
    opcode: str
    source: Union[np.ndarray, str]
    context: Any = None

    def __post_init__(self) -> None:
        if isinstance(self.source, str) and not self.source:
            raise InvalidInput(f"step {self.name!r}: empty source reference")


@dataclass
class ProgramResult:
    """Per-step reports plus end-to-end totals.

    ``time_levels`` records which steps shared a concurrent level (one
    singleton level per step for serial runs): within a level the steps
    ran on one shared timeline, so the level's elapsed time is the *max*
    of its step makespans, not their sum.  ``total_time`` is therefore
    the per-level critical path summed across levels; the old
    sum-of-makespans figure survives as :attr:`sum_of_step_times` (it
    still bounds total_time from above and is the right denominator for
    utilization-style ratios).
    """

    reports: Dict[str, ExecutionReport]
    order: List[str]
    #: Step names grouped by concurrent level (serial = one per level).
    time_levels: Optional[List[List[str]]] = None
    #: Platform idle draw (W), needed to integrate idle energy over the
    #: critical path instead of over every step's window.
    idle_watts: float = 0.0

    def _levels(self) -> List[List[str]]:
        if self.time_levels:
            return self.time_levels
        return [[name] for name in self.order]

    @property
    def total_time(self) -> float:
        """End-to-end elapsed time: per-level critical path, summed.

        In a concurrent level every step shares one engine timeline and a
        step's makespan is its absolute finish time within the level, so
        the level takes ``max`` -- summing the per-step makespans would
        double-count the overlap.
        """
        return sum(
            max(self.reports[name].makespan for name in level)
            for level in self._levels()
        )

    @property
    def sum_of_step_times(self) -> float:
        """Sum of per-step makespans (>= total_time when levels overlap)."""
        return sum(self.reports[name].makespan for name in self.order)

    @property
    def total_energy(self) -> float:
        """Active joules of every step plus idle draw over the critical path.

        Per-step reports attribute idle draw over each step's own window;
        summing those double-counts idle time wherever steps overlapped
        in a level.  Integrate idle once over :attr:`total_time` instead.
        """
        active = sum(
            self.reports[name].energy.active_joules for name in self.order
        )
        return active + self.idle_watts * self.total_time

    @property
    def sum_of_step_energy(self) -> float:
        """Sum of per-step energy totals (the pre-fix figure)."""
        return sum(self.reports[name].energy.total_joules for name in self.order)

    def output(self, step_name: Optional[str] = None) -> np.ndarray:
        """A step's output array (defaults to the final step)."""
        name = step_name if step_name is not None else self.order[-1]
        return self.reports[name].output


class Program:
    """An ordered collection of VOP steps with named data flow."""

    def __init__(self) -> None:
        self._steps: List[Step] = []
        #: Name-set mirror of ``_steps`` so ``add`` validates in O(1)
        #: instead of rescanning the whole list per append (O(n^2) for a
        #: program built step by step).
        self._names: set = set()

    def add(
        self,
        name: str,
        opcode: str,
        source: Union[np.ndarray, str],
        context: Any = None,
    ) -> "Program":
        """Append a step; ``source`` is an array or an earlier step's name."""
        if name in self._names:
            raise InvalidInput(f"duplicate step name {name!r}")
        if isinstance(source, str):
            if source == name:
                raise InvalidInput(
                    f"step {name!r} references itself as its source"
                )
            if source not in self._names:
                raise InvalidInput(
                    f"step {name!r} references unknown step {source!r}"
                )
        self._steps.append(Step(name=name, opcode=opcode, source=source, context=context))
        self._names.add(name)
        return self

    @property
    def steps(self) -> List[Step]:
        return list(self._steps)

    def run(self, runtime: SHMTRuntime, concurrent: bool = False) -> ProgramResult:
        """Execute every step, wiring outputs to dependent inputs.

        With ``concurrent=False`` steps run one VOP at a time in insertion
        order.  With ``concurrent=True`` the program is levelized by data
        dependencies and each level executes as one
        :meth:`~repro.core.runtime.SHMTRuntime.execute_batch` -- independent
        functions share the devices simultaneously, the execution picture
        of the paper's Figure 1(c).
        """
        if not self._steps:
            raise ValueError("program has no steps")
        if not concurrent:
            return self._run_serial(runtime)
        return self._run_concurrent(runtime)

    def _run_serial(self, runtime: SHMTRuntime) -> ProgramResult:
        reports: Dict[str, ExecutionReport] = {}
        outputs: Dict[str, np.ndarray] = {}
        for step in self._steps:
            call = self._call_for(step, outputs)
            report = runtime.execute(call)
            reports[step.name] = report
            outputs[step.name] = report.output
        return ProgramResult(
            reports=reports,
            order=[s.name for s in self._steps],
            time_levels=[[s.name] for s in self._steps],
            idle_watts=runtime.platform.energy_model.idle_watts,
        )

    def _run_concurrent(self, runtime: SHMTRuntime) -> ProgramResult:
        reports: Dict[str, ExecutionReport] = {}
        outputs: Dict[str, np.ndarray] = {}
        time_levels: List[List[str]] = []
        for level in self.levels():
            calls = [self._call_for(step, outputs) for step in level]
            # A level models *simulated* device sharing: its calls contend
            # on one engine's queues, and that contention is the result
            # (Figure 1's utilization picture).
            batch = runtime.execute_batch(calls)
            for step, report in zip(level, batch.reports):
                reports[step.name] = report
                outputs[step.name] = report.output
            time_levels.append([step.name for step in level])
        return ProgramResult(
            reports=reports,
            order=[s.name for s in self._steps],
            time_levels=time_levels,
            idle_watts=runtime.platform.energy_model.idle_watts,
        )

    def _call_for(self, step: Step, outputs: Dict[str, np.ndarray]) -> VOPCall:
        data = outputs[step.source] if isinstance(step.source, str) else step.source
        return VOPCall(opcode=step.opcode, data=data, context=step.context, label=step.name)

    def levels(self) -> List[List[Step]]:
        """Group steps into dependency levels (each level is independent)."""
        level_of: Dict[str, int] = {}
        levels: List[List[Step]] = []
        for step in self._steps:
            if isinstance(step.source, str):
                level = level_of[step.source] + 1
            else:
                level = 0
            level_of[step.name] = level
            while len(levels) <= level:
                levels.append([])
            levels[level].append(step)
        return levels
