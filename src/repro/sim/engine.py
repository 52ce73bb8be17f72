"""Discrete-event simulation engine.

A minimal but complete event-heap simulator: callers schedule callbacks at
future simulated times and :meth:`Engine.run` fires them in order.  The
engine owns the simulated clock; nothing in the SHMT runtime reads wall-clock
time, which makes every experiment deterministic and replayable.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.events import Event, EventKind

#: Absolute tolerance for clock comparisons.  Floating-point arithmetic on
#: absolute times (``now + delay`` round-trips through ``schedule_at``) can
#: land a hair before ``now``; anything within this band is treated as "now".
TIME_TOLERANCE = 1e-12


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in the past)."""


class Engine:
    """Event-heap discrete-event simulator with a monotonic simulated clock."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._now = 0.0
        self._running = False
        self._fired = 0
        self._skipped = 0
        #: Optional callback fired with the new clock value on every
        #: advance.  The invariant checker hooks this to audit clock
        #: monotonicity from the engine's own vantage point; ``None``
        #: (the default) keeps the run loop branch-cheap.
        self.clock_listener: Optional[Callable[[float], None]] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._fired

    @property
    def events_cancelled(self) -> int:
        """Number of cancelled events the run loop has skipped.

        Cancelled events never advance the clock: the fault-tolerant
        runtime relies on this to arm a watchdog per HLOP and revoke it
        at completion without perturbing the timeline.
        """
        return self._skipped

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel ``event`` if it is still pending (``None`` is a no-op)."""
        if event is not None:
            event.cancel()

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        kind: EventKind = EventKind.GENERIC,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may :meth:`Event.cancel`.

        Delays within :data:`TIME_TOLERANCE` below zero (float round-off
        from absolute-time arithmetic) are clamped to "now"; anything
        further in the past raises :class:`SimulationError`.
        """
        if delay < 0:
            if delay >= -TIME_TOLERANCE:
                delay = 0.0
            else:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay})"
                )
        event = Event(time=self._now + delay, callback=callback, kind=kind, payload=payload)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        kind: EventKind = EventKind.GENERIC,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        return self.schedule(time - self._now, callback, kind=kind, payload=payload)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the event heap; return the final simulated time.

        Args:
            until: stop once the clock would pass this time (events at later
                times stay queued).  The clock always advances to ``until``
                on return, even when the heap drains before reaching it.
            max_events: safety valve against runaway event loops.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        try:
            while self._heap:
                if self._heap[0].cancelled:
                    heapq.heappop(self._heap)
                    self._skipped += 1
                    continue
                if until is not None and self._heap[0].time > until:
                    self._now = until
                    break
                event = heapq.heappop(self._heap)
                if event.time < self._now - TIME_TOLERANCE:
                    raise SimulationError(
                        f"event at t={event.time} fired after clock reached {self._now}"
                    )
                self._now = max(self._now, event.time)
                if self.clock_listener is not None:
                    self.clock_listener(self._now)
                self._fired += 1
                if self._fired > max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                if event.callback is not None:
                    event.callback()
            if until is not None and self._now < until:
                # Heap drained before the horizon: a bounded run still
                # represents "simulate up to `until`", so advance the clock
                # (callers chain run(until=...) windows and rely on `now`).
                self._now = until
            return self._now
        finally:
            self._running = False

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._heap.clear()
        self._now = 0.0
        self._fired = 0
        self._skipped = 0
