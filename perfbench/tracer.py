"""Wall-clock spans around the program's entry points, installed from outside.

The program is not edited: :class:`Tracer` replaces the attributes its
callers look up (methods on classes, functions at the importing module)
with wrappers that record one span per call.  A span is
``[layer, start_ns, end_ns, parent_span, job_id]``; spans live in memory
until :meth:`Tracer.write` puts them in a JSONL file at the end of a run.

Layer times are derived from the spans afterwards:

* ``total`` -- wall time covered by the layer's outermost spans (a call of
  a layer nested inside another call of the same layer is not counted
  twice);
* ``self`` -- the layer's span time minus the time its direct child spans
  cover;
* ``calls`` -- the number of outermost spans.

Wrappers are removed again by :meth:`Tracer.uninstall`, so untraced rounds
run the program's own functions.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

_now_ns = time.perf_counter_ns


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:  # a frozen dataclass instance, such as a registered KernelSpec
        object.__setattr__(owner, attr, value)


class Tracer:
    """Collects spans from wrapped entry points on any thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: job id -> perf_counter() when a worker took the job.
        self.started: Dict[str, float] = {}
        self._local = threading.local()
        self._installed: List[tuple] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_job(self, job_id: Optional[str]) -> None:
        """Tag later spans of the calling thread with ``job_id``."""
        self._local.job = job_id

    def open(self, layer: str, job: Optional[str] = None) -> list:
        stack = self._stack()
        span = [
            layer,
            _now_ns(),
            0,
            stack[-1] if stack else None,
            job if job is not None else getattr(self._local, "job", None),
        ]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = _now_ns()
        self._stack().pop()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.started = {}

    # ------------------------------------------------------------- wrapping

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[tuple, Any, Any], None]] = None,
        job: Optional[Callable[[tuple, dict], Optional[str]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs as the call begins; ``after(args, result,
        token)`` runs once it returns, with ``token`` what ``before``
        gave (counters read from the callee's state use the pair).
        ``job(args, kwargs)`` names the job a span belongs to.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            span = tracer.open(layer, job(args, kwargs) if job is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(args, result, token)
            return result

        self.patch(owner, attr, traced, original)

    def patch(self, owner: Any, attr: str, replacement: Any, original: Any) -> None:
        """Set ``owner.attr`` (frozen dataclasses too); undone by uninstall."""
        _set(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    def wrap_methods(self, base: type, attrs: List[str], layer: str, **hooks) -> None:
        """Wrap ``attrs`` on ``base`` and every loaded subclass defining them."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in cls.__dict__:
                    self.wrap(cls, attr, layer, **hooks)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            _set(owner, attr, original)
        self._installed = []

    # ------------------------------------------------------------- analysis

    @staticmethod
    def span_cost_s() -> float:
        """Seconds one wrapper adds to a call, timed on a no-op method.

        The best of five timings of 10 000 calls through a wrapper (into a
        throwaway tracer), less the best of five of the direct calls.  It
        leaves out what the spans cost later, in memory and collection.
        """
        calls = 10000

        class Target:
            def noop(self) -> None:
                return None

        target = Target()
        probe = Tracer()

        def best_ns(method) -> int:
            times = []
            for _ in range(5):
                probe.reset()
                start = _now_ns()
                for _ in range(calls):
                    method(target)
                times.append(_now_ns() - start)
            return min(times)

        plain = best_ns(Target.noop)
        probe.wrap(Target, "noop", "calibration")
        wrapped = best_ns(Target.noop)
        probe.uninstall()
        return max(0.0, (wrapped - plain) / calls / 1e9)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: total and self seconds, outermost call count."""
        children: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            parent = span[3]
            if parent is not None and span[2]:
                children[id(parent)] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for span in self.spans:
            if not span[2]:
                continue  # still open (a call that never returned)
            layer, start, end = span[0], span[1], span[2]
            entry = out[layer]
            entry["self_s"] += (end - start - children.get(id(span), 0)) / 1e9
            ancestor = span[3]
            while ancestor is not None and ancestor[0] != layer:
                ancestor = ancestor[3]
            if ancestor is None:
                entry["total_s"] += (end - start) / 1e9
                entry["calls"] += 1
        return dict(out)

    def write(self, path: str) -> None:
        """Write the spans as JSONL: name, start/end ns, parent index, job."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = span[3]
                handle.write(
                    json.dumps(
                        [
                            span[0],
                            span[1],
                            span[2],
                            index.get(id(parent), -1) if parent is not None else -1,
                            span[4],
                        ]
                    )
                    + "\n"
                )
