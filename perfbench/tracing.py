"""Span tracing wrapped around the program's layer boundaries.

Nothing under ``src/`` knows about this module.  :func:`instrument`
wraps public functions and methods at the places the program calls them
(module import sites for functions, class attributes for methods) and
restores every original on exit.  Each wrapped call becomes a span:

* *detailed* spans (control-plane stages, one per call) are kept as
  ``(id, name, start, end, parent, run, cycle)`` records;
* *fine* spans (calls made once per job or per event, hundreds of
  thousands per run) are aggregated in memory per name and parent span
  as call count and seconds, so tracing them stays cheap.

A span's self time is its duration minus the time its child spans
cover; spans nest strictly (one thread), so the self times of all spans
sum to the duration of the root spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

#: Parent id of root spans.
ROOT = 0
#: Deepest span nesting the tracer supports.
MAX_DEPTH = 256


class Tracer:
    """In-memory span and counter store for one traced round."""

    def __init__(self) -> None:
        #: Detailed spans: (id, name, start, end, parent id, run, cycle).
        self.spans: list[tuple[int, str, float, float, int, int, int]] = []
        #: Fine spans: name -> parent span id -> [calls, seconds].
        self.fine: dict[str, dict[int, list]] = defaultdict(dict)
        #: Counters taken at the traced boundaries.
        self.counters: Counter = Counter()
        self.cycle = -1
        self.run = -1
        self._next_id = ROOT + 1
        # Per span name: [calls, self seconds].
        self._acc: dict[str, list] = defaultdict(lambda: [0, 0.0])
        # The open spans as parallel arrays indexed by nesting depth
        # (preallocated, so a span allocates no frame object): seconds
        # covered by children, and the nearest detailed span's id.
        self._depth = [0]
        self._child = [0.0] * MAX_DEPTH
        self._ids = [ROOT] * MAX_DEPTH

    @property
    def self_s(self) -> dict[str, float]:
        """Self seconds per span name."""
        return {name: acc[1] for name, acc in self._acc.items()}

    @property
    def calls(self) -> Counter:
        """Calls per span name."""
        return Counter({name: acc[0] for name, acc in self._acc.items()})

    def begin_run(self) -> None:
        """Start the spans of a new scenario run (cycle ids restart)."""
        self.run += 1
        self.cycle = -1

    def bind(
        self,
        fn: Callable,
        name: str,
        *,
        detailed: bool = False,
        after: Optional[Callable[[object, tuple, dict], None]] = None,
        new_cycle: bool = False,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``after(result, args, kwargs)`` takes counters at the same
        boundary, outside the span; ``new_cycle`` advances the cycle id
        the spans carry.  The span bookkeeping is inlined: fine spans
        wrap calls made hundreds of thousands of times per run.
        """
        if detailed:
            return self._bind_detailed(fn, name, after, new_cycle)
        depth = self._depth
        child = self._child
        ids = self._ids
        acc = self._acc[name]
        fine = self.fine[name]

        def traced(*args, **kwargs):
            i = depth[0]
            j = i + 1
            depth[0] = j
            child[j] = 0.0
            parent = ids[j] = ids[i]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                depth[0] = i
                child[i] += duration
                acc[0] += 1
                acc[1] += duration - child[j]
                agg = fine.get(parent)
                if agg is None:
                    agg = fine[parent] = [0, 0.0]
                agg[0] += 1
                agg[1] += duration
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _bind_detailed(self, fn, name, after, new_cycle) -> Callable:
        depth = self._depth
        child = self._child
        ids = self._ids
        acc = self._acc[name]
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            i = depth[0]
            j = i + 1
            depth[0] = j
            child[j] = 0.0
            span_id = ids[j] = tracer._next_id
            tracer._next_id = span_id + 1
            if new_cycle:
                tracer.cycle += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[0] = i
                duration = end - start
                child[i] += duration
                acc[0] += 1
                acc[1] += duration - child[j]
                spans.append(
                    (span_id, name, start, end, ids[i], tracer.run, tracer.cycle)
                )
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def wrap(self, fn: Callable, name: str, **kwargs) -> Callable:
        """:meth:`bind` keeping ``fn``'s name and docstring (for patches)."""
        return functools.wraps(fn)(self.bind(fn, name, **kwargs))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a detailed span (the benchmark's own calls)."""
        return self.bind(fn, name, detailed=True)(*args, **kwargs)

    def write(self, path: Path, meta: dict) -> None:
        """Write every span, fine aggregate and counter as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for span_id, name, start, end, parent, run, cycle in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": run,
                    "cycle": cycle,
                }
                fh.write(json.dumps(record) + "\n")
            for name, by_parent in sorted(self.fine.items()):
                for parent, (count, seconds) in sorted(by_parent.items()):
                    record = {
                        "aggregate": name,
                        "parent": parent,
                        "calls": count,
                        "seconds": seconds,
                    }
                    fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


@contextmanager
def _patched(owner: object, attr: str, make: Callable[[Callable], object]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for the ``with`` body.

    A missing attribute leaves that layer untraced with a warning, so a
    refactor that moves a boundary degrades the per-layer split instead
    of breaking the benchmark.
    """
    if attr not in vars(owner):
        name = getattr(owner, "__name__", owner)
        print(f"perfbench: trace: {name}.{attr} not found; layer untraced", file=sys.stderr)
        yield
        return
    original = vars(owner)[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


#: Planner action class -> the kind its ``planner.actions.<kind>`` counter names.
ACTION_KINDS = {
    "StartVm": "start",
    "StopVm": "stop",
    "SuspendVm": "suspend",
    "ResumeVm": "resume",
    "MigrateVm": "migrate",
    "AdjustCpu": "adjust",
}


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every traced layer boundary while the ``with`` body runs."""
    from repro.api import spec as spec_module
    from repro.core import controller as controller_module
    from repro.core import demand, resilient, sharded
    from repro.experiments import runner as runner_module
    from repro.netmodel import context as netmodel_context
    from repro.sim import events, recorder
    from repro.workloads import jobs

    wrap = tracer.wrap
    bind = tracer.bind
    counters = tracer.counters

    # -- sim.engine: the event loop, scheduling and cancellation; every
    # action it fires is runner code.
    base_simulator = runner_module.Simulator
    base_run = base_simulator.run
    schedule = bind(base_simulator.at, "sim.engine.schedule")

    class TracedSimulator(base_simulator):
        def run(self, *args, **kwargs):
            return bind(base_run, "sim.engine.run", detailed=True)(self, *args, **kwargs)

        def at(self, time, action, **kwargs):
            if kwargs.get("tag") == "control":
                action = bind(action, "runner.cycle", detailed=True, new_cycle=True)
            else:
                action = bind(action, "runner.event")
            return schedule(self, time, action, **kwargs)

    def count_cancel(original):
        traced = wrap(original, "sim.engine.cancel")

        def cancel(event):
            if not event.cancelled:
                counters["engine.events_cancelled"] += 1
            return traced(event)

        return cancel

    # -- core.controller stages, taken where the controller calls them.
    def count_split(result, args, kwargs):
        counters["arbiter.iterations"] += result.iterations

    def count_requests(result, args, kwargs):
        job_requests = kwargs["jobs"] if "jobs" in kwargs else args[2]
        counters["solver.job_requests"] += len(job_requests)

    def count_actions(result, args, kwargs):
        for action in result:
            kind = ACTION_KINDS.get(type(action).__name__, "other")
            counters[f"planner.actions.{kind}"] += 1

    def traced_make_arbiter(original):
        def make_arbiter(*args, **kwargs):
            arbiter = original(*args, **kwargs)
            arbiter.split = wrap(
                arbiter.split, "controller.arbiter", detailed=True, after=count_split
            )
            return arbiter

        return make_arbiter

    def traced_make_solver(original):
        def make_solver(*args, **kwargs):
            solver = original(*args, **kwargs)
            solver.solve = wrap(
                solver.solve, "controller.solver", detailed=True, after=count_requests
            )
            return solver

        return make_solver

    # (owner, attribute, span name, detailed): plain timed boundaries.
    spans = [
        (runner_module, "snapshot_jobs", "jobmodel.snapshot", True),
        (runner_module, "mean_hypothetical_utility", "runner.lr_utility", True),
        (runner_module, "longrunning_max_utility_demand", "runner.lr_utility", True),
        (jobs.Job, "advance_to", "jobs.advance", False),
        (recorder.Recorder, "record", "recorder.record", False),
        (recorder.Recorder, "bump", "recorder.bump", False),
        (resilient.ResilientController, "decide", "resilient.decide", True),
        (sharded.ShardedController, "decide", "sharded.decide", True),
        (controller_module.UtilityDrivenController, "decide", "controller.decide", True),
        (demand.LongRunningCurve, "equalize", "controller.equalize", True),
        (spec_module, "compile_faults", "faults.compile", True),
        (netmodel_context.NetworkContext, "expected_rtt_s", "netmodel", False),
        (netmodel_context.NetworkContext, "in_zone_fraction", "netmodel", False),
        (netmodel_context.NetworkContext, "preferred_nodes", "netmodel", False),
    ]
    patches = [
        (owner, attr, lambda f, name=name, detailed=detailed: wrap(f, name, detailed=detailed))
        for owner, attr, name, detailed in spans
    ]
    patches += [
        (runner_module, "Simulator", lambda _: TracedSimulator),
        (events.Event, "cancel", count_cancel),
        (controller_module, "make_arbiter", traced_make_arbiter),
        (controller_module, "make_solver", traced_make_solver),
        (
            controller_module,
            "plan_actions",
            lambda f: wrap(f, "controller.planner", detailed=True, after=count_actions),
        ),
    ]
    with ExitStack() as stack:
        for owner, attr, make in patches:
            stack.enter_context(_patched(owner, attr, make))
        yield
