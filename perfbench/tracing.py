"""Span tracing of the engine's layers, from outside the engine.

The traced run wraps public functions and methods of each layer in
spans.  The wrappers live only here and are installed only while a
traced op runs: :class:`Layers` patches every module attribute that a
caller looks a function up through (``schedule_for`` is imported by
name into ``repro.engine.executor`` and ``repro.engine.spmd``, so those
attributes are patched as well as the defining module's) and restores
the originals on :meth:`Layers.uninstall`.

A span records its name, start, end, parent span and op id.  Spans are
kept in memory and written out as JSON at the end of the run.  A span's
self time is its duration minus the part of it its child spans cover.
Work a :class:`~repro.serve.SessionService` dispatcher thread does for a
request is parented to the submitting thread's ``serve.submit`` span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span and counter store, safe across threads."""

    def __init__(self) -> None:
        #: [id, name, start, end, parent id, op id, thread name]
        self.spans: list[list] = []
        #: op id -> counter name -> value
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()

    # -- per-thread context --------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _context(self) -> tuple:
        """(op id, parent span id) of the calling thread, or Nones."""
        stack = self._stack()
        if stack:
            return stack[-1][5], stack[-1][0]
        return getattr(self._tls, "op", None), None

    def begin(self, name: str, *, op=None, parent=None) -> list | None:
        cur_op, cur_parent = self._context()
        op = cur_op if op is None else op
        if op is None:
            return None          # outside any op: not traced
        rec = [next(self._ids), name, perf_counter(), None,
               cur_parent if parent is None else parent, op,
               threading.current_thread().name]
        self._stack().append(rec)
        return rec

    def end(self, rec: list | None) -> None:
        if rec is None:
            return
        rec[3] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()
        with self._lock:
            self.spans.append(rec)

    @contextmanager
    def op(self, op_id):
        """The root span of one op; everything below it carries its id."""
        self._tls.op = op_id
        rec = self.begin("op", op=op_id)
        try:
            yield
        finally:
            self.end(rec)
            self._tls.op = None

    def count(self, name: str, value: float = 1.0) -> None:
        op, _ = self._context()
        if op is not None:
            with self._lock:
                self.counts[op][name] += value

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "thread")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class Layers:
    """Installs and removes the layer wrappers for one :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: list[tuple] = []
        self._plan = self._build_plan()

    # -- wrappers --------------------------------------------------------
    def _spanned(self, name, fn, after=None, before=None):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if after is not None and rec is not None:
                after(args, result, state)
            return result
        return wrapper

    def _submit(self, fn):
        """``SessionService.submit``: the request runs on a dispatcher
        thread; carry the submitting op and span over to it."""
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(service, work, *args, **kwargs):
            rec = tracer.begin("serve.submit")
            if rec is None:
                return fn(service, work, *args, **kwargs)

            def linked():
                inner = tracer.begin("serve.dispatch", op=rec[5],
                                     parent=rec[0])
                try:
                    return work()
                finally:
                    tracer.end(inner)
            try:
                return fn(service, linked, *args, **kwargs)
            finally:
                tracer.end(rec)
        return wrapper

    def _build_plan(self) -> list[tuple]:
        """(owner, attribute, wrapper factory) for every traced call."""
        from repro.api.lower import ProgramBuilder
        from repro.api.session import Session
        from repro.autotune.tuner import AutoTuner
        from repro.core.dataspace import DataSpace
        from repro.directives.analyzer import Analyzer
        from repro.distributions.distribution import Distribution
        from repro.engine import (analysis, commsets, executor, passes,
                                  planstore, redistribute, schedule, spmd)
        from repro.autotune import advisor
        from repro.serve.service import SessionService
        tracer = self.tracer

        def cache_state(args, kwargs):
            cache = args[0].schedule_cache
            return cache.hits, cache.misses

        def schedule_after(args, result, state):
            cache = args[0].schedule_cache
            tracer.count("schedule.hits", cache.hits - state[0])
            tracer.count("schedule.misses", cache.misses - state[1])

        def store_after(args, result, state):
            tracer.count("planstore.misses" if result is None
                         else "planstore.hits")

        def spmd_before(args, kwargs):
            ex = args[0]
            return ex.replay_count, ex.dispatch_count

        def spmd_after(args, result, state):
            ex = args[0]
            tracer.count("spmd.replays", ex.replay_count - state[0])
            tracer.count("spmd.dispatches", ex.dispatch_count - state[1])
            for report in result:
                tracer.count("spmd.barriers", report.barrier_count)
                for phase, wall in report.per_phase_wall.items():
                    tracer.count(f"spmd.{phase}_s", wall)

        def remap_after(args, result, state):
            tracer.count("redistribute.words", result[1])

        def runner_after(args, result, state):
            tracer.count("autotune.adaptations", len(result.adaptations))

        method = lambda cls, attr, name, **kw: (  # noqa: E731
            cls, attr, lambda fn: self._spanned(name, fn, **kw))
        function = lambda fn, name, **kw: (  # noqa: E731
            fn, None, lambda f: self._spanned(name, f, **kw))
        return [
            method(Session, "run", "api.run"),
            method(ProgramBuilder, "take", "api.lower"),
            method(passes.ProgramRunner, "run", "passes.run",
                   after=runner_after),
            function(schedule.schedule_for, "schedule",
                     before=cache_state, after=schedule_after),
            function(commsets.analytic_comm_sets, "commsets"),
            function(commsets.comm_matrix, "commsets"),
            method(Distribution, "primary_owner_map",
                   "distributions.owner_map"),
            function(planstore.statement_content_key, "planstore.key"),
            (planstore.PlanStore, "get",
             lambda fn: self._counted(fn, store_after)),
            method(executor.SimulatedExecutor, "execute",
                   "executor.execute"),
            function(executor.charge_schedule, "executor.charge"),
            method(spmd.SpmdExecutor, "execute_loop", "spmd.execute_loop",
                   before=spmd_before, after=spmd_after),
            method(DataSpace, "redistribute", "redistribute"),
            function(redistribute.charge_remap, "redistribute",
                     after=remap_after),
            function(analysis.analyze, "analysis"),
            function(advisor.select_passes, "autotune"),
            method(AutoTuner, "consider", "autotune"),
            method(AutoTuner, "apply", "autotune"),
            method(Analyzer, "run", "directives"),
            method(SessionService, "run", "serve.run"),
            (SessionService, "submit", self._submit),
        ]

    def _counted(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result, None)
            return result
        return wrapper

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "repro" or name.startswith("repro."))
                   and m is not None]
        for owner, attr, factory in self._plan:
            if attr is not None:     # a method: patch the defining class
                original = owner.__dict__[attr]
                setattr(owner, attr, factory(original))
                self._patches.append((owner, attr, original))
                continue
            # a function: patch every module attribute bound to it
            wrapped = factory(owner)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is owner:
                        setattr(module, name, wrapped)
                        self._patches.append((module, name, owner))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def per_op_layers(tracer: Tracer, ops) -> dict:
    """Per-op layer figures for the op ids ``ops``: name -> list."""
    wanted = set(ops)
    by_op: dict = defaultdict(list)
    for s in tracer.spans:
        if s[5] in wanted:
            by_op[s[5]].append(s)
    out: dict = defaultdict(list)
    for op in ops:
        spans = by_op.get(op, [])
        byid = {s[0]: s for s in spans}
        children: dict = defaultdict(list)
        for s in spans:
            children[s[4]].append(s)
        root = next((s for s in spans if s[1] == "op"), None)
        if root is None:
            continue
        dur = {s[0]: s[3] - s[2] for s in spans}
        self_t = {s[0]: dur[s[0]] - _covered(
            [(c[2], c[3]) for c in children[s[0]]], s[2], s[3])
            for s in spans}

        def outermost(s) -> bool:
            p = byid.get(s[4])
            while p is not None:
                if p[1] == s[1]:
                    return False
                p = byid.get(p[4])
            return True

        total: dict = defaultdict(float)
        selfsum: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for s in spans:
            calls[s[1]] += 1
            selfsum[s[1]] += self_t[s[0]]
            if outermost(s):
                total[s[1]] += dur[s[0]]
        wait = sum(dur[s[0]] - sum(dur[c[0]] for c in children[s[0]]
                                   if c[1] == "serve.dispatch")
                   for s in spans if s[1] == "serve.submit")
        counts = tracer.counts.get(op, {})

        def ratio(hit, miss) -> float:
            h, m = counts.get(hit, 0.0), counts.get(miss, 0.0)
            return h / (h + m) if h + m else 0.0

        # the benchmark's own reference slices are neither layer time
        # nor op time
        layers = [c for c in children[root[0]] if c[1] != "bench.ref"]
        bench = sum(dur[c[0]] for c in children[root[0]]
                    if c[1] == "bench.ref")
        replays = counts.get("spmd.replays", 0.0)
        dispatches = counts.get("spmd.dispatches", 0.0)
        ms = 1e3
        row = {
            "api.run_self_ms": selfsum["api.run"] * ms,
            "api.lower_ms": total["api.lower"] * ms,
            "passes.run_self_ms": selfsum["passes.run"] * ms,
            "schedule.calls": calls["schedule"],
            "schedule.self_ms": selfsum["schedule"] * ms,
            "schedule.hit_ratio": ratio("schedule.hits",
                                        "schedule.misses"),
            "commsets.ms": total["commsets"] * ms,
            "distributions.owner_map_calls":
                calls["distributions.owner_map"],
            "distributions.owner_map_ms":
                total["distributions.owner_map"] * ms,
            "planstore.key_calls": calls["planstore.key"],
            "planstore.key_ms": total["planstore.key"] * ms,
            "planstore.hit_ratio": ratio("planstore.hits",
                                         "planstore.misses"),
            "executor.execute_self_ms": selfsum["executor.execute"] * ms,
            "executor.charge_calls": calls["executor.charge"],
            "executor.charge_ms": total["executor.charge"] * ms,
            "spmd.execute_loop_self_ms":
                selfsum["spmd.execute_loop"] * ms,
            "spmd.gather_ms": counts.get("spmd.gather_s", 0.0) * ms,
            "spmd.write_ms": counts.get("spmd.write_s", 0.0) * ms,
            "spmd.barriers": counts.get("spmd.barriers", 0.0),
            "spmd.replay_ratio": (replays / (replays + dispatches)
                                  if replays + dispatches else 0.0),
            "redistribute.ms": total["redistribute"] * ms,
            "redistribute.words": counts.get("redistribute.words", 0.0),
            "analysis.ms": total["analysis"] * ms,
            "autotune.ms": total["autotune"] * ms,
            "autotune.adaptations": counts.get("autotune.adaptations",
                                               0.0),
            "directives.ms": total["directives"] * ms,
            "serve.queue_wait_ms": wait * ms,
            "trace.coverage": _covered(
                [(c[2], c[3]) for c in layers], root[2], root[3])
                / max(dur[root[0]] - bench, 1e-12),
            "spmd.first_run_s": next(
                (dur[s[0]] for s in sorted(spans, key=lambda s: s[2])
                 if s[1] == "spmd.execute_loop"), 0.0),
        }
        for key, value in row.items():
            out[key].append(value)
    return dict(out)
