"""The workloads, each driven through public front doors.

A workload object is built once per run.  :meth:`build` makes fresh
objects and finishes the first op (the cold set-up ``run.py`` times);
:meth:`step` runs ops and checks each against an independent reference,
returning one :class:`Op` per op plus the seconds its interleaved
reference took; :meth:`close` releases what :meth:`build` made.

Every op of a workload does the same work:

* ``jacobi_spmd`` / ``jacobi_simulate`` — one 4-trip loop of the
  Jacobi-with-residual sweep at N=1024 on a 2x2 (BLOCK, BLOCK) grid at
  ``-O2``, continuing from the previous op's state.  ``X`` must equal
  the plain-NumPy sweep of the same trips bit for bit; that sweep is
  also the calibrating reference.
* ``corpus_cold`` — the whole corpus (:mod:`corpus`), every program in
  a fresh plan store, checked with ``check(perf=False)`` and run once;
  one program runs as the tenant of a fresh
  :class:`~repro.serve.SessionService`.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.directives.analyzer import Analyzer
from repro.engine.planstore import PlanStore, swapped_plan_store
from repro.machine.backend import Backend
from repro.serve import SessionService
from repro.workloads.stencil import jacobi_session, smoothing_sweep

import corpus
import refs

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_FILE = os.path.join(HERE, "golden.json")

JACOBI_N = 1024
JACOBI_TRIPS = 4
#: iterations of each reference slice ``corpus_cold`` runs between
#: programs: 12 slices make one nominal ``python_loop()``
REF_SLICE = 500
#: the corpus program ``corpus_cold`` runs as a tenant of a fresh
#: SessionService, so the serving layer (lint gate, dispatcher queue,
#: tenant attach) is measured too
SERVED = "block_shift"


@dataclass
class Op:
    """One finished op: its wall time, verdict and exact ledger."""

    seconds: float
    ok: bool
    words: int = 0
    messages: int = 0
    elapsed: float = 0.0
    error: str = ""
    #: the tracer's op id (traced ops only)
    op_id: object = None


def load_golden() -> dict:
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _ledger(machine) -> tuple[int, int, float]:
    return (int(machine.stats.total_words),
            int(machine.stats.total_messages), float(machine.elapsed))


def _matches(golden: dict, words: int, messages: int,
             elapsed: float) -> bool:
    return (golden["words"] == words and golden["messages"] == messages
            and abs(golden["elapsed"] - elapsed)
            <= 1e-9 * max(1.0, abs(golden["elapsed"])))


# ----------------------------------------------------------------------
# Jacobi
# ----------------------------------------------------------------------
class Jacobi:
    """The Jacobi-with-residual program on one backend."""

    #: fresh interpreter processes a run is split over
    children = 3
    #: segments per child process: each a cold build, then timed ops
    cold_builds = 2
    #: untimed ops after each cold build
    warmup_ops = 1
    #: the references' kind (a key of ``refs.NOMINAL``)
    ref_kind = "numpy"

    def __init__(self, seed: int, golden: dict | None, spmd: bool) -> None:
        self.seed = seed
        self.spmd = spmd
        self.workers = min(2, os.cpu_count() or 1)
        self.golden = golden["jacobi"] if golden is not None else None
        self.session = None
        self.ref = None
        self._scratch = None
        #: worker pools each segment times (see :meth:`refresh`)
        self.pools_per_segment = 2 if spmd else 1

    def build(self, tracer=None, op_id=None) -> Op:
        backend = (Backend.spmd(self.workers, mode="process") if self.spmd
                   else Backend.simulate())
        x0 = np.random.default_rng(self.seed).random((JACOBI_N, JACOBI_N))
        self.session = jacobi_session(JACOBI_N, 2, 2, iters=0,
                                      backend=backend, opt=2)
        self.session.ds.arrays["X"].data[...] = x0
        self.ref = x0.copy(order="F")
        return self._op(tracer, op_id)[0]

    def step(self, tracer=None, op_id=None) -> tuple[list[Op], float]:
        op, ref_s = self._op(tracer, op_id)
        return [op], ref_s

    def time_ref(self) -> float:
        """One reference sweep on a scratch field (state untouched)."""
        if self._scratch is None:
            self._scratch = np.random.default_rng(self.seed).random(
                (JACOBI_N, JACOBI_N)).copy(order="F")
        t0 = perf_counter()
        refs.numpy_sweeps(self._scratch, JACOBI_TRIPS)
        return perf_counter() - t0

    def _op(self, tracer, op_id) -> tuple[Op, float]:
        s = self.session
        before = _ledger(s.machine)
        t0 = perf_counter()
        error = ""
        x = None
        try:
            with tracer.op(op_id) if tracer is not None else nullcontext():
                with s.loop(JACOBI_TRIPS):
                    s.record(*smoothing_sweep("X", "XNEW", "R", JACOBI_N))
                s.run()
                x = s.ds.arrays["X"].data
        except Exception as exc:     # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        t1 = perf_counter()
        refs.numpy_sweeps(self.ref, JACOBI_TRIPS)
        ref_s = perf_counter() - t1
        after = _ledger(s.machine)
        words, messages = after[0] - before[0], after[1] - before[1]
        elapsed = after[2] - before[2]
        ok = x is not None and np.array_equal(x, self.ref)
        if x is not None and not ok:
            error = error or "X differs from the NumPy sweep"
            self.ref[...] = x        # count the divergence once
        if ok and self.golden is not None and not _matches(
                self.golden, words, messages, elapsed):
            ok = False
            error = "ledger differs from golden.json"
        return Op(seconds, ok, words, messages, elapsed, error,
                  op_id), ref_s

    def facts(self) -> dict:
        out = {"backend": "spmd" if self.spmd else "simulate"}
        if self.spmd and self.session is not None:
            out["workers"] = self.workers
            out["pool_mode"] = self.session._runner.executor.pool_mode
        return out

    def refresh(self) -> None:
        """Restart the SPMD worker pool and re-warm it with one op.

        A pool's speed depends on where its worker processes land: the
        steady op time of one pool differs from the next by up to 25%
        while the coordinator's reference stays put.  Timing several
        pools per run averages that out.  Compiled plans stay in the
        session's caches and the active plan store, so the restart
        only re-forks the workers and re-ships their plans."""
        self.session.close()
        self.step()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------
class CorpusCold:
    """Every program built, checked and run in a fresh plan store."""

    # a corpus child starts in about a second, so more children average
    # out more of the speed differences between processes
    children = 6
    cold_builds = 3
    warmup_ops = 0
    pools_per_segment = 1
    ref_kind = "python"

    def __init__(self, seed: int, golden: dict | None) -> None:
        self.seed = seed
        self.order = corpus.draw(seed)
        self.golden = golden["corpus"] if golden is not None else None
        self.expected = corpus.reference_arrays(seed)
        self.source = corpus.hpf_source()
        #: program name -> (words, messages, elapsed) of the last pass
        self.ledgers: dict = {}

    def _run_program(self, name: str):
        with swapped_plan_store(PlanStore()):
            if name == corpus.HPF_NAME:
                analyzer = Analyzer(corpus.HPF_PROCESSORS,
                                    inputs={"N": corpus.HPF_N},
                                    machine=True, opt_level=2)
                analyzer.run(self.source)
                return analyzer.ds, analyzer.machine
            prog = corpus.BY_NAME[name]
            if name != SERVED:
                s = prog.build(corpus.program_rng(self.seed, name), opt=2)
                s.check(perf=False)
                s.run()
                return s.ds, s.machine
            with SessionService(plan_store=PlanStore()) as svc:
                s = prog.build(corpus.program_rng(self.seed, name), opt=2,
                               service=svc)
                s.check(perf=False)
                try:
                    s.run()
                finally:
                    s.close()
                return s.ds, s.machine

    def _check(self, name: str, ds, machine) -> str:
        """'' when the program's arrays and ledger are right."""
        got = corpus.arrays_of(ds)
        want = self.expected[name]
        if got.keys() != want.keys() or not all(
                np.array_equal(got[k], want[k]) for k in want):
            return f"{name}: arrays differ from the reference"
        ledger = _ledger(machine)
        self.ledgers[name] = ledger
        if self.golden is not None and not _matches(
                self.golden[name], *ledger):
            return f"{name}: ledger differs from golden.json"
        return ""

    def _pass(self, tracer, op_id, slices: bool) -> tuple[Op, float]:
        """Run every program of the corpus in the seed's order, then
        check each outside the timed region.  With ``slices``, a slice
        of the reference runs after each program, outside the op's
        time, so the reference samples the host's speed across the op
        itself; returns the op and the slices' total seconds."""
        done = []
        errors = []
        seconds = ref_s = 0.0
        with tracer.op(op_id) if tracer is not None else nullcontext():
            for name in self.order:
                t0 = perf_counter()
                try:
                    done.append((name, *self._run_program(name)))
                except Exception as exc:   # counted, not fatal
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")
                seconds += perf_counter() - t0
                if slices:
                    rec = tracer.begin("bench.ref") if tracer else None
                    ref_s += refs.time_python_loop(REF_SLICE)
                    if tracer is not None:
                        tracer.end(rec)
        words = messages = 0
        elapsed = 0.0
        for name, ds, machine in done:
            problem = self._check(name, ds, machine)
            if problem:
                errors.append(problem)
            w, m, e = _ledger(machine)
            words, messages, elapsed = words + w, messages + m, elapsed + e
        return Op(seconds, not errors, words, messages, elapsed,
                  "; ".join(errors), op_id), ref_s

    def build(self, tracer=None, op_id=None) -> Op:
        return self._pass(tracer, op_id, slices=False)[0]

    def step(self, tracer=None, op_id=None) -> tuple[list[Op], float]:
        op, ref_s = self._pass(tracer, op_id, slices=True)
        return [op], ref_s

    def time_ref(self) -> float:
        return refs.time_python_loop()

    def facts(self) -> dict:
        return {"backend": "simulate", "programs": len(self.order),
                "served": SERVED, "order": self.order}

    def close(self) -> None:
        pass


#: workload name -> its class and constructor arguments
WORKLOADS = {
    "jacobi_spmd": (Jacobi, {"spmd": True}),
    "jacobi_simulate": (Jacobi, {"spmd": False}),
    "corpus_cold": (CorpusCold, {}),
}


def make(name: str, seed: int, golden: dict | None):
    cls, kwargs = WORKLOADS[name]
    return cls(seed, golden, **kwargs)
