"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload jacobi_spmd --seed 0 \\
        --seconds 16 --trace 0

runs one workload (see ``BENCHMARK.json`` and ``perfbench/NOTES.md``)
and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones, from ops that alternate
between traced and untraced so the run can state its own tracing
overhead.  The full result, with host facts and raw samples, is written
to ``perfbench/out/`` beside the traced run's span file.

A run is split over a few fresh interpreter processes (each workload's
``children``), one after another, so that one process's memory layout
or core does not decide the figures.  Each child runs segments: a cold
build (fresh objects against an empty plan store, timed to the first
finished op: a ``setup_s`` sample), warm-up ops, then closed-loop ops
for its share of ``--seconds``.  Every op is checked against an independent
reference, and every timed sample is calibrated against a reference
that does not use the repository, timed interleaved in the same child
(``refs.py``): raw × (nominal ÷ the median of the references timed
within ``CAL_WINDOW`` steps of it).

``--write-golden`` re-records ``golden.json``, the exact ledgers each op
must reproduce.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, os.pardir, "src"))
OUT = os.path.join(HERE, "out")

#: reference timings taken just before and just after each cold build
SETUP_REFS = 3
#: a step is calibrated by the references of the steps this close to it
CAL_WINDOW = 2
#: untraced ops a run times at least, so the p75 has 10 samples beyond
#: it, even when that takes longer than ``--seconds`` ...
MIN_TIMED_OPS = 40
#: ... but never longer than this multiple of ``--seconds``
MAX_STRETCH = 3.0
#: seconds all children of a run may take before it is abandoned
RUN_TIMEOUT = 170.0


def _vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# One child: cold builds, warm-up, timed ops
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool,
            min_ops: int, spans_path: str) -> dict:
    """Run one child's share of a workload; returns raw samples."""
    import workloads
    from repro.engine.planstore import (PlanStore, set_active_plan_store,
                                        swapped_plan_store)
    from tracing import Layers, Tracer, per_op_layers

    w = workloads.make(name, seed, workloads.load_golden())
    tracer = Tracer() if trace else None
    layers = Layers(tracer) if trace else None
    setup_s: list[float] = []
    setup_refs: list[float] = []
    setup_ids: list[str] = []

    def call(op_id, fn):
        """``fn()`` untraced, or ``fn(tracer, op_id)`` with the layer
        wrappers installed for just this call."""
        if op_id is None:
            return fn()
        layers.install()
        try:
            return fn(tracer, op_id)
        finally:
            layers.uninstall()

    def take_setup_refs():
        setup_refs.extend(w.time_ref() for _ in range(SETUP_REFS))

    ops, ref_s, busy, op_ref = [], [], [], []
    traced_ops, plain_ops = [], []
    share = seconds / w.cold_builds
    i = 0
    with swapped_plan_store(PlanStore()):
        for k in range(w.cold_builds):
            # a segment: one cold build, warm-up, then timed ops
            gc.collect()
            take_setup_refs()
            set_active_plan_store(PlanStore())
            op_id = f"setup{k}" if trace else None
            if op_id is not None:
                setup_ids.append(op_id)
            t0 = perf_counter()
            call(op_id, w.build)
            setup_s.append(perf_counter() - t0)
            take_setup_refs()
            for _ in range(w.warmup_ops):
                w.step()
            gc.collect()
            spent = since_refresh = 0.0
            timed_here = 0
            while spent < share or (
                    timed_here < min_ops / w.cold_builds
                    and spent < MAX_STRETCH * share):
                if (w.pools_per_segment > 1
                        and since_refresh >= share / w.pools_per_segment):
                    w.refresh()
                    since_refresh = 0.0
                # every step starts from the same collector state, so a
                # full collection does not land in some ops only
                gc.collect()
                t0 = perf_counter()
                traced = trace and i % 2 == 0
                step_ops, r = call(f"op{i}" if traced else None, w.step)
                ops += step_ops
                ref_s.append(r)
                if traced:
                    traced_ops += step_ops
                else:
                    plain_ops += step_ops
                    op_ref += [len(ref_s) - 1] * len(step_ops)
                    timed_here += len(step_ops)
                    # the clients of one step run together: the step is
                    # busy for as long as its slowest op
                    busy.append((max(op.seconds for op in step_ops),
                                 len(ref_s) - 1))
                i += 1
                dt = perf_counter() - t0
                spent += dt
                since_refresh += dt
            facts = w.facts()
            w.close()

    part = {
        "ref_kind": w.ref_kind,
        "setup_s": setup_s, "setup_ref_s": setup_refs,
        "ref_s": ref_s,
        # (seconds, index of the step's reference) per untraced step
        "busy_s": busy,
        "op_s": [op.seconds for op in plain_ops],
        "op_ref": op_ref,
        "traced_op_s": [op.seconds for op in traced_ops],
        "ledgers": [[op.ok, op.words, op.messages, op.elapsed]
                    for op in ops],
        "errors": sorted({op.error for op in ops if op.error}),
        "peak_rss_mb": _vm_hwm_mb(),
        "worker_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "facts": facts,
    }
    if trace:
        part["layers"] = per_op_layers(tracer, [op.op_id
                                                for op in traced_ops])
        part["setup_layers"] = per_op_layers(tracer, setup_ids)
        tracer.dump(spans_path)
    return part


# ----------------------------------------------------------------------
# The parent: split the run over children, aggregate, report
# ----------------------------------------------------------------------
def _q3(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _run_children(args, children: int, stem: str) -> list[dict]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    parts = []
    for k in range(children):
        part_path = f"{stem}-part{k}.json"
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / children),
               "--trace", str(args.trace), "--child", part_path]
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT / children,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            sys.exit(f"perfbench: child {k} exited with {proc.returncode}")
        with open(part_path, encoding="utf-8") as fh:
            parts.append(json.load(fh))
        os.remove(part_path)
    return parts


def _merge_spans(children: int, stem: str) -> None:
    """One span file for the run; ids carry their child's index."""
    spans = []
    for k in range(children):
        path = f"{stem}-part{k}.spans.json"
        with open(path, encoding="utf-8") as fh:
            for s in json.load(fh):
                s["op"] = f"c{k}/{s['op']}"
                s["id"] = f"c{k}/{s['id']}"
                if s["parent"] is not None:
                    s["parent"] = f"c{k}/{s['parent']}"
                spans.append(s)
        os.remove(path)
    with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
        json.dump(spans, fh)


def aggregate(name: str, parts: list[dict], trace: bool) -> dict:
    import refs
    import workloads

    nominal = refs.NOMINAL[parts[0]["ref_kind"]]
    op_cal, setup_cal, busy_cal = [], [], 0.0
    for p in parts:
        ref = p["ref_s"]
        # a step's factor: nominal ÷ the median of the references of the
        # steps within CAL_WINDOW of it, in the same child
        factor = [nominal / statistics.median(
            ref[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1])
            for j in range(len(ref))]
        op_cal += [s * factor[j] for s, j in zip(p["op_s"], p["op_ref"])]
        busy_cal += sum(s * factor[j] for s, j in p["busy_s"])
        # a build's factor: the references timed just before and after it
        for k, s in enumerate(p["setup_s"]):
            near = p["setup_ref_s"][2 * SETUP_REFS * k:
                                    2 * SETUP_REFS * (k + 1)]
            setup_cal.append(s * nominal / statistics.median(near))
    op_raw = [s for p in parts for s in p["op_s"]]
    setup_raw = [s for p in parts for s in p["setup_s"]]
    ref_all = [s for p in parts for s in p["ref_s"]]
    ledgers = [tuple(x) for p in parts for x in p["ledgers"]]
    good = [x for x in ledgers if x[0]]
    exact = {(x[1], x[2]) for x in good}
    if len(exact) > 1:
        sys.exit(f"perfbench: exact counts differ between ops: {exact}")
    _, words, messages, elapsed = (good or ledgers)[0]
    attempted, failed = len(ledgers), len(ledgers) - len(good)

    end_to_end = {
        "setup_s": (statistics.median(setup_cal), "s"),
        "ops_per_s": (len(op_cal) / busy_cal, "1/s"),
        "op_ms_p50": (statistics.median(op_cal) * 1e3, "ms"),
        "op_ms_p75": (_q3(op_cal) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in parts),
                        "MB"),
        "ok_frac": (len(good) / attempted, "frac"),
        "charged_words": (float(words), "words"),
        "charged_messages": (float(messages), "msgs"),
        "modeled_elapsed": (float(elapsed), "model"),
    }
    per_layer = {
        "ref.ms": (statistics.median(ref_all) * 1e3, "ms"),
        "x_ref": (statistics.median(op_raw) / statistics.median(ref_all),
                  "x"),
        "raw.setup_s": (statistics.median(setup_raw), "s"),
        "raw.ops_per_s": (len(op_raw) / sum(s for p in parts
                                             for s, _ in p["busy_s"]),
                          "1/s"),
        "raw.op_ms_p50": (statistics.median(op_raw) * 1e3, "ms"),
        "raw.op_ms_p75": (_q3(op_raw) * 1e3, "ms"),
        "ops_timed": (float(len(op_raw)), "count"),
        "failed_frac": (failed / attempted, "frac"),
    }
    if trace:
        rows: dict = {}
        for p in parts:
            for key, values in p["layers"].items():
                rows.setdefault(key, []).extend(values)
        for key, values in rows.items():
            if key == "spmd.first_run_s":
                continue
            unit = ("ms" if key.endswith("ms") else
                    "ratio" if key.endswith(("ratio", "coverage")) else
                    "words" if key.endswith("words") else "count")
            per_layer[key] = (statistics.median(values), unit)
        first = [v for p in parts
                 for v in p["setup_layers"]["spmd.first_run_s"]]
        per_layer["spmd.first_run_s"] = (statistics.median(first), "s")
        per_layer["spmd.worker_rss_mb"] = (
            max(p["worker_rss_mb"] for p in parts), "MB")
        traced = [s for p in parts for s in p["traced_op_s"]]
        per_layer["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(op_raw) - 1.0,
            "frac")
    return {
        "workload": name, "attempted": attempted, "failed": failed,
        "errors": sorted({e for p in parts for e in p["errors"]})[:5],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "host": {"nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": __import__("numpy").__version__,
                 "children": len(parts), **parts[0]["facts"]},
        "samples": {k: [p[k] for p in parts]
                    for k in ("setup_s", "setup_ref_s", "op_s", "op_ref",
                              "ref_s")},
    }


def write_golden() -> None:
    """Record the exact per-op ledgers of the current engine."""
    import workloads
    golden = {"jacobi": None, "corpus": {}}
    jac = workloads.make("jacobi_simulate", 0, None)
    jac.build()
    op = jac.step()[0][0]
    jac.close()
    golden["jacobi"] = {"words": op.words, "messages": op.messages,
                        "elapsed": op.elapsed}
    cold = workloads.make("corpus_cold", 0, None)
    cold.build()
    for name, (words, messages, elapsed) in sorted(cold.ledgers.items()):
        golden["corpus"][name] = {"words": words, "messages": messages,
                                  "elapsed": elapsed}
    with open(workloads.GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="jacobi_simulate")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--child", metavar="PART_JSON", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no engine sources at {SRC}")
    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.write_golden:
        write_golden()
        return 0
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    children = workloads.WORKLOADS[args.workload][0].children
    if args.child:
        part = measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), -(-MIN_TIMED_OPS // children),
                       args.child[:-len(".json")] + ".spans.json")
        with open(args.child, "w", encoding="utf-8") as fh:
            json.dump(part, fh)
        return 0

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    parts = _run_children(args, children, stem)
    if args.trace:
        _merge_spans(children, stem)
    result = aggregate(args.workload, parts, bool(args.trace))
    result.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for error in result["errors"]:
        print(f"perfbench: failed op: {error}", file=sys.stderr)
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
