"""The repository benchmark: one workload, one process, one worker.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_long --seed 1 --seconds 24 \\
        --trace 0

Runs closed-loop iterations of the workload (see ``workloads.py``) until
``--seconds`` have passed, checks every iteration's result digest against
the checked-in golden digest for the seed (or, for a seed without one,
against the run's first iteration) and prints, as the last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, medians over the
iterations.  ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics of the traced ones, the tracing overhead,
and writes the spans to ``perfbench/out/<workload>-<seed>.trace.json``
(Chrome trace-event JSON; open it in https://ui.perfetto.dev).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")

#: End-to-end metric -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s", "e2e_s": "s", "compile_s": "s", "remap_s": "s",
    "sim_s": "s", "host_ms_per_tick": "ms", "syn_events_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def host_probes(repeats: int = 5) -> Dict[str, float]:
    """Fixed pure-Python and NumPy micro-kernels, median milliseconds —
    a slow host shows here whatever the program does."""
    import numpy as np

    vector = np.arange(1_000_000, dtype=np.float64)
    py_ms, np_ms = [], []
    for _ in range(repeats):
        began = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        py_ms.append((perf_counter() - began) * 1e3)
        began = perf_counter()
        for _ in range(10):
            float(np.sqrt(vector * 1.000001 + 3.0).sum())
        np_ms.append((perf_counter() - began) * 1e3)
    return {"host.probe_py_ms": statistics.median(py_ms),
            "host.probe_np_ms": statistics.median(np_ms)}


def run_once(name: str, seed: int, traced: bool) -> Dict[str, object]:
    """One closed-loop iteration: its phase times, digest and, when
    traced, its per-layer metrics (and the tracer itself)."""
    import layers
    from digest import digest
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    tracer.record_args = (layers.STEP,)
    if traced:
        with tracer.installed(layers.targets()):
            outcome = WORKLOADS[name](seed, tracer)
    else:
        outcome = WORKLOADS[name](seed, tracer)
    phases = tracer.phases
    if phases[0][0] != "setup":
        raise RuntimeError("the first phase must be setup")
    setup_end = phases[0][2]
    e2e_phases = [phase for phase, _start, _end in phases[1:]]
    sim_s = tracer.phase_s(*outcome.sim_phases)
    e2e_s = phases[-1][2] - setup_end
    record: Dict[str, object] = {
        "traced": traced,
        "digest": digest(outcome.payload),
        "setup_s": tracer.phase_s("setup"),
        "e2e_s": e2e_s,
        "compile_s": tracer.phase_s("prepare"),
        "remap_s": tracer.phase_s("remap"),
        "sim_s": sim_s,
        "host_ms_per_tick": sim_s * 1e3 / outcome.ticks,
        "syn_events_per_s": outcome.synaptic_events / sim_s,
    }
    if traced:
        record["layers"] = layers.layer_metrics(tracer, outcome, e2e_phases,
                                                e2e_s)
        record["tracer"] = tracer
    return record


def _median(records: List[Dict[str, object]], key: str) -> float:
    return statistics.median(record[key] for record in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: no program to measure: %s/repro is missing "
              "(run from a checkout of the repository)" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import layers
    from digest import load_golden
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    probes = host_probes()
    golden = load_golden(GOLDEN, args.workload, args.seed)
    deadline = perf_counter() + args.seconds
    records: List[Dict[str, object]] = []
    attempted = failed = 0
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        try:
            record = run_once(args.workload, args.seed, traced)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        expected = golden or (records[0]["digest"] if records else None)
        if expected is not None and record["digest"] != expected:
            failed += 1
            print("perfbench: iteration %d (%s) digest %s != expected %s"
                  % (attempted, "traced" if traced else "untraced",
                     record["digest"], expected), file=sys.stderr)
        records.append(record)
        gc.collect()
        if perf_counter() >= deadline and (not args.trace or attempted >= 2):
            break

    plain = [record for record in records if not record["traced"]]
    traced_records = [record for record in records if record["traced"]]
    print("perfbench %s seed=%d: %d iterations (%d traced), digest %s (%s)"
          % (args.workload, args.seed, attempted, len(traced_records),
             records[0]["digest"][:16] if records else "-",
             "golden" if golden else "no golden for this seed"))
    print("  host probes: " + ", ".join("%s=%.3f" % item
                                        for item in probes.items()))
    for key in ("e2e_s", "compile_s", "remap_s", "sim_s"):
        print("  %s per iteration: %s" % (key, " ".join(
            "%.4f" % record[key] for record in records)))
    metrics: Dict[str, Dict[str, object]] = {}
    if plain and not args.trace:
        for key, unit in END_TO_END.items():
            if key == "peak_rss_mb":
                value = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                value = _median(plain, key)
            metrics[key] = {"value": value, "unit": unit}
    elif plain and traced_records:
        values = dict(probes)
        untraced_e2e = _median(plain, "e2e_s")
        values["trace.overhead_frac"] = (
            _median(traced_records, "e2e_s") - untraced_e2e) / untraced_e2e
        for key in traced_records[0]["layers"]:
            values[key] = statistics.median(
                record["layers"][key] for record in traced_records)
        for key, unit in layers.PER_LAYER.items():
            metrics[key] = {"value": values[key], "unit": unit}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "%s-%d.trace.json"
                            % (args.workload, args.seed))
        traced_records[-1]["tracer"].chrome_trace(path, {
            "workload": args.workload, "seed": args.seed})
        print("  trace written to %s" % os.path.relpath(path, ROOT))
    for key, entry in metrics.items():
        print("  %-36s %14.6g %s" % (key, entry["value"], entry["unit"]))
    print(json.dumps({"correct": bool(records) and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
