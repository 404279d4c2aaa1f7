"""The layers the traced run wraps, and the per-layer metrics.

Each layer is one of the program's modules.  Its public callables are
wrapped where their callers look them up (the class attribute for a
method, so every instance sees the wrapper), from here, without touching
``src/``.  Span names are ``<layer>.<what>``; the metric names below
share the layer prefix.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cluster.exchange import ExchangePlan, InProcessExchange
from repro.cluster.application import ClusterApplication
from repro.cluster.fused import FusedBoardEngine
from repro.compile.context import MappingContext
from repro.compile.passes import DEFAULT_PASSES
from repro.compile.pipeline import MappingPipeline
from repro.core.event_kernel import EventKernel
from repro.core.sdram import SDRAM
from repro.router.fabric import TransportFabric
from repro.router.multicast import Router
from repro.runtime.application import ApplicationResult, NeuralApplication
from repro.runtime.boot import BootController
from repro.runtime.monitor import MonitorService

from spans import Target, Tracer
from workloads import Outcome

#: Every per-layer metric and its unit, in report order.
PER_LAYER = {
    "neuron.expand_s": "s", "neuron.synapses": "count",
    "neuron.expand_us_per_synapse": "us",
    "compile.pipeline_s": "s", "compile.partition_s": "s",
    "compile.place_s": "s", "compile.allocate_keys_s": "s",
    "compile.route_s": "s", "compile.compress_s": "s",
    "compile.synaptic_matrices_s": "s", "compile.compile_transport_s": "s",
    "compile.shard_by_board_s": "s", "compile.remap_shard_by_board_s": "s",
    "compile.cache_hits": "count", "compile.invocations": "count",
    "compile.cache_hit_ratio": "ratio", "compile.routing_entries": "count",
    "sdram.bytes_written": "B", "sdram.write_block_calls": "count",
    "sdram.write_block_s": "s", "sdram.peek_block_calls": "count",
    "sdram.peek_block_s": "s",
    "cluster.prepare_s": "s", "cluster.run_s": "s", "cluster.plan_s": "s",
    "cluster.engine_init_s": "s", "cluster.step_s": "s",
    "cluster.step_calls": "count", "cluster.tick_p50_ms": "ms",
    "cluster.tick_p99_ms": "ms", "cluster.tick_over_1ms_frac": "ratio",
    "cluster.apply_local_s": "s", "cluster.exchange_in_s": "s",
    "cluster.serialize_s": "s", "cluster.collect_s": "s",
    "cluster.ns_per_syn_event": "ns", "cluster.synaptic_events": "count",
    "cluster.spikes": "count", "cluster.cross_board_spikes": "count",
    "cluster.cross_board_batches": "count", "cluster.supersteps": "count",
    "fabric.account_s": "s", "fabric.batches": "count",
    "fabric.inter_board_traversals": "count",
    "runtime.prepare_s": "s", "runtime.remap_s": "s",
    "runtime.phase_healthy_s": "s", "runtime.phase_faulty_s": "s",
    "runtime.phase_rerouted_s": "s", "runtime.prepare_self_s": "s",
    "runtime.run_self_s": "s", "runtime.monitor_s": "s",
    "kernel.events": "count", "kernel.run_s": "s", "kernel.us_per_event": "us",
    "router.multicast_routed": "count", "router.emergency_invocations": "count",
    "router.emergency_ratio": "ratio", "router.dropped": "count",
    "link.packets_carried": "count", "router.route_multicast_s": "s",
    "router.delivery_latency_p99_us": "us",
    "trace.attributed_frac": "ratio", "trace.overhead_frac": "ratio",
    "host.probe_py_ms": "ms", "host.probe_np_ms": "ms",
}

#: Span name of the board step; its per-call tick argument is recorded
#: so per-tick sums over the boards can be formed.
STEP = "cluster.step"


def targets() -> List[Target]:
    """Every wrapped callable: (owner, attribute, span name, keep spans).

    Callables run per packet, per SDRAM block or per fabric batch keep no
    span record (``False``): they are timed and counted only.
    """
    wrapped: List[Target] = [
        # neuron: connectivity expansion (Connector.build), run lazily
        # by the compiler the first time a pass needs the reach map.
        (MappingContext, "ensure_reach", "neuron.expand", True),
        # compile: the pass pipeline and every pass.
        (MappingPipeline, "run", "compile.pipeline", True),
    ]
    wrapped += [(cls, "run", "compile." + cls.name, True)
                for cls in DEFAULT_PASSES]
    wrapped += [
        # core.sdram
        (SDRAM, "write_block", "sdram.write_block", False),
        (SDRAM, "peek_block", "sdram.peek_block", False),
        # cluster
        (ClusterApplication, "prepare", "cluster.prepare", True),
        (ClusterApplication, "run", "cluster.run", True),
        (ExchangePlan, "build", "cluster.plan", True),
        (FusedBoardEngine, "__init__", "cluster.engine_init", True),
        (FusedBoardEngine, "step", STEP, True),
        (FusedBoardEngine, "apply", "cluster.apply_local", False),
        (FusedBoardEngine, "apply_remote", "cluster.exchange_in", False),
        (InProcessExchange, "write_board_batches", "cluster.serialize",
         False),
        (FusedBoardEngine, "finish", "cluster.finish", True),
        (ApplicationResult, "merge", "cluster.merge", True),
        # router.fabric
        (TransportFabric, "account_batch", "fabric.account", False),
        # runtime
        (BootController, "boot", "runtime.boot", True),
        (NeuralApplication, "prepare", "runtime.prepare", True),
        (NeuralApplication, "remap", "runtime.remap", True),
        (NeuralApplication, "run", "runtime.run", True),
        (MonitorService, "process_mailboxes", "runtime.monitor", True),
        (MonitorService, "condemn_chip", "runtime.monitor", True),
        # core.event_kernel
        (EventKernel, "run_until", "kernel.run", True),
        (EventKernel, "run", "kernel.run", True),
        # router (per packet)
        (Router, "route_multicast", "router.route_multicast", False),
    ]
    return wrapped


#: Self-time span -> per-layer metric, summed over every e2e phase.
SELF_TIMES = {
    "neuron.expand": "neuron.expand_s",
    "compile.pipeline": "compile.pipeline_s",
    "compile.partition": "compile.partition_s",
    "compile.place": "compile.place_s",
    "compile.allocate-keys": "compile.allocate_keys_s",
    "compile.route": "compile.route_s",
    "compile.compress": "compile.compress_s",
    "compile.synaptic-matrices": "compile.synaptic_matrices_s",
    "compile.compile-transport": "compile.compile_transport_s",
    "compile.shard-by-board": "compile.shard_by_board_s",
    "sdram.peek_block": "sdram.peek_block_s",
    "sdram.write_block": "sdram.write_block_s",
    "cluster.prepare": "cluster.prepare_s",
    "cluster.run": "cluster.run_s",
    "cluster.plan": "cluster.plan_s",
    "cluster.engine_init": "cluster.engine_init_s",
    STEP: "cluster.step_s",
    "cluster.apply_local": "cluster.apply_local_s",
    "cluster.exchange_in": "cluster.exchange_in_s",
    "cluster.serialize": "cluster.serialize_s",
    "fabric.account": "fabric.account_s",
    "runtime.prepare": "runtime.prepare_self_s",
    "runtime.run": "runtime.run_self_s",
    "runtime.monitor": "runtime.monitor_s",
    "router.route_multicast": "router.route_multicast_s",
}


def _per_tick_ms(tracer: Tracer) -> np.ndarray:
    """Board step time summed per tick: consecutive steps of one tick
    (one per board) form a group; a new run restarts at tick 0."""
    sums: List[float] = []
    previous = None
    for tick, seconds in tracer.call_args.get(STEP, ()):
        if tick != previous:
            sums.append(0.0)
            previous = tick
        sums[-1] += seconds
    return np.asarray(sums) * 1000.0


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, outcome: Outcome,
                  e2e_phases: List[str], e2e_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced iteration."""
    metrics: Dict[str, float] = {}
    for span, metric in SELF_TIMES.items():
        metrics[metric] = tracer.self_s(span, e2e_phases)

    # neuron
    synapses = outcome.network.n_synapses()
    metrics["neuron.synapses"] = synapses
    metrics["neuron.expand_us_per_synapse"] = _ratio(
        metrics["neuron.expand_s"] * 1e6, synapses)

    # compile
    records = outcome.pipeline.records.values()
    hits = sum(record.cache_hits for record in records)
    invocations = sum(record.invocations for record in records)
    metrics["compile.cache_hits"] = hits
    metrics["compile.invocations"] = invocations
    metrics["compile.cache_hit_ratio"] = _ratio(hits, invocations)
    metrics["compile.remap_shard_by_board_s"] = tracer.self_s(
        "compile.shard-by-board", ["remap"])
    metrics["compile.routing_entries"] = sum(
        len(chip.router.table.entries)
        for chip in outcome.machine.chips.values())

    # core.sdram
    metrics["sdram.bytes_written"] = sum(
        chip.sdram.total_bytes_written
        for chip in outcome.machine.chips.values())
    metrics["sdram.write_block_calls"] = tracer.calls("sdram.write_block",
                                                      e2e_phases)
    metrics["sdram.peek_block_calls"] = tracer.calls("sdram.peek_block",
                                                     e2e_phases)

    # cluster
    ticks = _per_tick_ms(tracer)
    metrics["cluster.step_calls"] = tracer.calls(STEP, e2e_phases)
    metrics["cluster.tick_p50_ms"] = (float(np.percentile(ticks, 50))
                                      if ticks.size else 0.0)
    metrics["cluster.tick_p99_ms"] = (float(np.percentile(ticks, 99))
                                      if ticks.size else 0.0)
    metrics["cluster.tick_over_1ms_frac"] = (float(np.mean(ticks > 1.0))
                                             if ticks.size else 0.0)
    metrics["cluster.collect_s"] = (tracer.self_s("cluster.finish", e2e_phases)
                                    + tracer.self_s("cluster.merge",
                                                    e2e_phases))
    report = outcome.report
    on_cluster = report is not None
    cluster_events = outcome.result.synaptic_events if on_cluster else 0
    metrics["cluster.synaptic_events"] = cluster_events
    metrics["cluster.spikes"] = (outcome.result.total_spikes()
                                 if on_cluster else 0)
    metrics["cluster.cross_board_spikes"] = (report.cross_board_spikes
                                             if on_cluster else 0)
    metrics["cluster.cross_board_batches"] = (report.cross_board_batches
                                              if on_cluster else 0)
    metrics["cluster.supersteps"] = report.supersteps if on_cluster else 0
    compute_s = (metrics["cluster.step_s"] + metrics["cluster.apply_local_s"]
                 + metrics["cluster.exchange_in_s"])
    metrics["cluster.ns_per_syn_event"] = _ratio(compute_s * 1e9,
                                                 cluster_events)

    # router.fabric
    metrics["fabric.batches"] = tracer.calls("fabric.account", e2e_phases)
    metrics["fabric.inter_board_traversals"] = (
        report.inter_board_traversals if on_cluster else 0)

    # runtime and core.event_kernel
    metrics["runtime.prepare_s"] = tracer.total("runtime.prepare")
    metrics["runtime.remap_s"] = tracer.total("runtime.remap")
    for phase in ("phase_healthy", "phase_faulty", "phase_rerouted"):
        metrics["runtime.%s_s" % phase] = tracer.total("runtime.run",
                                                       [phase])
    kernel_s = tracer.total("kernel.run", e2e_phases)
    events = outcome.machine.kernel.events_processed - outcome.setup_events
    metrics["kernel.run_s"] = kernel_s
    metrics["kernel.events"] = events
    metrics["kernel.us_per_event"] = _ratio(kernel_s * 1e6, events)

    # router and link
    stats = [chip.router.stats for chip in outcome.machine.chips.values()]
    routed = sum(stat.multicast_routed for stat in stats)
    emergency = sum(stat.emergency_invocations for stat in stats)
    metrics["router.multicast_routed"] = routed
    metrics["router.emergency_invocations"] = emergency
    metrics["router.emergency_ratio"] = _ratio(emergency, routed)
    metrics["router.dropped"] = sum(stat.dropped for stat in stats)
    metrics["link.packets_carried"] = sum(
        link.packets_carried for link in outcome.machine.links.values())
    latencies = outcome.result.delivery_latencies_us
    metrics["router.delivery_latency_p99_us"] = (
        float(np.percentile(latencies, 99)) if latencies.size else 0.0)

    # trace: the share of e2e_s some layer's self time accounts for.
    layers = tracer.layer_self_s(e2e_phases)
    metrics["trace.attributed_frac"] = _ratio(sum(layers.values()), e2e_s)
    return metrics
