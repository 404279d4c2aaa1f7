"""The benchmark's three workloads, each one closed-loop iteration.

Every workload builds its inputs from the seed alone, runs in this
process with one worker, and times its phases through the given
:class:`~spans.Tracer`.  Phase ``setup`` (build the network, construct
and boot the machine) comes first; every later phase lies inside
``e2e_s``.  The result is an :class:`Outcome`: the simulated counts the
metrics divide by, the payload the golden digest is taken over, and the
objects the per-layer metrics read their counters from.

* ``compile_cold`` — dense fan-in on a 2-board machine: a cold
  ``ClusterApplication.prepare()``, a short run, then one populated chip
  condemned and re-mapped incrementally.
* ``sim_long`` — a lightly connected, fast-firing lif/izhikevich network
  on a 4-board row with every board populated, run for thousands of
  1 ms ticks, then one populated chip condemned and re-mapped.
* ``packet_faults`` — the packet-level event transport on a 5x5 machine:
  a healthy phase, a phase with the busiest links failed (hardware
  emergency routing), and a phase after the monitor's mitigation,
  a chip condemnation and ``remap()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.cluster import ClusterApplication, ClusterReport
from repro.compile import MappingPipeline
from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.fault.injection import FaultInjector
from repro.neuron.connectors import FixedProbabilityConnector
from repro.neuron.network import Network
from repro.neuron.population import Population, SpikeSourcePoisson
from repro.router.multicast import RouterConfig
from repro.runtime.application import ApplicationResult, NeuralApplication
from repro.runtime.boot import BootController
from repro.runtime.monitor import MonitorService

from spans import Tracer

@dataclass
class Outcome:
    """What one iteration of a workload produced."""

    #: Simulated 1 ms ticks run over every ``run`` phase.
    ticks: int
    #: Synaptic events delivered over every ``run`` phase.
    synaptic_events: int
    #: The canonical payload of the golden digest.
    payload: Dict[str, object]
    #: Objects the per-layer metrics read counters from.
    machine: SpiNNakerMachine
    network: Network
    result: ApplicationResult
    pipeline: MappingPipeline
    #: The cluster runner's statistics (``None``: not a cluster workload).
    report: Optional[ClusterReport] = None
    #: Names of the phases that ran simulated time.
    sim_phases: Tuple[str, ...] = ("run",)
    #: Kernel events the machine had processed when setup ended (boot).
    setup_events: int = 0


class WorkloadError(RuntimeError):
    """A workload's output broke one of its own expectations."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise WorkloadError(message)


def result_payload(result: ApplicationResult) -> Dict[str, object]:
    """The parts of a run's result every digest covers."""
    return {
        "spikes": {label: list(spikes)
                   for label, spikes in result.spikes.items()},
        "spike_counts": dict(result.spike_counts),
        "synaptic_events": int(result.synaptic_events),
        "delivered_charge_na": float(result.delivered_charge_na),
    }


def _boot(config: MachineConfig, seed: int) -> SpiNNakerMachine:
    machine = SpiNNakerMachine(config)
    BootController(machine, seed=seed).boot()
    return machine


#: Input weight multiplier per neuron model: Izhikevich neurons need a
#: larger input current than LIF ones to fire at a comparable rate.
MODEL_GAIN = {"lif": 1.0, "izhikevich": 8.0}


def _paired_network(seed: int, pairs: int, neurons: int, rate_hz: float,
                    models: Tuple[str, ...], p_in: float, w_in: float,
                    p_rec: float, w_rec: float, p_chain: float,
                    w_chain: float) -> Network:
    """Stimulus -> excitatory pairs with recurrence, chained in a ring so
    spikes cross board cables however the placer tiles them."""
    network = Network(seed=seed)
    excitatory = []
    for pair in range(pairs):
        model = models[pair % len(models)]
        gain = MODEL_GAIN[model]
        stimulus = SpikeSourcePoisson(neurons, rate_hz=rate_hz,
                                      label="stim-%d" % pair)
        population = Population(neurons, model, label="exc-%d" % pair)
        population.record(spikes=True)
        network.connect(stimulus, population, FixedProbabilityConnector(
            p_in, weight=w_in * gain, delay_range=(1, 8)))
        network.connect(population, population, FixedProbabilityConnector(
            p_rec, weight=w_rec * gain, delay_range=(1, 16)))
        excitatory.append(population)
    for index, population in enumerate(excitatory):
        target = excitatory[(index + 1) % pairs]
        network.connect(population, target, FixedProbabilityConnector(
            p_chain, weight=w_chain * MODEL_GAIN[target.model_name],
            delay_range=(2, 16)))
    return network


def _populated_chip(placement):
    """The chip holding the most placed vertices (first such in
    placement order) — condemning it displaces the most work."""
    counts: Dict[object, int] = {}
    for chip, _core in placement.locations.values():
        counts[chip] = counts.get(chip, 0) + 1
    return max(counts, key=lambda chip: counts[chip])


# ----------------------------------------------------------------------
# compile_cold
# ----------------------------------------------------------------------
COMPILE_COLD_RUN_MS = 100.0


def compile_cold(seed: int, tracer: Tracer) -> Outcome:
    with tracer.phase("setup"):
        network = _paired_network(
            seed, pairs=4, neurons=480, rate_hz=40.0, models=("lif",),
            p_in=0.12, w_in=0.3, p_rec=0.06, w_rec=0.05, p_chain=0.04,
            w_chain=0.05)
        machine = _boot(MachineConfig.multi_board(
            2, 1, board_width=8, board_height=6, cores_per_chip=4), seed)
    setup_events = machine.kernel.events_processed
    cluster = ClusterApplication(
        machine, network, seed=seed, max_neurons_per_core=128,
        placement_strategy="round-robin", account_transport=True)
    with tracer.phase("prepare"):
        cluster.prepare()
    with tracer.phase("run"):
        result = cluster.run(COMPILE_COLD_RUN_MS)
    report = cluster.report
    condemned = _populated_chip(cluster.pipeline.ctx.placement)
    monitor = MonitorService(machine)
    with tracer.phase("remap"):
        monitor.condemn_chip(condemned)
        ctx = cluster.pipeline.run()
    _expect(report.n_boards == 2, "both boards must be populated")
    _expect(result.total_spikes() > 0, "the network must spike")
    _expect(all(chip != condemned
                for chip, _core in ctx.placement.locations.values()),
            "the re-map must move every vertex off the condemned chip")
    payload = result_payload(result)
    payload["remapped_boards"] = {
        board: [(core.chip.x, core.chip.y, core.core_id, core.vertex.index,
                 core.vertex.population_label) for core in context.cores]
        for board, context in ctx.board_contexts.items()}
    return Outcome(ticks=report.n_ticks,
                   synaptic_events=result.synaptic_events, payload=payload,
                   machine=machine, network=network, result=result,
                   pipeline=cluster.pipeline, report=report,
                   setup_events=setup_events)


# ----------------------------------------------------------------------
# sim_long
# ----------------------------------------------------------------------
SIM_LONG_MS = 2000.0


def sim_long(seed: int, tracer: Tracer) -> Outcome:
    with tracer.phase("setup"):
        network = _paired_network(
            seed, pairs=8, neurons=256, rate_hz=150.0,
            models=("lif", "izhikevich"), p_in=0.02, w_in=2.25,
            p_rec=0.005, w_rec=0.9, p_chain=0.005, w_chain=0.9)
        machine = _boot(MachineConfig.multi_board(
            4, 1, board_width=8, board_height=6, cores_per_chip=2), seed)
    setup_events = machine.kernel.events_processed
    # One application core per chip and 128 neurons per core: 2 vertices
    # per population, 32 in all — one full chip row of the 4-board row,
    # so every board holds 8.
    cluster = ClusterApplication(
        machine, network, seed=seed, max_neurons_per_core=128,
        placement_strategy="round-robin", account_transport=True)
    with tracer.phase("prepare"):
        cluster.prepare()
    with tracer.phase("run"):
        result = cluster.run(SIM_LONG_MS)
    report = cluster.report
    monitor = MonitorService(machine)
    with tracer.phase("remap"):
        monitor.condemn_chip(_populated_chip(cluster.pipeline.ctx.placement))
        cluster.pipeline.run()
    _expect(report.n_boards == 4, "every board must be populated")
    _expect(report.cross_board_spikes > 0, "spikes must cross boards")
    payload = result_payload(result)
    payload["boards"] = sorted(cluster.board_contexts)
    return Outcome(ticks=report.n_ticks,
                   synaptic_events=result.synaptic_events, payload=payload,
                   machine=machine, network=network, result=result,
                   pipeline=cluster.pipeline, report=report,
                   setup_events=setup_events)


# ----------------------------------------------------------------------
# packet_faults
# ----------------------------------------------------------------------
PHASE_MS = 60.0
LINK_FAILURE_FRACTION = 0.05
FAULT_PHASES = ("phase_healthy", "phase_faulty", "phase_rerouted")


def packet_faults(seed: int, tracer: Tracer) -> Outcome:
    with tracer.phase("setup"):
        network = Network(seed=seed)
        stimulus = SpikeSourcePoisson(100, rate_hz=60.0, label="stimulus")
        excitatory = Population(200, "lif", label="excitatory")
        inhibitory = Population(50, "lif", label="inhibitory")
        excitatory.record(spikes=True)
        inhibitory.record(spikes=True)
        network.connect(stimulus, excitatory, FixedProbabilityConnector(
            0.15, weight=0.9, delay_range=(1, 8)))
        network.connect(excitatory, inhibitory,
                        FixedProbabilityConnector(0.1, weight=0.5))
        network.connect(inhibitory, excitatory,
                        FixedProbabilityConnector(0.2, weight=-0.5))
        machine = _boot(MachineConfig(
            width=5, height=5, cores_per_chip=6,
            router_config=RouterConfig(emergency_wait_us=0.5,
                                       drop_wait_us=1.0)), seed)
    setup_events = machine.kernel.events_processed
    application = NeuralApplication(machine, network,
                                    max_neurons_per_core=16, seed=seed,
                                    transport="event")
    with tracer.phase("prepare"):
        application.prepare()
    with tracer.phase("phase_healthy"):
        application.run(PHASE_MS)
    # Fail the links that carry the traffic: idle ones exercise nothing.
    injector = FaultInjector(machine, seed=seed)
    busiest = sorted(machine.links.values(),
                     key=lambda link: (-link.packets_carried,
                                       link.source.x, link.source.y,
                                       link.direction.value))
    n_failures = max(1, int(LINK_FAILURE_FRACTION * len(machine.links)))
    for link in busiest[:n_failures]:
        injector.fail_link(link.source, link.direction)
    with tracer.phase("phase_faulty"):
        application.run(PHASE_MS)
    monitor = MonitorService(machine, emergency_threshold=3)
    with tracer.phase("remap"):
        monitor.process_mailboxes()
        monitor.condemn_chip(_populated_chip(application.placement))
        application.remap()
    with tracer.phase("phase_rerouted"):
        result = application.run(PHASE_MS)
    _expect(result.total_spikes() > 0, "the network must spike")
    _expect(result.emergency_invocations > 0,
            "the failed links must invoke emergency routing")
    payload = result_payload(result)
    payload.update({
        "packets_sent": int(result.packets_sent),
        "packets_dropped": int(result.packets_dropped),
        "emergency_invocations": int(result.emergency_invocations),
        "delivery_latencies_us": np.sort(result.delivery_latencies_us),
    })
    return Outcome(ticks=int(3 * PHASE_MS / network.timestep_ms),
                   synaptic_events=result.synaptic_events, payload=payload,
                   machine=machine, network=network, result=result,
                   pipeline=application.pipeline, sim_phases=FAULT_PHASES,
                   setup_events=setup_events)


WORKLOADS: Dict[str, Callable[[int, Tracer], Outcome]] = {
    "compile_cold": compile_cold,
    "sim_long": sim_long,
    "packet_faults": packet_faults,
}
