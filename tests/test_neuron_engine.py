"""Tests for the vectorized CSR spike-propagation engine.

Covers the CSR compilation/round-trips, the vectorized ring-buffer
scatter, the packed SDRAM word codec, the vectorized STDP rule and —
most importantly — the equivalence suite: seeded networks must produce
identical spike trains under ``propagation="csr"`` and
``propagation="reference"`` on both the host simulator and the
on-machine runtime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.machine import MachineConfig, SpiNNakerMachine
from repro.neuron.connectors import (
    FixedProbabilityConnector,
    FromListConnector,
)
from repro.neuron.engine import (
    CSRMatrix,
    decode_packed_row,
    pack_synapse_words,
    unpack_synapse_words,
)
from repro.neuron.network import Network
from repro.neuron.population import Population, Projection, SpikeSourcePoisson
from repro.neuron.stdp import STDPMechanism
from repro.neuron.synapse import DeferredEventBuffer, Synapse, SynapticRow
from repro.runtime.application import NeuralApplication
from repro.runtime.boot import BootController


def random_rows(rng, n_pre=20, n_post=30, p=0.4):
    return FixedProbabilityConnector(
        p_connect=p, weight_range=(-2.0, 3.0),
        delay_range=(1, 16)).build(n_pre, n_post, rng)


class TestCSRMatrix:
    def test_from_rows_to_rows_round_trip(self, rng):
        rows = random_rows(rng)
        csr = CSRMatrix.from_rows(rows, 20, 30)
        recovered = csr.to_rows()
        for pre in range(20):
            assert recovered[pre] == list(rows.get(pre, []))

    def test_row_ptr_matches_row_lengths(self, rng):
        rows = random_rows(rng)
        csr = CSRMatrix.from_rows(rows, 20, 30)
        assert csr.n_synapses == sum(len(r) for r in rows.values())
        assert np.array_equal(csr.row_lengths(),
                              [len(rows.get(i, ())) for i in range(20)])

    def test_handles_sparse_row_keys(self, rng):
        rows = FromListConnector([(3, 1, 0.5, 2), (17, 0, -0.25, 9)]).build(
            20, 4, rng)
        csr = CSRMatrix.from_rows(rows, 20, 4)
        assert csr.n_synapses == 2
        assert csr.max_delay() == 9
        assert list(csr.pre_index) == [3, 17]

    def test_rejects_bad_row_keys_and_targets(self):
        with pytest.raises(IndexError):
            CSRMatrix.from_rows({25: [Synapse(0, 1.0)]}, 20, 4)
        with pytest.raises(ValueError):
            CSRMatrix.from_rows({0: [Synapse(9, 1.0)]}, 20, 4)

    def test_synapse_slots_preserve_reference_order(self, rng):
        rows = random_rows(rng)
        csr = CSRMatrix.from_rows(rows, 20, 30)
        spiking = np.array([2, 7, 13])
        slots = csr.synapse_slots(spiking)
        expected_targets = [s.target for pre in spiking
                            for s in rows.get(int(pre), ())]
        assert list(csr.targets[slots]) == expected_targets

    def test_submatrix_matches_manual_filter(self, rng):
        rows = random_rows(rng, n_pre=24, n_post=32)
        csr = CSRMatrix.from_rows(rows, 24, 32)
        block = csr.submatrix(8, 16, 10, 25)
        expected = {}
        for pre in range(8, 16):
            expected[pre - 8] = [Synapse(s.target - 10, s.weight, s.delay_ticks)
                                 for s in rows.get(pre, ())
                                 if 10 <= s.target < 25]
        assert block.to_rows() == expected

    def test_connector_build_csr_matches_build(self):
        connector = FixedProbabilityConnector(p_connect=0.4,
                                              weight_range=(-1.0, 1.0),
                                              delay_range=(1, 16))
        rows = connector.build(20, 30, np.random.default_rng(8))
        csr = connector.build_csr(20, 30, np.random.default_rng(8))
        assert csr.to_rows() == {pre: list(rows.get(pre, []))
                                 for pre in range(20)}

    def test_write_back_syncs_mutated_weights(self, rng):
        rows = random_rows(rng)
        csr = CSRMatrix.from_rows(rows, 20, 30)
        csr.weights *= 0.5
        csr.write_back(rows)
        recompiled = CSRMatrix.from_rows(rows, 20, 30)
        assert np.array_equal(recompiled.weights, csr.weights)


class TestPackedWordCodec:
    def test_pack_words_match_synapse_pack(self, rng):
        rows = random_rows(rng, n_pre=10, n_post=50)
        csr = CSRMatrix.from_rows(rows, 10, 50)
        words = pack_synapse_words(csr.targets, csr.weights, csr.delay_ticks)
        expected = [s.pack() for pre in range(10)
                    for s in rows.get(pre, ())]
        assert [int(w) for w in words] == expected

    def test_unpack_words_match_synapse_unpack(self, rng):
        synapses = [Synapse(i * 7 % 100, w, d)
                    for i, (w, d) in enumerate(zip(
                        np.linspace(-120.0, 120.0, 40), range(1, 17)))]
        words = [s.pack() for s in synapses]
        targets, weights, delays = unpack_synapse_words(words)
        for i, word in enumerate(words):
            reference = Synapse.unpack(word)
            assert targets[i] == reference.target
            assert weights[i] == reference.weight
            assert delays[i] == reference.delay_ticks

    def test_pack_rejects_oversized_target(self):
        with pytest.raises(ValueError):
            pack_synapse_words(np.array([5000]), np.array([1.0]),
                               np.array([1]))

    def test_pack_rejects_negative_target(self):
        with pytest.raises(ValueError):
            pack_synapse_words(np.array([-1]), np.array([1.0]), np.array([1]))

    def test_add_events_invalid_batch_leaves_buffer_untouched(self):
        buffer = DeferredEventBuffer(8)
        with pytest.raises(IndexError):
            buffer.add_events(np.array([0, 1, 8]), np.ones(3),
                              np.array([1, 1, 1]))
        assert buffer.pending_charge() == 0.0
        assert buffer.events_deferred == 0

    def test_pack_rejects_out_of_range_delays(self):
        with pytest.raises(ValueError):
            pack_synapse_words(np.array([0]), np.array([1.0]), np.array([0]))
        with pytest.raises(ValueError):
            pack_synapse_words(np.array([0]), np.array([1.0]), np.array([17]))

    def test_csr_matrix_rejects_out_of_range_delays(self):
        with pytest.raises(ValueError):
            CSRMatrix(1, 4, np.array([0, 1]), np.array([0]),
                      np.array([1.0]), np.array([0]))

    def test_pack_block_matches_synaptic_row_pack(self, rng):
        rows = random_rows(rng, n_pre=8, n_post=12)
        csr = CSRMatrix.from_rows(rows, 8, 12)
        block = csr.pack_block()
        assert block.dtype == np.uint32
        assert block.shape == (8, 1 + max(len(r) for r in rows.values()))
        for pre in range(8):
            words = SynapticRow(pre, rows.get(pre, ())).pack()
            # Each row is the SynapticRow packing, zero-padded to the stride.
            assert block[pre].tolist() == \
                words + [0] * (block.shape[1] - len(words))

    def test_packed_block_round_trip_with_padding(self, rng):
        rows = random_rows(rng, n_pre=8, n_post=12)
        csr = CSRMatrix.from_rows(rows, 8, 12)
        block = np.pad(csr.pack_block(), ((0, 0), (0, 2)))  # wider stride
        recovered = CSRMatrix.from_packed_block(block, 12)
        assert np.array_equal(recovered.row_ptr, csr.row_ptr)
        assert np.array_equal(recovered.targets, csr.targets)
        assert np.array_equal(recovered.delay_ticks, csr.delay_ticks)
        for name in ("row_ptr", "targets", "weights", "delay_ticks"):
            assert getattr(recovered, name).dtype == getattr(csr, name).dtype
        # Weights go through fixed-point quantisation.
        assert np.all(np.abs(recovered.weights - csr.weights) <= 1.0 / 16 + 1e-9)

    def test_packed_block_rejects_overlong_header(self):
        block = np.array([[5, 0], [0, 0]], dtype=np.uint32)
        with pytest.raises(ValueError):
            CSRMatrix.from_packed_block(block, 4)

    def test_decode_packed_row_validation(self):
        with pytest.raises(ValueError):
            decode_packed_row([])
        with pytest.raises(ValueError):
            decode_packed_row([5, 0])


class TestVectorizedBufferScatter:
    def test_add_events_equals_scalar_adds(self, rng):
        targets = rng.integers(0, 10, size=200)
        weights = rng.uniform(-2.0, 2.0, size=200)
        delays = rng.integers(1, 17, size=200)
        vector = DeferredEventBuffer(10)
        scalar = DeferredEventBuffer(10)
        vector.add_events(targets, weights, delays)
        for t, w, d in zip(targets, weights, delays):
            scalar.add_input(int(t), float(w), int(d))
        for _ in range(17):
            assert np.array_equal(vector.drain(), scalar.drain())
        assert vector.events_deferred == scalar.events_deferred == 200

    def test_add_events_validation(self):
        buffer = DeferredEventBuffer(4)
        with pytest.raises(IndexError):
            buffer.add_events(np.array([4]), np.array([1.0]), np.array([1]))
        with pytest.raises(ValueError):
            buffer.add_events(np.array([0]), np.array([1.0]), np.array([0]))
        buffer.add_events(np.array([], dtype=int), np.array([]),
                          np.array([], dtype=int))
        assert buffer.events_deferred == 0

    def test_add_events_result_independent_of_batch_size(self):
        # 33 events take the vectorized path, 32 the scalar one; a cell
        # saturating mid-batch must land identically either way.
        from repro.neuron.synapse import WEIGHT_SATURATION_NA

        def fill(n_events):
            buffer = DeferredEventBuffer(4)
            targets = np.zeros(n_events, dtype=int)
            weights = np.full(n_events, 2.0 * WEIGHT_SATURATION_NA / 3.0)
            weights[-1] = -1.0
            buffer.add_events(targets, weights, np.ones(n_events, dtype=int))
            buffer.drain()
            return buffer.drain()[0], buffer.saturations

        small_value, small_sats = fill(32)
        large_value, large_sats = fill(33)
        expected = WEIGHT_SATURATION_NA  # sum exceeds the limit, clamped once
        assert small_value == pytest.approx(expected)
        assert large_value == pytest.approx(expected)
        assert small_sats == large_sats == 1

    def test_dense_and_sparse_clamp_paths_agree(self):
        # Above/below the events-vs-population threshold the clamp uses a
        # row scan vs unique-cell dedup; results must match.
        from repro.neuron.synapse import WEIGHT_SATURATION_NA

        def fill(n_neurons):
            buffer = DeferredEventBuffer(n_neurons)
            n_events = 64
            targets = np.arange(n_events) % 2
            weights = np.full(n_events, WEIGHT_SATURATION_NA / 8.0)
            buffer.add_events(targets, weights,
                              np.ones(n_events, dtype=int))
            buffer.drain()
            drained = buffer.drain()
            return drained[0], drained[1], buffer.saturations

        sparse = fill(1000)   # 64 events < 1000 neurons -> unique-cell path
        dense = fill(4)       # 64 events >= 4 neurons -> row-scan path
        assert sparse[:2] == dense[:2]
        assert sparse[2] == dense[2] == 2

    def test_scatter_equals_object_loop(self, rng):
        rows = random_rows(rng, n_pre=30, n_post=25)
        csr = CSRMatrix.from_rows(rows, 30, 25)
        spiking = np.flatnonzero(rng.random(30) < 0.5)
        vector = DeferredEventBuffer(25)
        scalar = DeferredEventBuffer(25)
        scattered = csr.scatter(spiking, vector)
        for pre in spiking:
            for synapse in rows.get(int(pre), ()):
                scalar.add_synapse(synapse)
        assert scattered == scalar.events_deferred
        for _ in range(17):
            assert np.array_equal(vector.drain(), scalar.drain())


class TestHostEquivalence:
    """propagation="csr" must replay propagation="reference" exactly."""

    @staticmethod
    def build_network(plastic=False):
        network = Network(seed=7)
        stimulus = SpikeSourcePoisson(60, rate_hz=90.0, label="stim")
        excitatory = Population(120, "lif", label="exc")
        inhibitory = Population(40, "izhikevich", label="inh")
        excitatory.record(spikes=True, voltages=True)
        inhibitory.record(spikes=True)
        plasticity = STDPMechanism(60, 120) if plastic else None
        network.connect(stimulus, excitatory,
                        FixedProbabilityConnector(0.25, weight=1.2,
                                                  delay_range=(1, 8)),
                        plasticity=plasticity)
        network.connect(excitatory, inhibitory,
                        FixedProbabilityConnector(0.2, weight=0.8,
                                                  delay_range=(1, 4)))
        network.connect(inhibitory, excitatory,
                        FixedProbabilityConnector(0.3, weight=-0.9))
        network.connect(excitatory, excitatory,
                        FixedProbabilityConnector(0.05, weight=0.3,
                                                  weight_range=(0.1, 0.5)))
        return network

    def test_spike_trains_identical(self):
        reference = self.build_network().run(250.0, propagation="reference")
        fast = self.build_network().run(250.0, propagation="csr")
        assert reference.total_spikes() > 0
        assert reference.spikes == fast.spikes
        for label in reference.spike_counts:
            assert np.array_equal(reference.spike_counts[label],
                                  fast.spike_counts[label])

    def test_membrane_voltages_bit_identical(self):
        reference = self.build_network().run(150.0, propagation="reference")
        fast = self.build_network().run(150.0, propagation="csr")
        assert np.array_equal(reference.voltages["exc"],
                              fast.voltages["exc"])

    def test_stdp_learning_identical(self):
        def learned_weights(propagation):
            network = self.build_network(plastic=True)
            network.run(250.0, propagation=propagation)
            plastic = network.projections[0]
            rows = plastic.build_rows(np.random.default_rng(7))
            return ([s.weight for row in rows.values() for s in row],
                    plastic.plasticity)

        ref_weights, ref_mech = learned_weights("reference")
        csr_weights, csr_mech = learned_weights("csr")
        assert any(abs(w - 1.2) > 1e-9 for w in ref_weights)
        assert ref_weights == csr_weights
        assert ref_mech.potentiation_events == csr_mech.potentiation_events
        assert ref_mech.depression_events == csr_mech.depression_events
        assert ref_mech.rows_modified == csr_mech.rows_modified

    def test_invalid_propagation_mode_rejected(self):
        with pytest.raises(ValueError):
            Network(seed=1).run(10.0, propagation="warp")


class TestUpdateCSREquivalence:
    def test_update_csr_matches_update(self, rng):
        rows_ref = random_rows(rng, n_pre=15, n_post=15, p=0.6)
        csr = CSRMatrix.from_rows(rows_ref, 15, 15)
        reference = STDPMechanism(15, 15)
        vectorized = STDPMechanism(15, 15)
        spike_rng = np.random.default_rng(3)
        for tick in range(60):
            pre = spike_rng.random(15) < 0.2
            post = spike_rng.random(15) < 0.2
            reference.update(rows_ref, pre, post, float(tick))
            vectorized.update_csr(csr, pre, post, float(tick))
        flattened = [s.weight for i in range(15)
                     for s in rows_ref.get(i, ())]
        assert flattened == list(csr.weights)
        assert reference.potentiation_events == vectorized.potentiation_events
        assert reference.depression_events == vectorized.depression_events
        assert reference.rows_modified == vectorized.rows_modified


class TestOnMachineEquivalence:
    @staticmethod
    def run_application(propagation):
        machine = SpiNNakerMachine(MachineConfig(width=3, height=3,
                                                 cores_per_chip=6))
        BootController(machine, seed=1).boot()
        network = Network(seed=21)
        stimulus = SpikeSourcePoisson(40, rate_hz=80.0, label="stim")
        target = Population(80, "lif", label="tgt")
        target.record(spikes=True)
        network.connect(stimulus, target,
                        FixedProbabilityConnector(0.3, weight=1.5,
                                                  delay_range=(1, 6)))
        network.connect(target, target,
                        FixedProbabilityConnector(0.05, weight=0.4))
        application = NeuralApplication(machine, network,
                                        max_neurons_per_core=16, seed=21,
                                        propagation=propagation)
        return application.run(120.0)

    def test_on_machine_csr_identical_to_reference(self):
        reference = self.run_application("reference")
        fast = self.run_application("csr")
        assert reference.total_spikes() > 0
        assert reference.spikes == fast.spikes
        assert reference.packets_sent == fast.packets_sent
        for label in reference.spike_counts:
            assert np.array_equal(reference.spike_counts[label],
                                  fast.spike_counts[label])

    def test_invalid_propagation_mode_rejected(self):
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=4))
        with pytest.raises(ValueError):
            NeuralApplication(machine, Network(seed=1), propagation="warp")


class TestSeedKeyedExpansionCache:
    """Regression tests for the cross-seed cache-poisoning bug."""

    @staticmethod
    def build_projection():
        pre = Population(30, label="cache-pre-%d" % id(object()))
        post = Population(30, label="cache-post-%d" % id(object()))
        return Projection(pre, post, FixedProbabilityConnector(0.3))

    def test_different_seeds_get_different_expansions(self):
        projection = self.build_projection()
        rows_a = projection.build_rows(np.random.default_rng(1), seed=1)
        rows_b = projection.build_rows(np.random.default_rng(2), seed=2)
        assert rows_a is not rows_b
        assert ({(p, s.target) for p, r in rows_a.items() for s in r}
                != {(p, s.target) for p, r in rows_b.items() for s in r})

    def test_same_seed_reuses_expansion(self):
        projection = self.build_projection()
        rows_a = projection.build_rows(np.random.default_rng(1), seed=1)
        rows_b = projection.build_rows(np.random.default_rng(1), seed=1)
        assert rows_a is rows_b

    def test_network_rerun_with_new_seed_rebuilds_connectivity(self):
        network = Network(seed=1)
        stimulus = SpikeSourcePoisson(30, rate_hz=100.0, label="cp-stim")
        target = Population(30, "lif", label="cp-tgt")
        projection = network.connect(stimulus, target,
                                     FixedProbabilityConnector(0.3,
                                                               weight=2.0))
        network.run(50.0, seed=1)
        rows_seed_1 = projection.build_rows(np.random.default_rng(1), seed=1)
        network.run(50.0, seed=2)
        rows_seed_2 = projection.build_rows(np.random.default_rng(2), seed=2)
        assert ({(p, s.target) for p, r in rows_seed_1.items() for s in r}
                != {(p, s.target) for p, r in rows_seed_2.items() for s in r})

    def test_seeded_runs_reproduce_after_interleaved_seed(self):
        def totals(seed):
            network = Network()
            stimulus = SpikeSourcePoisson(30, rate_hz=100.0,
                                          label="rep-stim-%d" % id(object()))
            target = Population(30, "lif",
                                label="rep-tgt-%d" % id(object()))
            network.connect(stimulus, target,
                            FixedProbabilityConnector(0.3, weight=2.0))
            return network, (lambda: network.run(80.0, seed=seed)
                             .total_spikes())

        network_a, run_a = totals(5)
        first = run_a()
        network_a.run(80.0, seed=6)   # would poison the old unkeyed cache
        assert run_a() == first

    def test_unseeded_network_shares_expansion_with_mapping_layer(self):
        # An unseeded Network must not end up with one expansion under
        # cache key None (host) and another under key 0 (mapping).
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=4))
        BootController(machine, seed=1).boot()
        network = Network()   # seed=None
        stimulus = SpikeSourcePoisson(10, rate_hz=50.0, label="us-stim")
        target = Population(20, "lif", label="us-tgt")
        network.connect(stimulus, target,
                        FixedProbabilityConnector(0.5, weight=1.0))
        application = NeuralApplication(machine, network,
                                        max_neurons_per_core=8)
        application.prepare()
        mapped_synapses = sum(runtime.synaptic_data.total_synapses
                              for runtime in application.core_runtimes)
        # n_synapses expands under the same (None) cache key, so it must
        # hit the mapping layer's expansion and count the same synapses.
        assert network.n_synapses() == mapped_synapses > 0

    def test_mapping_first_and_host_first_expansions_agree(self):
        # Whatever layer expands first, the same seed must register the
        # same connectivity — even with several projections whose
        # expansion order differs between the layers.
        def build_network():
            network = Network(seed=13)
            a = Population(12, "lif", label="ord-a")
            b = Population(12, "lif", label="ord-b")
            c = SpikeSourcePoisson(12, rate_hz=50.0, label="ord-c")
            network.connect(a, b, FixedProbabilityConnector(0.4, weight=0.5))
            network.connect(c, b, FixedProbabilityConnector(0.4, weight=0.5))
            network.connect(b, a, FixedProbabilityConnector(0.4, weight=0.5))
            return network

        def synapse_sets(network):
            rng = np.random.default_rng(0)   # cache hit; rng unused
            return [{(pre, s.target) for pre, row in
                     projection.build_rows(rng, seed=13).items()
                     for s in row}
                    for projection in network.projections]

        mapped = build_network()
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=6))
        BootController(machine, seed=1).boot()
        NeuralApplication(machine, mapped, max_neurons_per_core=6,
                          seed=13).prepare()

        simulated = build_network()
        simulated.run(10.0)
        assert synapse_sets(mapped) == synapse_sets(simulated)

    def test_compile_csr_cached_per_seed(self):
        projection = self.build_projection()
        csr_a = projection.compile_csr(np.random.default_rng(1), seed=1)
        csr_b = projection.compile_csr(np.random.default_rng(1), seed=1)
        csr_c = projection.compile_csr(np.random.default_rng(2), seed=2)
        assert csr_a is csr_b
        assert csr_a is not csr_c

    def test_refresh_invalidates_compiled_csr(self):
        projection = self.build_projection()
        rng = np.random.default_rng(1)
        csr_a = projection.compile_csr(rng, seed=1)
        projection.build_rows(rng, refresh=True, seed=1)
        csr_b = projection.compile_csr(rng, seed=1)
        assert csr_a is not csr_b

    def test_unseeded_refresh_does_not_clobber_seeded_entry(self):
        projection = self.build_projection()
        rows_seeded = projection.build_rows(np.random.default_rng(1), seed=1)
        projection.build_rows(np.random.default_rng(99), refresh=True)
        assert projection.build_rows(np.random.default_rng(1),
                                     seed=1) is rows_seeded

    def test_reference_stdp_run_invalidates_compiled_csr(self):
        # A reference-mode plastic run mutates the cached rows in place;
        # a later CSR compile must see the learned weights, not a stale
        # pre-run compilation.
        network = Network(seed=9)
        stimulus = SpikeSourcePoisson(20, rate_hz=80.0, label="inv-stim")
        target = Population(20, "lif", label="inv-tgt")
        projection = network.connect(stimulus, target,
                                     FixedProbabilityConnector(0.5,
                                                               weight=3.0),
                                     plasticity=STDPMechanism(20, 20))
        stale = projection.compile_csr(np.random.default_rng(9), seed=9)
        network.run(300.0, propagation="reference")
        fresh = projection.compile_csr(np.random.default_rng(9), seed=9)
        assert fresh is not stale
        rows = projection.build_rows(np.random.default_rng(9), seed=9)
        assert [s.weight for i in sorted(rows) for s in rows[i]] == \
            list(fresh.weights)



class TestCsrIsThePrimaryExpansion:
    """The compile path and the counts never build ``Synapse`` objects."""

    @staticmethod
    def count_synapses(monkeypatch):
        created = []
        original = Synapse.__post_init__

        def counting(synapse):
            created.append(synapse)
            original(synapse)

        monkeypatch.setattr(Synapse, "__post_init__", counting)
        return created

    @staticmethod
    def build_network():
        network = Network(seed=21)
        stimulus = SpikeSourcePoisson(30, rate_hz=50.0, label="prim-stim")
        target = Population(40, "lif", label="prim-tgt")
        network.connect(stimulus, target, FixedProbabilityConnector(
            0.3, weight=1.0, delay_range=(1, 12)))
        network.connect(target, target, FixedProbabilityConnector(
            0.1, weight=0.5, delay_range=(2, 16)))
        return network

    def test_compile_and_counts_create_no_synapse(self, monkeypatch):
        from repro.compile import MappingPipeline

        created = self.count_synapses(monkeypatch)
        network = self.build_network()
        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=6))
        BootController(machine, seed=1).boot()
        pipeline = MappingPipeline(machine, network, seed=21,
                                   max_neurons_per_core=16,
                                   compile_transport=True,
                                   shard_by_board=True)
        pipeline.run()
        assert network.n_synapses() > 0
        assert all(projection.max_delay(np.random.default_rng(0)) > 0
                   for projection in network.projections)
        assert created == []
        assert all(not projection._rows_cache
                   for projection in network.projections)

    def test_expand_stage_nests_under_route(self):
        from repro.compile import MappingPipeline

        machine = SpiNNakerMachine(MachineConfig(width=2, height=2,
                                                 cores_per_chip=6))
        BootController(machine, seed=1).boot()
        pipeline = MappingPipeline(machine, self.build_network(), seed=21,
                                   max_neurons_per_core=16)
        pipeline.run()
        records = {record.path: record
                   for record in pipeline.profile.records()}
        expand = records[("pass_total", "route", "expand")]
        route = records[("pass_total", "route")]
        assert expand.calls == 1
        assert route.self_s == pytest.approx(route.cum_s - expand.cum_s)
        # A cached expansion is not re-entered on a re-run.
        pipeline.run()
        assert expand.calls == 1

    def test_rows_are_derived_lazily_and_synced(self):
        network = self.build_network()
        projection = network.projections[0]
        rng = np.random.default_rng(0)   # cache hits after the first call
        csr = projection.compile_csr(rng, seed=21)
        assert not projection._rows_cache
        rows = projection.build_rows(rng, seed=21)
        assert CSRMatrix.from_rows(rows, 30, 40).n_synapses == csr.n_synapses
        csr.weights[:] = 0.25
        projection.sync_rows(seed=21)
        assert {s.weight for row in rows.values() for s in row} == {0.25}
