"""Connector expansion against a frozen per-synapse oracle.

Every connector expands through its vectorised ``build_csr``.  The
functions below are the per-synapse loops the connectors used before,
kept here verbatim as the oracle: for the same generator state,
``build_csr`` must produce bit-identical CSR arrays (``row_ptr``,
targets, weights, delays) — the same RNG draws in the same order.

The one documented exception is a FixedProbability connector with both
``weight_range`` and ``delay_range``: the oracle alternates a weight and
a delay draw per synapse, ``build_csr`` draws a row's weights before its
delays.  That case is checked for determinism and bounds instead.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.neuron.connectors import (
    AllToAllConnector,
    DistanceDependentConnector,
    FixedProbabilityConnector,
    FromListConnector,
    OneToOneConnector,
)
from repro.neuron.engine import CSRMatrix
from repro.neuron.synapse import MAX_DELAY_TICKS, Synapse

Rows = Dict[int, List[Synapse]]


def _clip_delay(delay_ticks: int) -> int:
    return int(min(max(1, delay_ticks), MAX_DELAY_TICKS))


# ----------------------------------------------------------------------
# The frozen oracle: the former per-synapse expansion loops.
# ----------------------------------------------------------------------
def oracle_one_to_one(c: OneToOneConnector, n_pre: int, n_post: int,
                      rng: np.random.Generator) -> Rows:
    n = min(n_pre, n_post)
    return {i: [Synapse(i, c.weight, _clip_delay(c.delay_ticks))]
            for i in range(n)}


def oracle_all_to_all(c: AllToAllConnector, n_pre: int, n_post: int,
                      rng: np.random.Generator) -> Rows:
    rows: Rows = {}
    delay = _clip_delay(c.delay_ticks)
    for pre in range(n_pre):
        rows[pre] = [Synapse(post, c.weight, delay)
                     for post in range(n_post)
                     if c.allow_self_connections or post != pre]
    return rows


def oracle_fixed_probability(c: FixedProbabilityConnector, n_pre: int,
                             n_post: int, rng: np.random.Generator) -> Rows:
    rows: Rows = {}
    for pre in range(n_pre):
        mask = rng.random(n_post) < c.p_connect
        if not c.allow_self_connections and pre < n_post:
            mask[pre] = False
        targets = np.flatnonzero(mask)
        row = []
        for post in targets:
            weight = (c.weight if c.weight_range is None
                      else float(rng.uniform(*c.weight_range)))
            delay = (c.delay_ticks if c.delay_range is None
                     else int(rng.integers(c.delay_range[0],
                                           c.delay_range[1] + 1)))
            row.append(Synapse(int(post), weight, _clip_delay(delay)))
        rows[pre] = row
    return rows


def oracle_distance_dependent(c: DistanceDependentConnector, n_pre: int,
                              n_post: int, rng: np.random.Generator) -> Rows:
    pre_rows, pre_cols = c.pre_shape
    post_rows, post_cols = c.post_shape
    if pre_rows * pre_cols < n_pre or post_rows * post_cols < n_post:
        raise ValueError("grid shapes are too small for the populations")
    row_scale = pre_rows / post_rows
    col_scale = pre_cols / post_cols
    rows: Rows = {}
    for pre in range(n_pre):
        pre_r, pre_c = float(pre // pre_cols), float(pre % pre_cols)
        synapses: List[Synapse] = []
        for post in range(n_post):
            post_r, post_c = float(post // post_cols), float(post % post_cols)
            distance = math.hypot(pre_r - post_r * row_scale,
                                  pre_c - post_c * col_scale)
            if distance > c.max_distance:
                continue
            probability = c.p_peak * math.exp(
                -(distance ** 2) / (2.0 * c.sigma ** 2))
            if rng.random() >= probability:
                continue
            delay = c.min_delay_ticks + int(
                round(distance * c.delay_per_unit_distance_ticks))
            synapses.append(Synapse(post, c.weight, _clip_delay(delay)))
        rows[pre] = synapses
    return rows


def oracle_from_list(c: FromListConnector, n_pre: int, n_post: int,
                     rng: np.random.Generator) -> Rows:
    rows: Rows = {}
    for pre, post, weight, delay in c.connections:
        if not 0 <= pre < n_pre:
            raise IndexError("pre index %d outside population of %d"
                             % (pre, n_pre))
        if not 0 <= post < n_post:
            raise IndexError("post index %d outside population of %d"
                             % (post, n_post))
        rows.setdefault(pre, []).append(
            Synapse(post, weight, _clip_delay(delay)))
    return rows


ORACLES = {
    OneToOneConnector: oracle_one_to_one,
    AllToAllConnector: oracle_all_to_all,
    FixedProbabilityConnector: oracle_fixed_probability,
    DistanceDependentConnector: oracle_distance_dependent,
    FromListConnector: oracle_from_list,
}


def assert_matches_oracle(connector, n_pre: int, n_post: int,
                          seed: int) -> None:
    oracle = ORACLES[type(connector)]
    expected = CSRMatrix.from_rows(
        oracle(connector, n_pre, n_post, np.random.default_rng(seed)),
        n_pre, n_post)
    actual = connector.build_csr(n_pre, n_post, np.random.default_rng(seed))
    for name in ("row_ptr", "targets", "weights", "delay_ticks"):
        want, got = getattr(expected, name), getattr(actual, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
sizes = st.integers(min_value=1, max_value=24)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
weights = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)
delays = st.integers(min_value=-3, max_value=20)


@st.composite
def ordered_pair(draw, values):
    low, high = draw(values), draw(values)
    return (min(low, high), max(low, high))


@st.composite
def grid(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=rows * cols))
    return (rows, cols), n


ORACLE_SETTINGS = settings(max_examples=60, deadline=None)


class TestBuildCsrMatchesOracle:
    @ORACLE_SETTINGS
    @given(sizes, sizes, seeds, weights, delays)
    def test_one_to_one(self, n_pre, n_post, seed, weight, delay):
        connector = OneToOneConnector(weight=weight, delay_ticks=delay)
        assert_matches_oracle(connector, n_pre, n_post, seed)
        # build() keeps the connected sources' rows only.
        rows = connector.build(n_pre, n_post, np.random.default_rng(seed))
        assert rows == oracle_one_to_one(connector, n_pre, n_post, None)

    @ORACLE_SETTINGS
    @given(sizes, sizes, seeds, weights, delays, st.booleans())
    def test_all_to_all(self, n_pre, n_post, seed, weight, delay,
                        allow_self):
        assert_matches_oracle(
            AllToAllConnector(weight=weight, delay_ticks=delay,
                              allow_self_connections=allow_self),
            n_pre, n_post, seed)

    @ORACLE_SETTINGS
    @given(sizes, sizes, seeds, st.floats(min_value=0.0, max_value=1.0),
           weights, delays, st.booleans())
    def test_fixed_probability_fixed_values(self, n_pre, n_post, seed, p,
                                            weight, delay, allow_self):
        assert_matches_oracle(
            FixedProbabilityConnector(p, weight=weight, delay_ticks=delay,
                                      allow_self_connections=allow_self),
            n_pre, n_post, seed)

    @ORACLE_SETTINGS
    @given(sizes, sizes, seeds, st.floats(min_value=0.0, max_value=1.0),
           ordered_pair(weights), delays, st.booleans())
    def test_fixed_probability_weight_range(self, n_pre, n_post, seed, p,
                                            weight_range, delay,
                                            allow_self):
        assert_matches_oracle(
            FixedProbabilityConnector(p, weight_range=weight_range,
                                      delay_ticks=delay,
                                      allow_self_connections=allow_self),
            n_pre, n_post, seed)

    @ORACLE_SETTINGS
    @given(sizes, sizes, seeds, st.floats(min_value=0.0, max_value=1.0),
           weights, ordered_pair(delays), st.booleans())
    def test_fixed_probability_delay_range(self, n_pre, n_post, seed, p,
                                           weight, delay_range, allow_self):
        assert_matches_oracle(
            FixedProbabilityConnector(p, weight=weight,
                                      delay_range=delay_range,
                                      allow_self_connections=allow_self),
            n_pre, n_post, seed)

    @ORACLE_SETTINGS
    @given(grid(), grid(), seeds,
           st.floats(min_value=0.3, max_value=5.0),
           # Whole distances land exactly on grid distances too.
           st.one_of(st.floats(min_value=0.0, max_value=8.0),
                     st.integers(min_value=0, max_value=8).map(float)),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.integers(min_value=0, max_value=4), weights)
    def test_distance_dependent(self, pre, post, seed, sigma, max_distance,
                                p_peak, per_unit, min_delay, weight):
        (pre_shape, n_pre), (post_shape, n_post) = pre, post
        assert_matches_oracle(
            DistanceDependentConnector(
                pre_shape=pre_shape, post_shape=post_shape, sigma=sigma,
                max_distance=max_distance, weight=weight, p_peak=p_peak,
                delay_per_unit_distance_ticks=per_unit,
                min_delay_ticks=min_delay),
            n_pre, n_post, seed)

    def test_distance_dependent_shape_error_matches_oracle(self):
        connector = DistanceDependentConnector(pre_shape=(2, 2),
                                               post_shape=(2, 2))
        for n_pre, n_post in ((5, 4), (4, 5)):
            with pytest.raises(ValueError):
                oracle_distance_dependent(connector, n_pre, n_post, None)
            with pytest.raises(ValueError):
                connector.build_csr(n_pre, n_post, np.random.default_rng(0))

    @ORACLE_SETTINGS
    @given(sizes, sizes, st.lists(st.tuples(
        st.integers(min_value=-2, max_value=26),
        st.integers(min_value=-2, max_value=26), weights, delays),
        max_size=80))
    def test_from_list(self, n_pre, n_post, connections):
        connector = FromListConnector(connections)
        try:
            oracle_from_list(connector, n_pre, n_post, None)
        except IndexError as error:
            with pytest.raises(IndexError) as raised:
                connector.build_csr(n_pre, n_post, None)
            assert str(raised.value) == str(error)
            return
        assert_matches_oracle(connector, n_pre, n_post, 0)

    def test_from_list_keeps_list_order_within_long_rows(self):
        draws = np.random.default_rng(14)
        connections = [(int(pre), int(post), float(weight), int(delay))
                       for pre, post, weight, delay in zip(
                           draws.integers(0, 3, 600),
                           draws.integers(0, 50, 600),
                           draws.uniform(-5.0, 5.0, 600),
                           draws.integers(1, 17, 600))]
        assert_matches_oracle(FromListConnector(connections), 3, 50, 0)


class TestWeightAndDelayRanges:
    """Both ranges set: the one case whose draw order changed."""

    @ORACLE_SETTINGS
    @given(sizes, sizes, seeds, st.floats(min_value=0.0, max_value=1.0),
           ordered_pair(weights), ordered_pair(delays), st.booleans())
    def test_deterministic_and_in_bounds(self, n_pre, n_post, seed, p,
                                         weight_range, delay_range,
                                         allow_self):
        connector = FixedProbabilityConnector(
            p, weight_range=weight_range, delay_range=delay_range,
            allow_self_connections=allow_self)
        first = connector.build_csr(n_pre, n_post,
                                    np.random.default_rng(seed))
        again = connector.build_csr(n_pre, n_post,
                                    np.random.default_rng(seed))
        for name in ("row_ptr", "targets", "weights", "delay_ticks"):
            assert np.array_equal(getattr(first, name), getattr(again, name))
        low, high = weight_range
        assert np.all((first.weights >= low) & (first.weights <= high))
        assert np.all(first.delay_ticks >= _clip_delay(delay_range[0]))
        assert np.all(first.delay_ticks <= _clip_delay(delay_range[1]))
        if not allow_self:
            assert not np.any(first.targets == first.pre_index)

    def test_first_row_matches_oracle_connections(self):
        # The first row's connection draws precede every per-synapse
        # draw in both orders, so its targets agree with the oracle.
        connector = FixedProbabilityConnector(
            0.5, weight_range=(-1.0, 1.0), delay_range=(1, 16))
        rows = oracle_fixed_probability(connector, 6, 40,
                                        np.random.default_rng(5))
        csr = connector.build_csr(6, 40, np.random.default_rng(5))
        assert list(csr.targets[:csr.row_ptr[1]]) == [s.target
                                                      for s in rows[0]]
