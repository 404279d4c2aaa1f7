"""Connection-pattern generators.

"Mapping the biological neural system onto the SpiNNaker machine is
non-trivial ... connectivity data constructed" (Section 5.3).  A connector
turns a (pre-population, post-population) pair into the list of synapses of
each pre-synaptic neuron, i.e. the synaptic rows that the mapping layer
packs into SDRAM.

The connectors provided match the ones every SpiNNaker/PyNN workload uses:
one-to-one, all-to-all, fixed-probability (the sparse random connectivity
of cortical models) and distance-dependent (the local receptive-field
connectivity of Section 5.4, where delay grows with Euclidean distance as
in three-dimensional biological tissue).
"""


from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.neuron.engine import CSRMatrix
from repro.neuron.synapse import MAX_DELAY_TICKS, Synapse


def _clip_delays(delay_ticks) -> np.ndarray:
    """Clamp delays into the 4-bit field's 1..16 ticks, as whole ticks."""
    return np.clip(delay_ticks, 1, MAX_DELAY_TICKS).astype(np.int64)


def _concatenate_rows(n_pre: int, n_post: int, counts: List[int],
                      targets: List[np.ndarray], weights, delays) -> CSRMatrix:
    """Assemble per-row pieces into one CSR matrix.

    ``weights`` and ``delays`` are either per-row arrays aligned with
    ``targets`` or one value shared by every synapse.
    """
    row_ptr = np.zeros(n_pre + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])

    def flat(parts, dtype) -> np.ndarray:
        if not isinstance(parts, list):
            return np.full(int(row_ptr[-1]), parts, dtype=dtype)
        return (np.concatenate(parts).astype(dtype, copy=False) if parts
                else np.empty(0, dtype=dtype))

    return CSRMatrix(n_pre, n_post, row_ptr, flat(targets, np.int64),
                     flat(weights, float),
                     _clip_delays(flat(delays, np.int64)))


class Connector:
    """Base class: expands a projection into its synaptic rows.

    :meth:`build_csr` is the expansion itself, vectorised per source row
    and emitting the flat CSR arrays the mapping layer and the engines
    consume; :meth:`build` is the same expansion as ``Synapse`` objects,
    for the object-based reference paths.
    """

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        """Expand into CSR form, drawing from ``rng`` in source-row order."""
        raise NotImplementedError

    def build(self, n_pre: int, n_post: int,
              rng: np.random.Generator) -> Dict[int, List[Synapse]]:
        """Return a mapping from pre-synaptic index to its synapse list.

        Every source index has a (possibly empty) row; the draws from
        ``rng`` are exactly those of :meth:`build_csr`.
        """
        return self.build_csr(n_pre, n_post, rng).to_rows()


@dataclass
class OneToOneConnector(Connector):
    """Connect neuron i of the source to neuron i of the target."""

    weight: float = 1.0
    delay_ticks: int = 1

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        n = min(n_pre, n_post)
        row_ptr = np.minimum(np.arange(n_pre + 1, dtype=np.int64), n)
        return CSRMatrix(n_pre, n_post, row_ptr,
                         np.arange(n, dtype=np.int64),
                         np.full(n, self.weight, dtype=float),
                         _clip_delays(np.full(n, self.delay_ticks)))

    def build(self, n_pre: int, n_post: int,
              rng: np.random.Generator) -> Dict[int, List[Synapse]]:
        """Rows of the connected sources only (``i < min(n_pre, n_post)``)."""
        rows = super().build(n_pre, n_post, rng)
        return {pre: rows[pre] for pre in range(min(n_pre, n_post))}


@dataclass
class AllToAllConnector(Connector):
    """Connect every source neuron to every target neuron."""

    weight: float = 1.0
    delay_ticks: int = 1
    allow_self_connections: bool = True

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        connected = np.ones((n_pre, n_post), dtype=bool)
        if not self.allow_self_connections:
            diagonal = np.arange(min(n_pre, n_post))
            connected[diagonal, diagonal] = False
        _pre, targets = np.nonzero(connected)
        row_ptr = np.zeros(n_pre + 1, dtype=np.int64)
        np.cumsum(connected.sum(axis=1), out=row_ptr[1:])
        return CSRMatrix(n_pre, n_post, row_ptr, targets,
                         np.full(targets.size, self.weight, dtype=float),
                         _clip_delays(np.full(targets.size,
                                              self.delay_ticks)))


@dataclass
class FixedProbabilityConnector(Connector):
    """Connect each (pre, post) pair independently with probability ``p``.

    Weights and delays may be fixed values or ranges; ranges are sampled
    uniformly per synapse, which is how delays spread over several
    milliseconds are usually specified in SpiNNaker workloads.

    Draw order, per source row: ``n_post`` uniform connection draws, then
    one weight per synapse of the row (``weight_range``), then one delay
    per synapse (``delay_range``).  With only one of the two ranges set
    this is the same stream as drawing each synapse's value in turn; with
    both set, the row's weights are drawn before its delays rather than
    alternating weight and delay per synapse, so such projections expand
    to different (equally distributed) connectivity than expansions that
    alternated the draws.
    """

    p_connect: float = 0.1
    weight: float = 1.0
    weight_range: Optional[Tuple[float, float]] = None
    delay_ticks: int = 1
    delay_range: Optional[Tuple[int, int]] = None
    allow_self_connections: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_connect <= 1.0:
            raise ValueError("p_connect must lie in [0, 1]")

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        counts: List[int] = []
        targets: List[np.ndarray] = []
        weights = self.weight if self.weight_range is None else []
        delays = self.delay_ticks if self.delay_range is None else []
        for pre in range(n_pre):
            mask = rng.random(n_post) < self.p_connect
            if not self.allow_self_connections and pre < n_post:
                mask[pre] = False
            row = mask.nonzero()[0]
            counts.append(row.size)
            targets.append(row)
            if self.weight_range is not None:
                weights.append(rng.uniform(*self.weight_range,
                                           size=row.size))
            if self.delay_range is not None:
                delays.append(rng.integers(self.delay_range[0],
                                           self.delay_range[1] + 1,
                                           size=row.size))
        return _concatenate_rows(n_pre, n_post, counts, targets, weights,
                                 delays)


@dataclass
class DistanceDependentConnector(Connector):
    """Connect neurons laid out on 2-D grids with distance-dependent rules.

    Connection probability falls off as a Gaussian of the Euclidean
    distance between the source and target grid positions, and the delay
    grows linearly with distance — the property of three-dimensional
    biological tissue that Section 3.2 says the soft-delay mechanism must
    reproduce.

    Both populations are interpreted as ``rows x cols`` grids; the target
    grid is scaled onto the source grid when their shapes differ.  Each
    source row draws one uniform per target within ``max_distance``, in
    target order.
    """

    pre_shape: Tuple[int, int] = (1, 1)
    post_shape: Tuple[int, int] = (1, 1)
    sigma: float = 2.0
    max_distance: float = 6.0
    weight: float = 1.0
    p_peak: float = 1.0
    delay_per_unit_distance_ticks: float = 1.0
    min_delay_ticks: int = 1

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        pre_rows, pre_cols = self.pre_shape
        post_rows, post_cols = self.post_shape
        if pre_rows * pre_cols < n_pre or post_rows * post_cols < n_post:
            raise ValueError("grid shapes are too small for the populations")
        # Target positions mapped into source-grid coordinates.
        post = np.arange(n_post)
        post_r = (post // post_cols).astype(float) * (pre_rows / post_rows)
        post_c = (post % post_cols).astype(float) * (pre_cols / post_cols)
        two_sigma_sq = 2.0 * self.sigma ** 2

        counts: List[int] = []
        targets: List[np.ndarray] = []
        delays: List[np.ndarray] = []
        for pre in range(n_pre):
            distance = np.hypot(float(pre // pre_cols) - post_r,
                                float(pre % pre_cols) - post_c)
            near = (distance <= self.max_distance).nonzero()[0]
            near_distance = distance[near]
            probability = self.p_peak * np.exp(
                -(near_distance ** 2) / two_sigma_sq)
            keep = rng.random(near.size) < probability
            counts.append(int(keep.sum()))
            targets.append(near[keep])
            delays.append(self.min_delay_ticks + np.round(
                near_distance[keep]
                * self.delay_per_unit_distance_ticks).astype(np.int64))
        return _concatenate_rows(n_pre, n_post, counts, targets,
                                 self.weight, delays)


@dataclass
class FromListConnector(Connector):
    """Connect from an explicit list of ``(pre, post, weight, delay)`` tuples.

    Synapses keep their list order within each source row.
    """

    connections: List[Tuple[int, int, float, int]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.connections is None:
            self.connections = []

    def build_csr(self, n_pre: int, n_post: int,
                  rng: np.random.Generator) -> CSRMatrix:
        table = np.array(self.connections, dtype=float).reshape(-1, 4)
        pre = table[:, 0].astype(np.int64)
        post = table[:, 1].astype(np.int64)
        bad_pre = (pre < 0) | (pre >= n_pre)
        bad = np.flatnonzero(bad_pre | (post < 0) | (post >= n_post))
        if bad.size:
            # Report the first offending connection, its pre index first.
            first = bad[0]
            if bad_pre[first]:
                raise IndexError("pre index %d outside population of %d"
                                 % (pre[first], n_pre))
            raise IndexError("post index %d outside population of %d"
                             % (post[first], n_post))
        order = np.argsort(pre, kind="stable")
        row_ptr = np.zeros(n_pre + 1, dtype=np.int64)
        np.cumsum(np.bincount(pre, minlength=n_pre), out=row_ptr[1:])
        return CSRMatrix(n_pre, n_post, row_ptr, post[order],
                         table[order, 2],
                         _clip_delays(table[order, 3]))
