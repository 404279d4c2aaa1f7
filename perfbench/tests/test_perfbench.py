"""Tests of the benchmark's own code: digests, span recorder, wrappers.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import inspect
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
import spans
from digest import digest, load_golden
from spans import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Digest canonicalisation
# ----------------------------------------------------------------------
def _payload(order):
    spikes = [(float(t), i) for t in range(20) for i in range(0, 30, 7)]
    counts = np.arange(12)
    labels = ["exc", "inh", "stim"]
    if order:
        random.Random(order).shuffle(spikes)
        labels.reverse()
    return {
        "spikes": {label: list(spikes) for label in labels},
        "spike_counts": {label: counts.copy() for label in labels},
        "synaptic_events": 12345,
        "delivered_charge_na": 0.0625 * 3,
        "boards": {1: [(0, 1, "a"), (2, 3, "b")], 0: [(4, 5, "c")]},
    }


def test_digest_ignores_dict_and_list_order():
    reference = digest(_payload(0))
    for order in (1, 2, 3):
        assert digest(_payload(order)) == reference
    mixed = _payload(0)
    mixed["boards"][1].reverse()
    assert digest(mixed) == reference


def test_digest_sees_every_value_and_vector_position():
    reference = digest(_payload(0))
    changed = _payload(0)
    changed["spikes"]["exc"][3] = (3.0, 8)
    assert digest(changed) != reference
    changed = _payload(0)
    changed["spike_counts"]["inh"] = changed["spike_counts"]["inh"][::-1]
    assert digest(changed) != reference
    changed = _payload(0)
    changed["delivered_charge_na"] += 2.0 ** -40
    assert digest(changed) != reference
    changed = _payload(0)
    changed["synaptic_events"] = 12345.0
    assert digest(changed) != reference


# ----------------------------------------------------------------------
# Span recorder
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Worker:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0
        self.inner(2.0)
        self.clock.now += 3.0
        self.inner(4.0)
        return "done"

    def inner(self, seconds):
        self.clock.now += seconds
        self.leaf()

    def leaf(self):
        self.clock.now += 0.5


def test_nested_spans_give_exact_self_times(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    tracer = Tracer()
    targets = [(_Worker, "outer", "app.outer", True),
               (_Worker, "inner", "app.inner", True),
               (_Worker, "leaf", "app.leaf", False)]
    with tracer.installed(targets):
        with tracer.phase("work"):
            clock.now += 0.25
            assert _Worker(clock).outer() == "done"
    # outer: 1 + (2 + 0.5) + 3 + (4 + 0.5) = 11, of which 7 in inner.
    assert tracer.total("app.outer") == 11.0
    assert tracer.self_s("app.outer") == 4.0
    assert tracer.total("app.inner") == 7.0
    assert tracer.self_s("app.inner") == 6.0
    assert tracer.calls("app.inner") == 2
    assert tracer.self_s("app.leaf") == 1.0
    assert tracer.calls("app.leaf") == 2
    assert tracer.phases == [("work", 0.0, 11.25)]
    assert tracer.layer_self_s(["work"]) == {"app": 11.0}
    # Kept spans point at their parents; ``leaf`` keeps no span.
    by_name = {}
    for span_id, parent, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent))
    (work_id, _), = by_name["work"]
    (outer_id, outer_parent), = by_name["app.outer"]
    assert outer_parent == work_id
    assert [parent for _, parent in by_name["app.inner"]] == [outer_id] * 2
    assert "app.leaf" not in by_name


def test_chrome_trace_is_written(tmp_path):
    tracer = Tracer()
    with tracer.phase("work"):
        pass
    path = tmp_path / "trace.json"
    tracer.chrome_trace(str(path), {"workload": "unit"})
    data = json.loads(path.read_text())
    assert [event["name"] for event in data["traceEvents"]] == ["work"]
    assert data["otherData"]["workload"] == "unit"


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _attributes():
    return [(owner, attr, attr in vars(owner),
             inspect.getattr_static(owner, attr))
            for owner, attr, _name, _keep in layers.targets()]


def test_wrappers_are_removed_after_a_traced_run():
    before = _attributes()
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.installed(layers.targets()):
            changed = [inspect.getattr_static(owner, attr) is not raw
                       for owner, attr, _own, raw in before]
            assert all(changed)
            raise KeyError("leave the block early")
    after = _attributes()
    for (owner, attr, own, raw), (_, _, own_after, raw_after) in zip(
            before, after):
        assert own_after == own, (owner, attr)
        assert raw_after is raw, (owner, attr)


def test_traced_and_untraced_runs_agree():
    before = _attributes()
    plain = run.run_once("packet_faults", 3, traced=False)
    traced = run.run_once("packet_faults", 3, traced=True)
    assert plain["digest"] == load_golden(run.GOLDEN, "packet_faults", 3)
    assert traced["digest"] == plain["digest"]
    assert set(traced["layers"]) <= set(layers.PER_LAYER)
    assert traced["layers"]["router.emergency_invocations"] > 0
    assert traced["layers"]["trace.attributed_frac"] >= 0.9
    assert _attributes() == before  # nothing left wrapped


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
