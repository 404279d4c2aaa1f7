"""Canonical sha256 digests of workload results.

The digest must not depend on the order a dict was filled in or on the
order records were appended, only on what was produced:

* a ``dict`` is hashed in sorted key order;
* a ``list`` is a *multiset* of records (spike ``(time, index)`` pairs,
  latency samples): it is hashed sorted;
* a ``tuple`` is one record and a NumPy array one indexed vector (spike
  counts per neuron): both keep their order;
* numbers are hashed exactly (floats by their hex form, ints and
  NumPy scalars by value), so ``1`` and ``1.0`` differ — except inside
  a list of numeric pairs, which is hashed as a sorted ``float64``
  array (exact for the spike times and neuron indices it holds).
"""

from __future__ import annotations

import hashlib
import json
import numbers
from typing import Dict, Optional

import numpy as np


def _encode(obj) -> bytes:
    if isinstance(obj, dict):
        parts = [b"{"]
        for key in sorted(obj, key=str):
            parts += [_encode(str(key)), b":", _encode(obj[key]), b","]
        return b"".join(parts + [b"}"])
    if isinstance(obj, list):
        return _encode_multiset(obj)
    if isinstance(obj, tuple):
        return b"(" + b",".join(_encode(item) for item in obj) + b")"
    if isinstance(obj, np.ndarray):
        array = np.ascontiguousarray(obj)
        kind = "f8" if array.dtype.kind == "f" else "i8"
        header = ("a%s%s" % (kind, array.shape)).encode()
        return header + hashlib.sha256(array.astype(kind).tobytes()).digest()
    if isinstance(obj, (bool, np.bool_)):
        return b"b1" if obj else b"b0"
    if isinstance(obj, numbers.Integral):
        return b"i%d" % int(obj)
    if isinstance(obj, numbers.Real):
        return b"f" + float(obj).hex().encode()
    if isinstance(obj, str):
        return b"s" + json.dumps(obj).encode()
    raise TypeError("cannot digest %r" % (type(obj),))


def _encode_multiset(items: list) -> bytes:
    """Sorted encoding; numeric pair records take a vectorised path."""
    if items and all(type(item) is tuple and len(item) == 2
                     for item in items):
        try:
            rows = np.array(items, dtype=np.float64)
        except (TypeError, ValueError):
            rows = None
        if rows is not None and rows.shape == (len(items), 2):
            order = np.lexsort((rows[:, 1], rows[:, 0]))
            return (b"[p%d]" % len(items)
                    + hashlib.sha256(rows[order].tobytes()).digest())
    encoded = sorted(_encode(item) for item in items)
    return b"[" + b",".join(encoded) + b"]"


def digest(payload: Dict[str, object]) -> str:
    """The hex sha256 of the payload's canonical encoding."""
    return hashlib.sha256(_encode(payload)).hexdigest()


def load_golden(path: str, workload: str, seed: int) -> Optional[str]:
    """The checked-in digest for ``workload`` at ``seed``, if any."""
    with open(path) as handle:
        golden = json.load(handle)
    return golden.get(workload, {}).get(str(seed))
