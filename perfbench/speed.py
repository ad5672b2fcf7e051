"""Machine-speed probe used to express measured times at a reference speed.

The benchmark runs on shared virtual machines whose speed drifts: a
fixed CPU loop timed over ten-second windows varies by a third or more,
for stretches of seconds to minutes, on an otherwise idle 2-vCPU VM.
Raw wall times of two runs of the same code then differ by more than
any bound worth setting. So the benchmark times a fixed piece of work
(:func:`probe`, a few milliseconds of the interpreter work the program
itself does: a heap, a dict, a sort and a small numpy reduction) next to
every timed interval, and scales the interval by
``REFERENCE_PROBE_S / probe time``. A reported time is therefore the
wall time the interval would have taken on a machine where the probe
takes ``REFERENCE_PROBE_S``; a program that does less work reports less,
whatever the machine's speed at the moment.

The process is pinned to one CPU (:func:`pin_to_one_cpu`, inherited by
worker processes), so the probe and the measured work run on the same
vCPU.
"""

from __future__ import annotations

import heapq
import os
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Probe time of the reference machine: about the median probe time on
#: a 2-vCPU VM (Python 3.11, numpy 2.4) in the slower of its two speed
#: modes. Reported times are scaled to it; never change it, or figures
#: stop being comparable with earlier runs.
REFERENCE_PROBE_S = 0.0035
#: Probes taken on each side of a timed set-up.
SETUP_PROBES = 5
#: Probes around a request whose median scales it: the three before it
#: and the three after it.
REQUEST_WINDOW = 3

_KEYS = [(i * 7919) % 4099 for i in range(1500)]
_ARRAY = np.arange(4096, dtype=np.float64)


def probe() -> float:
    """Seconds one fixed piece of work takes now."""
    started = time.perf_counter()
    heap: List[tuple] = []
    for i, key in enumerate(_KEYS):
        heapq.heappush(heap, (key, i))
    seen = {}
    while heap:
        key, i = heapq.heappop(heap)
        seen[i] = seen.get(key % 97, 0) + key
    ranked = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    total = float(np.sqrt(_ARRAY * len(ranked)).sum())
    elapsed = time.perf_counter() - started
    assert total > 0.0
    return elapsed


def probe_median(count: int = SETUP_PROBES) -> float:
    return statistics.median(probe() for _ in range(count))


def pin_to_one_cpu() -> None:
    """Restrict this process (and the processes it starts) to one CPU."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    except (AttributeError, OSError):
        pass


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, expressed
    at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def scale_requests(latencies_s: Sequence[float], probe_index: Sequence[int],
                   probes: Sequence[float]) -> List[float]:
    """Scale each request latency by the probes around it.

    ``probe_index[i]`` is the index in ``probes`` of the probe taken just
    before request ``i``; the one just after it is the next. Request
    ``i`` is scaled by the median of the ``REQUEST_WINDOW`` probes on
    each side of it.
    """
    out = []
    for latency, j in zip(latencies_s, probe_index):
        lo = max(0, j + 1 - REQUEST_WINDOW)
        window = probes[lo:j + 1 + REQUEST_WINDOW]
        out.append(scaled(latency, statistics.median(window)))
    return out
