"""Host-speed gauge: a fixed computation that does not touch ldpcount.

On a shared host the same work can run half again as slow for a few
seconds and then speed up, with no steal time to show for it.  Timing a
fixed piece of work right before and right after each timed step tells
how fast the host ran around it, and ``normalised`` divides that out.

A chunk is a third each of an interpreter-bound integer loop, building
Philox generators and drawing from them, and a loop over numpy scalar
reads of a small matrix: the three kinds of work the pipeline's per-user
code and path sums are made of.  ``CHUNK_S`` is a chunk's typical wall
time on the 2-vCPU KVM guest (Intel Xeon, family 6 model 207) the
benchmark was made on, so that normalised seconds read close to that
machine's seconds.
"""

from __future__ import annotations

import time

import numpy as np

CHUNK_LOOP = 40_000
CHUNK_GENERATORS = 170
CHUNK_READS = 7_000
CHUNK_S = 0.009
MATRIX = np.random.default_rng(0).random((20, 20))
# Gauge for at least this share of the step just timed, so that a long
# step is set against a comparably long sample of the host's speed.
DUTY = 0.15
MIN_S = 0.05


def chunk() -> float:
    """Wall seconds of one chunk of the fixed computation."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CHUNK_LOOP):
        acc += i * i
    for key in range(CHUNK_GENERATORS):
        np.random.Generator(np.random.Philox(key=key)).random()
    prod = 1.0
    for i in range(CHUNK_READS):
        prod = prod * MATRIX[i % 20, (7 * i) % 20] + 0.5
    return time.perf_counter() - t0


def measure(seconds: float = MIN_S) -> float:
    """Mean wall seconds per chunk over whole chunks lasting ``seconds``."""
    spent, chunks = 0.0, 0
    while spent < seconds:
        spent += chunk()
        chunks += 1
    return spent / chunks


def after(step_s: float) -> float:
    """The gauge to take after a step that lasted ``step_s``."""
    return measure(max(MIN_S, DUTY * step_s))


def normalised(seconds: float, *gauges: float) -> float:
    """``seconds`` scaled by ``CHUNK_S`` over the mean of the gauges taken
    around it.

    The gauge never changes with the library, so between two commits the
    ratio of normalised seconds is the ratio of wall seconds, while a host
    that runs everything slower for a while slows both alike.
    """
    return seconds * CHUNK_S * len(gauges) / sum(gauges)
