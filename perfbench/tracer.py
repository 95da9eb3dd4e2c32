"""Outside-in layer spans over the public functions of ``ldpcount``.

While installed, each listed function is replaced by a wrapper in every
``ldpcount`` module namespace that binds it, so calls made through
``from .mechanisms import substream`` are caught as well.  A wrapper
records its span's duration; a span's self time is that duration minus
the durations of the spans it directly encloses.  With ``memory=True``
each span also records its tracemalloc peak above the memory in use when
it began (the caller starts and stops tracemalloc).

Only the functions below are wrapped: wrapping per-user helpers as well
(``derive_seed``, ``laplace_quantile``, ``unbias_span``) roughly doubles
the tracing overhead.  A listed function that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass

SPANS = {
    "graphs": ("gen_ba", "gen_er", "relabel"),
    "ordering": ("get_ordering", "apply_ordering"),
    "mechanisms": (
        "substream",
        "randomize_response_row",
        "assemble_obfuscated",
        "sample_laplace",
        "unbiased",
    ),
    "triangles": (
        "run_ordered_stage",
        "user_triangle_estimate",
        "user_triangle_noise",
        "estimate_triangles",
    ),
    "cycles": (
        "server_walk_sum",
        "user_cycle_estimate",
        "user_cycle_noise",
        "estimate_odd_cycles",
    ),
    "oracles": ("count_triangles", "count_cycles"),
    "experiments": ("make_graph", "run_trials", "summarize"),
}
SPAN_KEYS = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)

# Cached properties that live on a class rather than in the module namespace.
CLASS_ATTRS = {"mechanisms.unbiased": "ObfuscatedGraph"}

COUNT_KEYS = ("triangles.fork_pairs", "cycles.fork_pairs", "mechanisms.dense_bytes")


@dataclass
class SpanStats:
    self_s: float = 0.0
    calls: int = 0
    peak_bytes: int = 0


def fork_pairs(i: int, projected_row) -> int:
    """|below| * |above| for user i's sorted projected row."""
    cut = bisect_left(projected_row, i)
    return cut * (len(projected_row) - cut)


def dense_bytes(obf) -> int:
    """Computed, not measured: the arrays the ObfuscatedGraph holds plus
    the n*n float64 ``unbiased`` matrix it derives on first use."""
    held = sum(getattr(v, "nbytes", 0) for v in vars(obf).values())
    if "unbiased" not in vars(obf):
        held += obf.n * obf.n * 8
    return held


class Tracer:
    """Span and count recorder; install with :meth:`installed`."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = {key: SpanStats() for key in SPAN_KEYS}
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.absent: list[str] = []
        self._stack: list[list] = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> list:
        mem_now = 0
        if self.memory:
            mem_now, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent[2] = max(parent[2], peak)
            tracemalloc.reset_peak()
        # [start, child seconds, highest traced bytes seen, bytes at start]
        frame = [0.0, 0.0, mem_now, mem_now]
        self._stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _exit(self, key: str, frame: list) -> None:
        dur = time.perf_counter() - frame[0]
        self._stack.pop()
        stats = self.spans[key]
        stats.self_s += dur - frame[1]
        stats.calls += 1
        if self.memory:
            frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
            stats.peak_bytes = max(stats.peak_bytes, frame[2] - frame[3])
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dur
            if self.memory:
                parent[2] = max(parent[2], frame[2])
                tracemalloc.reset_peak()

    def _wrap(self, key: str, fn):
        before, after = self._hooks(key, fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(key, frame)
            if after is not None:
                after(result)
            return result

        return span

    def _hooks(self, key: str, fn):
        """Count hooks run outside the span, so they cost it no self time."""
        if key in ("triangles.user_triangle_estimate", "cycles.user_cycle_estimate"):
            sig = inspect.signature(fn)
            name = key.split(".")[0] + ".fork_pairs"

            def count_forks(args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                self.counts[name] += fork_pairs(
                    bound["i"], tuple(bound["projected_row"])
                )

            return count_forks, None
        if key == "mechanisms.assemble_obfuscated":

            def count_dense(obf):
                self.counts["mechanisms.dense_bytes"] = max(
                    self.counts["mechanisms.dense_bytes"], dense_bytes(obf)
                )

            return None, count_dense
        return None, None

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Bind a wrapper for every listed function; restore on exit."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "ldpcount" or name.startswith("ldpcount."))
        ]
        patches = []  # (owner, attribute, original)
        self.absent = []
        try:
            for key in SPAN_KEYS:
                mod_name, attr = key.split(".")
                home = sys.modules.get(f"ldpcount.{mod_name}")
                if key in CLASS_ATTRS:
                    cls = getattr(home, CLASS_ATTRS[key], None)
                    desc = None if cls is None else cls.__dict__.get(attr)
                    wrapped = self._wrap_descriptor(key, desc)
                    if wrapped is None:
                        self.absent.append(key)
                        continue
                    patches.append((cls, attr, desc))
                    setattr(cls, attr, wrapped)
                    continue
                orig = getattr(home, attr, None)
                if not callable(orig):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, orig)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            patches.append((m, name, orig))
                            setattr(m, name, wrapper)
            yield self
        finally:
            for owner, name, orig in reversed(patches):
                setattr(owner, name, orig)

    def _wrap_descriptor(self, key: str, desc):
        if not isinstance(desc, functools.cached_property):
            return None
        wrapped = functools.cached_property(self._wrap(key, desc.func))
        wrapped.__set_name__(None, desc.attrname)
        return wrapped

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Flat ``<module>.<function>.{self_s,calls,peak_bytes}`` plus counts."""
        out = {}
        for key, s in self.spans.items():
            out[f"{key}.self_s"] = s.self_s
            out[f"{key}.calls"] = s.calls
            out[f"{key}.peak_bytes"] = s.peak_bytes
        out.update(self.counts)
        return out

    def repeatable(self) -> dict:
        """The numbers that must repeat exactly between traced runs."""
        out = {f"{key}.calls": s.calls for key, s in self.spans.items()}
        out.update(self.counts)
        return out
