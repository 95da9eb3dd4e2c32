"""Set-up probe: import ldpcount, build one workload's graphs, say "ready",
then print the host-speed gauge taken right after, on the same process.

Spawned by run.py, which times it from spawn to the "ready" line.

    python3 perfbench/setup_probe.py <workload>
"""

import sys

import workloads as wl

wl.build_graphs(wl.WORKLOADS[sys.argv[1]])
print("ready", flush=True)

import gauge  # noqa: E402  (after "ready": not part of the set-up timed)

print(repr(gauge.measure(0.1)), flush=True)
