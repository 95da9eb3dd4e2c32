"""Recompute the digests the correctness gate pins, into pins.json.

    python3 perfbench/pin.py

Run it only when a change is meant to alter the reports, and say so in
CHANGES.md: the pins are what lets the gate notice one that was not.
"""

import json

import workloads as wl


def main() -> None:
    pins = {}
    for w in wl.WORKLOADS.values():
        graphs = wl.build_graphs(w)
        pins[w.name] = [wl.digest(wl.run_case(w, graphs, c)) for c in range(w.cases)]
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
