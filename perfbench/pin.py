"""Regenerate the pinned batch digests in ``perfbench/pins.json``.

Run from the repository root only when the program's verdicts are meant
to change (a speed-only change must leave every pin as it is)::

    python3 perfbench/pin.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import PINS, WORKLOADS, batch_seed  # noqa: E402

#: Batches pinned per seed: about twice what a run reaches today, so a
#: faster commit still meets pinned digests throughout its run.
PINNED_BATCHES = {"verify-large": 40, "fuzz-small": 24,
                  "resilience-small": 8}


def main() -> int:
    pins = json.loads(PINS.read_text())
    for name, entry in pins["workloads"].items():
        workload = WORKLOADS[name]
        entry["digests"] = {}
        for seed in (entry["default_seed"], entry["heldout_seed"]):
            digests = []
            for index in range(PINNED_BATCHES[name]):
                batch = workload.run_batch(batch_seed(seed, index),
                                           workload.batch_items)
                if not batch.passed:
                    print(f"{name} seed {seed} batch {index}: FAIL",
                          file=sys.stderr)
                    return 1
                digests.append(batch.digest)
                print(f"{name} seed {seed} batch {index}: {batch.digest}")
            entry["digests"][str(seed)] = digests
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
