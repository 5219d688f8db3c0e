"""Recompute the pinned reference outputs in ``pinned.json``.

    python3 decodebench/pin.py [workload ...]

Run from the repository root. The pins are the output gate of the benchmark:
regenerate them only for a change that is meant to alter generated tokens or
corpus metrics, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from decodebench.workloads import PINNED_PATH, WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    pinned = json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}
    for name in names or list(WORKLOADS):
        t0 = time.perf_counter()
        pinned[name] = WORKLOADS[name].pin()
        print(f"{name}: pinned in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    lines = [f"  {json.dumps(name)}: {json.dumps(pinned[name])}" for name in sorted(pinned)]
    PINNED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
