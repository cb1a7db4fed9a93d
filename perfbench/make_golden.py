"""Write the golden records that every benchmark op is checked against.

Usage (from the repository root):

    python3 perfbench/make_golden.py [workload ...]

Runs every op of each named workload (default: all three) once and writes
``perfbench/golden/<workload>.json``: one digest per key, covering all 424
count-d4 nodes, all 302 hilbert-d4 nodes and the three research-small
configurations.  About six minutes on two cores.  Regenerate only when a
change of results is intended, and say why in the change description.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    (HERE / "golden").mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        w = WORKLOADS[name]()
        w.setup()
        records = {}
        for key in w.keys():
            t0 = time.perf_counter()
            out = w.run_op(key)
            dt = time.perf_counter() - t0
            if not w.op_ok(out) or w.op_checks(key, out):
                print(f"{name}: op {key} failed; no golden record written",
                      file=sys.stderr)
                return 1
            records[key] = w.digest(out)
            print(f"{name}\t{dt:.4f}\t{key}", file=sys.stderr, flush=True)
        path = HERE / "golden" / f"{name}.json"
        # one record per line keeps a changed record visible in a diff
        lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(records.items())]
        path.write_text(f'{{"workload": {json.dumps(name)}, "records": {{\n'
                        + ",\n".join(lines) + "\n}}\n")
        print(f"wrote {len(records)} records to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
