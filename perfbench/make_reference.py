"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at seed 0 and records what the correctness gate
compares against: per-frame centroids and AABBs of every simulated scene,
the render workload's PGM digests and the analyze loss breakdown.  Only
regenerate it on purpose: a change that moves trajectories should report
its engine.drift_m against the committed file instead.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(argv):
    if not run.bootstrap():
        print("make_reference: no physedit sources", file=sys.stderr)
        return 2
    import workloads

    path = run.BENCH_DIR / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in argv or list(workloads.WORKLOADS):
        work = run.ROOT / ".bench_work" / f"reference-{name}-{os.getpid()}"
        try:
            workload = workloads.WORKLOADS[name]()
            inputs = workload.setup(0, work / "setup")
            result = workload.run(inputs, work / "out")
            gate = run.Gate()
            workload.check(inputs, work / "out", result, gate, None)
            if gate.failed:
                print(f"{name}: checks failed: {gate.failures}",
                      file=sys.stderr)
                return 1
            refs[name] = workload.reference(inputs, work / "out", result)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: reference recorded")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
