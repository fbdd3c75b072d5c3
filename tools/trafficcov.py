"""Statement lines of src/physedit that the program's own traffic never runs.

    python tools/trafficcov.py [WORK_DIR]

Runs, in this process under ``tools/linecov.py``'s line tracer:

  - ``physedit simulate --bundled NAME`` for each bundled scene, at full
    length and with images, then ``physedit verify`` on each output;
  - ``physedit compare`` of the last of them with itself;
  - ``physedit fill`` on a cube shell;
  - ``physedit analyze --fixture``;
  - one run of each benchmark workload in ``perfbench.workloads``
    (``setup``, then ``run``) on its generated inputs, seed 1, followed
    by the workload's correctness checks.

It then prints, per module, the statement lines that none of this ran,
and the total.  A line listed is reached only by tests, or by nothing.
Outputs go to WORK_DIR (a temporary directory by default).  The exit
code is 1 if a command or check of the traffic failed, else 0; the
number of unrun lines never fails it.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from linecov import ROOT, report, trace


def traffic(work: Path) -> list:
    """Run the traffic into ``work``; returns what failed, one text each."""
    sys.path.insert(0, str(ROOT))  # perfbench
    from physedit import cli, fieldio, scenes
    from physedit.materials import MaterialClass
    from perfbench import workloads

    failed = []

    def physedit(*argv):
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        if code != 0:
            failed.append(f"physedit {' '.join(argv)}: exit code {code}\n"
                          f"{out.getvalue()}")

    runs = work / "scenes"
    for name in scenes.BUNDLED_SCENES:
        physedit("simulate", "--bundled", name, runs / name)
        physedit("verify", runs / name)
    physedit("compare", runs / name, runs / name)

    shell = scenes.uniform_field(scenes.cube_shell_positions(0.2, 9),
                                 MaterialClass.ELASTIC, 1e5, 0.3, 1000.0)
    fieldio.write_field(shell, work / "shell.mfield")
    physedit("fill", work / "shell.mfield", work / "filled.mfield",
             "--spacing", 0.04)
    physedit("analyze", "--fixture", work / "fixture")

    for name, workload in workloads.WORKLOADS.items():
        bench, out = workload(), work / "bench" / name / "out"
        inputs = bench.setup(1, work / "bench" / name / "inputs")
        with contextlib.redirect_stdout(io.StringIO()):
            result = bench.run(inputs, out)
        bench.check(inputs, out, result, Gate(name, failed), None)
    return failed


class Gate:
    """Takes a benchmark workload's correctness checks; a failed one is
    added to ``failed``."""

    def __init__(self, name, failed):
        self.name, self.failed = name, failed

    def check(self, what, ok):
        if not ok:
            self.failed.append(f"benchmark workload {self.name}: {what}")

    def drift(self, metres):
        pass


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args[0]) if args else Path(tmp)
        failed, run = trace(traffic, work)
    for failure in failed:
        print(failure, file=sys.stderr)
    print(f"{report(run)} by the traffic ({len(failed)} failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
