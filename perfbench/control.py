"""The control: a frozen copy of pwbands, run in turn with the program.

The host's CPU speed shifts by up to 1.5x for minutes at a time, and by
less from second to second.  No length of run averages that out.  So
every timed command of the program runs right next to the same command
through ``frozen/pwbands``, a verbatim copy of ``src/pwbands`` at commit
45e0045, and ``run.py`` reports the program's time over the control's,
scaled by what the control takes on the baseline machine
(``reference/control.json``).  The control does the same mix of Python and
LAPACK work as the program at that commit, so both see the same machine.

The control runs in an interpreter of its own, one request at a time
while the benchmark process waits, so nothing the program does to its
process (threads, BLAS settings, memory) changes the control's time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FROZEN = HERE / "frozen"


def serve() -> None:
    """Run the commands of each stdin line through the frozen CLI."""
    import harness

    sys.path.insert(0, str(FROZEN))
    import pwbands.cli

    harness.pin_main_thread()
    for line in sys.stdin:
        wall = cpu = 0.0
        for argv, out in json.loads(line):
            harness.fresh_dir(Path(out))
            res = harness.run_command(pwbands.cli.main, argv + ["--out", out])
            if res["code"] != 0:
                raise SystemExit(f"perfbench control: {argv} exited "
                                 f"{res['code']}\n{res['stderr'][-2000:]}")
            wall += res["wall"]
            cpu += res["cpu"]
        print(json.dumps({"wall": wall, "cpu": cpu}), flush=True)


class Control:
    """The frozen CLI in its own interpreter, a pass at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=HERE.parent)

    def run_pass(self, commands: list) -> dict:
        """Run (argv, out_dir) pairs; return their summed wall and CPU time."""
        self.proc.stdin.write(json.dumps(commands) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the control exited early")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
