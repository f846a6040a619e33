"""Shared plumbing: import the program from source, run and judge commands.

Commands go through ``pwbands.cli.main(argv)`` in this process, one at a
time.  Each is timed on its own, so the output checks that follow it are
not part of the measured time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"


def import_program():
    """Import pwbands from this checkout's src/; exit if it is not there."""
    if not (SRC / "pwbands" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no pwbands sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pwbands.bands
    import pwbands.cli
    import pwbands.hamiltonian
    if Path(pwbands.cli.__file__).resolve().parent != SRC / "pwbands":
        raise SystemExit(f"perfbench: imported pwbands from "
                         f"{pwbands.cli.__file__}, not from {SRC}")
    return pwbands


def load_reference(workload: str) -> list:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: missing reference {path}")
    return json.loads(path.read_text(encoding="utf-8"))["commands"]


def pin_main_thread() -> None:
    """Keep the calling thread on the lowest-numbered CPU it may use.

    The vCPUs of a shared host do not run at the same speed: a Python loop
    ran up to 30% slower on one than on the other, and which one changed
    within half a minute.  The benchmark and the control each pin their
    main thread to the same CPU, so that a command and its control run see
    the same one.  Threads started earlier, such as the BLAS workers that
    start when numpy loads, keep every CPU; processes started later
    inherit the pinning.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def control_reference(workload: str) -> dict:
    """The control's run_s, cpu_s and setup_s on the baseline machine."""
    path = REFERENCE / "control.json"
    return json.loads(path.read_text(encoding="utf-8"))["workloads"][workload]


def run_command(main, argv) -> dict:
    """Run one CLI command; return exit code, captured output and timings."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed command, not a failed bench
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "wall": wall, "cpu": cpu}


def judge(cmd: str, code, out_dir: Path, ref: dict, free=None) -> tuple:
    """(ok, max_dev_ev or None, problems) for one finished command."""
    if code != 0:
        return False, None, [f"exit code {code}"]
    try:
        outputs = oracle.read_outputs(cmd, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return False, None, [f"unreadable artifacts: {exc!r}"]
    ok, dev, problems = oracle.compare(cmd, outputs, ref, free)
    return ok, (dev if math.isfinite(dev) else None), problems


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
