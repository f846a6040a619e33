"""pwbands benchmark: three CLI workloads, closed loop, one client.

    python3 perfbench/run.py --workload tour-dense --seed 0 --seconds 40 --trace 0

Runs the workload's commands through ``pwbands.cli.main`` back to back,
one pass after another, until ``--seconds`` is used up, and checks every
command's artifacts against the stored reference energies.  With
``--trace 0`` it reports end-to-end metrics: each pass and each fresh
set-up interpreter is timed against the control (control.py) run beside
it, and the medians of those ratios are scaled to the baseline machine.
With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer metrics from the spans.  The last
stdout line is the result object; the line before it holds diagnostics
and the environment.  Artifacts, results and spans go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Transparent huge pages stay off for this process and the processes it
# starts (the control and the set-up interpreters inherit the setting).
# numpy asks for them on arrays of 4 MiB and more, and whether the host
# had one free moved the peak resident set of the same code by up to
# 6 MiB between runs.  This must run before numpy allocates anything.
PR_SET_THP_DISABLE = 41
if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0):
    raise SystemExit(f"perfbench: prctl failed: {os.strerror(ctypes.get_errno())}")

import numpy  # noqa: E402

import control  # noqa: E402
import harness  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up rounds (one program and one control interpreter) run between
# passes, for this share of the pass time and at least SETUP_PER_GAP per
# gap, so that they see the same machine state as the passes; a run takes
# at least SETUP_MIN rounds.
SETUP_SHARE = 0.05
SETUP_PER_GAP = 1
SETUP_MIN = 16
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pwbands.cli import load_config
for path in sys.argv[2:]:
    load_config(path)
print(time.perf_counter() - t0)
"""


def declared_units(kind: str) -> dict:
    """Metric name -> unit for one list of BENCHMARK.json."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(argvs, budget: float, least: int) -> list:
    """Seconds for fresh interpreters to import the CLI and load configs.

    Starts a round of interpreters, one per argv in ``argvs`` and in turn
    in each order, until ``budget`` seconds have gone and at least
    ``least`` rounds have run; returns each round's times in argv order.
    """
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    rounds = []
    started = time.perf_counter()
    while len(rounds) < least or time.perf_counter() - started < budget:
        order = range(len(argvs))
        times = {}
        for index in (order if len(rounds) % 2 == 0 else reversed(order)):
            proc = subprocess.run(argvs[index], env=env, capture_output=True,
                                  text=True, timeout=60, check=True,
                                  cwd=harness.ROOT)
            times[index] = float(proc.stdout.strip().splitlines()[-1])
        rounds.append([times[i] for i in order])
    return rounds


class Workload:
    """A seeded workload with its references, ready to run passes."""

    def __init__(self, pwbands, name: str, seed: int, work: Path):
        self.pwbands = pwbands
        self.name = name
        self.work = work
        self.paths, self.commands = workloads.write_configs(
            name, harness.SRC, seed, work / "configs")
        self.warmup_paths, _ = workloads.write_configs(
            name, harness.SRC, seed, work / "warmup", warmup=True)
        self.refs = harness.load_reference(name)
        if len(self.refs) != len(self.commands):
            raise SystemExit(f"perfbench: reference for {name} lists "
                             f"{len(self.refs)} commands, expected "
                             f"{len(self.commands)}")
        self.free = {}
        if "free" in self.paths:
            cfg = pwbands.cli.load_config(self.paths["free"])
            self.free["free"] = pwbands.bands.free_electron_reference(
                cfg.path, cfg.lattice, cfg.recip, cfg.g2_max,
                cfg.num_bands).energies
        self.failures = []
        self.max_dev = 0.0

    def warm_up(self):
        """Run every command once on its warm-up config, untimed."""
        for index, (cmd, key) in enumerate(self.commands):
            out = self.work / "warmup" / "out" / f"{index:02d}-{cmd}"
            self.pwbands.cli.main([cmd, "--config", str(self.warmup_paths[key]),
                                   "--out", str(out)])

    def control_commands(self, warmup: bool = False) -> list:
        """The pass's (argv, out_dir) pairs for the control."""
        paths = self.warmup_paths if warmup else self.paths
        out = self.work / ("control-warmup" if warmup else "control")
        return [([cmd, "--config", str(paths[key])],
                 str(out / f"{index:02d}-{cmd}"))
                for index, (cmd, key) in enumerate(self.commands)]

    def run_pass(self, number: int, tracer=None, control=None) -> dict:
        """One closed-loop pass; returns summed wall and CPU time.

        With ``control``, a function of the command's index, each command
        also runs through the control right next to the program, in turn
        after and before it, so that the order evens out over a pass or,
        for one-command passes, over two.
        """
        cli = self.pwbands.cli
        main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        wall = cpu = 0.0
        ctl = {"wall": 0.0, "cpu": 0.0}
        failed = 0
        for index, ((cmd, key), ref) in enumerate(zip(self.commands,
                                                      self.refs)):
            out = harness.fresh_dir(self.work / "out" / f"{index:02d}-{cmd}")
            if tracer:
                tracer.command = f"{number}:{index}:{cmd}:{key}"
            argv = [cmd, "--config", str(self.paths[key]), "--out", str(out)]
            if control and (number + index) % 2:
                side = control(index)
                res = harness.run_command(main, argv)
            else:
                res = harness.run_command(main, argv)
                side = control(index) if control else None
            if side:
                ctl["wall"] += side["wall"]
                ctl["cpu"] += side["cpu"]
            wall += res["wall"]
            cpu += res["cpu"]
            ok, dev, problems = harness.judge(cmd, res["code"], out, ref,
                                              self.free.get(key))
            if dev is not None:
                self.max_dev = max(self.max_dev, dev)
            if not ok:
                failed += 1
                self.failures.append({"pass": number, "command": index,
                                      "problems": problems,
                                      "stderr": res["stderr"][-2000:]})
        return {"wall": wall, "cpu": cpu, "failed": failed,
                "traced": tracer is not None, "control": ctl}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(harness.SRC.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(harness.SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = harness.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info():
    """OpenBLAS version string and the thread count it runs with."""
    info = {"version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def median_stats(stat_dicts) -> dict:
    """Median of each figure over passes; counts stay whole numbers."""
    medians = {}
    for key in stat_dicts[0]:
        values = [d[key] for d in stat_dicts]
        whole = all(isinstance(v, int) for v in values)
        medians[key] = (statistics.median_low if whole
                        else statistics.median)(values)
    return medians


def measure(load, ctl, seconds: float, setup_argvs) -> dict:
    """Untraced passes, each command run next to the control ``ctl``.

    Set-up rounds of the program and the control run after each pass.
    The figures are the medians of program over control, scaled by the
    control's figures on the baseline machine.
    """
    reference = harness.control_reference(load.name)
    commands = load.control_commands()
    ctl.run_pass(load.control_commands(warmup=True))
    passes, setup = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        passes.append(load.run_pass(
            len(passes), control=lambda i: ctl.run_pass([commands[i]])))
        took = time.perf_counter() - started
        setup += measure_setup(setup_argvs, SETUP_SHARE * took,
                               SETUP_PER_GAP)
        took = time.perf_counter() - started
        if time.perf_counter() + took > deadline:
            break
    if len(setup) < SETUP_MIN:
        setup += measure_setup(setup_argvs, 0.0, SETUP_MIN - len(setup))

    def scaled(figure, values):
        return statistics.median(values) * reference[figure]

    return {
        "passes": passes,
        "metrics": {
            "run_s": scaled("run_s", [p["wall"] / p["control"]["wall"]
                                      for p in passes]),
            "cpu_s": scaled("cpu_s", [p["cpu"] / p["control"]["cpu"]
                                      for p in passes]),
            "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": scaled("setup_s", [prog / ctl_s
                                          for prog, ctl_s in setup]),
        },
        "diagnostics": {
            "raw.run_s": statistics.median(p["wall"] for p in passes),
            "raw.cpu_s": statistics.median(p["cpu"] for p in passes),
            "raw.setup_s": statistics.median(s[0] for s in setup),
            "control.run_s": statistics.median(p["control"]["wall"]
                                               for p in passes),
            "control.cpu_s": statistics.median(p["control"]["cpu"]
                                               for p in passes),
            "control.setup_s": statistics.median(s[1] for s in setup),
            "control_pass_wall_s": [p["control"]["wall"] for p in passes],
            "control_pass_cpu_s": [p["control"]["cpu"] for p in passes],
            "setup_rounds_s": setup,
        },
    }


def trace(pwbands, load, seconds: float, work: Path) -> dict:
    """Untraced and traced passes in turn; per-layer figures from spans."""
    passes, tracers = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        if len(passes) % 2:
            tracer = spans.Tracer()
            tracers.append(tracer)
            with tracer.install(pwbands.cli, pwbands.bands,
                                pwbands.hamiltonian):
                passes.append(load.run_pass(len(passes), tracer))
        else:
            passes.append(load.run_pass(len(passes)))
        took = time.perf_counter() - started
        if len(passes) >= 2 and time.perf_counter() + took > deadline:
            break
    layers = median_stats([spans.layer_stats(t.spans) for t in tracers])
    traced = statistics.median(p["wall"] for p in passes if p["traced"])
    layers["trace.run_s"] = traced
    layers["trace.overhead_s"] = traced - statistics.median(
        p["wall"] for p in passes if not p["traced"])
    layers["share.eigen.eigh"] = layers["eigen.eigh.s"] / traced
    layers["share.assembly"] = (layers["lattice.enumerate_g.s"] + layers[
        "hamiltonian.potential_matrix.s"]) / traced
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        tracers[0].dump(fh)
    return {"passes": passes, "metrics": layers,
            "diagnostics": {"layers": layers}}


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that the control and set-up interpreters are
    # stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pwbands = harness.import_program()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = harness.fresh_dir(harness.WORK / tag)
    load = Workload(pwbands, args.workload, args.seed, work)

    configs = [str(p) for p in load.paths.values()]
    setup_argvs = [[sys.executable, "-c", SETUP_CODE, str(src), *configs]
                   for src in (harness.SRC, control.FROZEN)]
    # The control starts before the pinning below, so that its BLAS
    # threads may use every CPU, as the program's do.
    ctl = None if args.trace else control.Control()
    try:
        harness.pin_main_thread()
        if ctl:
            # The first round warms the file cache and compiles bytecode
            # into the checkout, as an installed package would have it.
            measure_setup(setup_argvs, 0.0, 1)
        problems = selftest.run(pwbands.cli, args.seed, work / "selftest")
        with contextlib.redirect_stdout(io.StringIO()):
            load.warm_up()
        if ctl:
            result = measure(load, ctl, args.seconds, setup_argvs)
            units = declared_units("end_to_end")
        else:
            result = trace(pwbands, load, args.seconds, work)
            units = declared_units("per_layer")
    finally:
        if ctl:
            ctl.close()
    metrics = {k: result["metrics"][k] for k in units}
    passes = result["passes"]

    attempted = len(passes) * len(load.commands)
    failed = sum(p["failed"] for p in passes)
    diagnostics = {
        "workload": args.workload, "seed": args.seed,
        "cubic_op": args.seed % 48, "seconds": args.seconds,
        "trace": args.trace,
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_cpu_s": [p["cpu"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        **result["diagnostics"],
        "failed_ratio": failed / attempted,
        "check.max_dev_ev": load.max_dev,
        "checker_selftest": problems or "pass",
        "failures": load.failures[:20],
        "environment": environment(),
    }
    (work / "result.json").write_text(json.dumps(diagnostics, indent=1),
                                      encoding="utf-8")
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
