"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --trace 0 --out baseline.json

For every workload and seed it runs ``perfbench/run.py`` in a fresh
process, then reports each metric's median, quartiles and the spread
(third minus first quartile over the median) that BENCHMARK.json bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import harness
import workloads


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(harness.HERE / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=harness.ROOT, timeout=180)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["diagnostics"] = json.loads(lines[-2])["diagnostics"]
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()
                             if k in ("run_s", "cpu_s", "peak_rss_mb",
                                      "setup_s", "trace.run_s")),
                  flush=True)
        metrics = {k: summarise([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        # The program's and the control's raw times, which show how far
        # the machine's speed moved during the set.
        raw = {k: summarise([r["diagnostics"][k] for r in runs])
               for k in runs[0]["diagnostics"]
               if k.startswith(("raw.", "control."))}
        summary["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "max_dev_ev": max(r["diagnostics"]["check.max_dev_ev"]
                              for r in runs),
            "metrics": metrics,
            "raw": raw,
        }
        summary["environment"] = runs[0]["diagnostics"]["environment"]
        for k, m in {**metrics, **raw}.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {k:40s} median {m['median']:.6g}  spread {spread}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
