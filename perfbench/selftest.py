"""Self-test of the output checker; runs at the start of every benchmark run.

It must see three things: a rotated-tour result passes, an energy row
perturbed by 1e-5 eV fails, and a command with a nonzero exit fails.
Run on its own with ``python3 perfbench/selftest.py [--seed N]``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import oracle
from workloads import base_configs, cubic_op, rotate

PERTURB_EV = 1e-5


def run(cli, seed: int, work) -> list:
    """Return the checker's failures to behave; empty when it is sound."""
    problems = []
    configs, commands = base_configs("presets", harness.SRC)
    index = commands.index(("bands", "si_empirical"))
    ref = harness.load_reference("presets")[index]
    op_index = seed % 48 or 47
    work = harness.fresh_dir(work)

    cfg = work / "si_empirical.json"
    cfg.write_text(json.dumps(rotate(configs["si_empirical"],
                                     cubic_op(op_index))), encoding="utf-8")
    out = work / "rotated"
    res = harness.run_command(cli.main, ["bands", "--config", str(cfg),
                                         "--out", str(out)])
    ok, _, why = harness.judge("bands", res["code"], out, ref)
    if not ok:
        problems.append(f"rotated tour (op {op_index}) failed: {why}")
    else:
        outputs = oracle.read_outputs("bands", out)
        for key in ("json", "csv"):
            bad = dict(outputs, **{key: outputs[key].copy()})
            bad[key][7] += PERTURB_EV
            if oracle.compare("bands", bad, ref)[0]:
                problems.append(f"{key} row perturbed by {PERTURB_EV} eV "
                                f"passed")

    broken = work / "broken.json"
    broken.write_text(json.dumps(dict(configs["si_empirical"], extra=1)),
                      encoding="utf-8")
    res = harness.run_command(cli.main, ["bands", "--config", str(broken),
                                         "--out", str(out)])
    ok, _, _ = harness.judge("bands", res["code"], out, ref)
    if res["code"] == 0 or ok:
        problems.append(f"nonzero exit not counted as failed "
                        f"(code {res['code']}, ok {ok})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    pwbands = harness.import_program()
    problems = run(pwbands.cli, args.seed, harness.WORK / "selftest")
    for line in problems:
        print(f"FAIL {line}")
    print("checker self-test", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
