"""Regenerate the reference energies in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs every workload once at seed 0 (the identity operation) with the
current sources and stores the energies each command wrote.  The stored
files were generated at commit 45e0045; regenerate them only when a change
is meant to alter the physics, never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys

import harness
import oracle
import workloads


def main() -> int:
    pwbands = harness.import_program()
    harness.REFERENCE.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        work = harness.fresh_dir(harness.WORK / f"reference-{name}")
        paths, commands = workloads.write_configs(name, harness.SRC, 0, work)
        entries = []
        for index, (cmd, key) in enumerate(commands):
            out = work / "out" / f"{index:02d}-{cmd}"
            res = harness.run_command(pwbands.cli.main, [
                cmd, "--config", str(paths[key]), "--out", str(out)])
            if res["code"] != 0:
                raise SystemExit(f"{name}: {cmd} {key} exited {res['code']}:"
                                 f"\n{res['stderr']}")
            entry = {"cmd": cmd, "config": key}
            entry.update(oracle.reference_entry(
                cmd, oracle.read_outputs(cmd, out)))
            entries.append(entry)
        path = harness.REFERENCE / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "commands": entries},
                                   separators=(",", ":")) + "\n",
                        encoding="utf-8")
        print(f"wrote {path} ({len(entries)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
