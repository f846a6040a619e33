"""Output oracle: read a command's artifacts and compare them to references.

A command passes when it exited 0, its CSV and JSON energies lie within
``TOL_EV`` of the reference energies stored with the benchmark, every
converge table obeys Cauchy interlacing (E_n never rises with the cutoff),
and any free-electron band table matches ``free_electron_reference``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# The artifact tolerance: CSV energies carry 6 decimals.
TOL_EV = 1e-6
# Slack for E_n(larger cutoff) - E_n(smaller cutoff), which must be <= 0.
INTERLACE_TOL_EV = 1e-9


def _csv_rows(path: Path) -> list:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def read_outputs(cmd: str, out_dir: Path) -> dict:
    """Energies of one command's artifacts, keyed by artifact."""
    if cmd == "bands":
        rows = _csv_rows(out_dir / "bands.csv")
        doc = json.loads((out_dir / "bands.json").read_text(encoding="utf-8"))
        svg = (out_dir / "bands.svg").read_text(encoding="utf-8")
        return {
            "csv": np.array([[float(x) for x in r[3:]] for r in rows]),
            "json": np.array([p["energies"] for p in doc["points"]]),
            "svg_ok": "<svg " in svg and svg.rstrip().endswith("</svg>"),
        }
    if cmd == "gaps":
        doc = json.loads((out_dir / "gaps.json").read_text(encoding="utf-8"))
        return {"gaps": [[g["below_band"], g["gap_bottom"], g["gap_top"],
                          g["width"]] for g in doc["gaps"]]}
    if cmd == "converge":
        rows = _csv_rows(out_dir / "converge.csv")
        doc = json.loads((out_dir / "converge.json").read_text(encoding="utf-8"))
        return {
            "dims": [r["dim"] for r in doc["rows"]],
            "csv_dims": [int(r[1]) for r in rows],
            "csv": np.array([[float(x) for x in r[2:]] for r in rows]),
            "json": np.array([r["energies"] for r in doc["rows"]]),
        }
    raise KeyError(f"no oracle for command {cmd!r}")


def reference_entry(cmd: str, outputs: dict) -> dict:
    """The part of a command's outputs stored as its reference."""
    if cmd == "bands":
        return {"energies": np.round(outputs["json"], 12).tolist()}
    if cmd == "gaps":
        return {"gaps": [[int(g[0])] + [round(x, 12) for x in g[1:]]
                         for g in outputs["gaps"]]}
    return {"dims": outputs["dims"],
            "energies": np.round(outputs["json"], 12).tolist()}


def _dev(got: np.ndarray, want: np.ndarray) -> float:
    if got.shape != want.shape:
        return float("inf")
    return float(np.abs(got - want).max()) if got.size else 0.0


def compare(cmd: str, outputs: dict, ref: dict, free=None) -> tuple:
    """Check outputs against a reference entry.

    Returns ``(ok, max_dev_ev, problems)``; ``max_dev_ev`` is the worst
    deviation of the full-precision JSON energies.  ``free`` is the
    free-electron reference table when the config is the free preset.
    """
    problems = []
    if cmd == "gaps":
        got, want = outputs["gaps"], ref["gaps"]
        if [g[0] for g in got] != [g[0] for g in want]:
            problems.append(f"gap bands {[g[0] for g in got]} != "
                            f"{[g[0] for g in want]}")
            return False, float("inf"), problems
        dev = _dev(np.array([g[1:] for g in got], dtype=float).reshape(-1),
                   np.array([g[1:] for g in want], dtype=float).reshape(-1))
        if not dev <= TOL_EV:
            problems.append(f"gap edges deviate by {dev:.3e} eV")
        return not problems, dev, problems

    want = np.array(ref["energies"])
    dev = _dev(outputs["json"], want)
    csv_dev = _dev(outputs["csv"], want)
    if not dev <= TOL_EV:
        problems.append(f"json energies deviate by {dev:.3e} eV")
    if not csv_dev <= TOL_EV:
        problems.append(f"csv energies deviate by {csv_dev:.3e} eV")
    if cmd == "bands":
        if not outputs["svg_ok"]:
            problems.append("bands.svg is not a complete svg document")
        if free is not None:
            free_dev = _dev(outputs["json"], free)
            if not free_dev <= TOL_EV:
                problems.append(f"free-electron oracle deviates by "
                                f"{free_dev:.3e} eV")
    else:
        if outputs["dims"] != ref["dims"] or outputs["csv_dims"] != ref["dims"]:
            problems.append(f"basis dims {outputs['dims']} != {ref['dims']}")
        rise = np.diff(outputs["json"], axis=0)
        if rise.size and not rise.max() <= INTERLACE_TOL_EV:
            problems.append(f"interlacing violated: E_n rose by "
                            f"{rise.max():.3e} eV with the cutoff")
    return not problems, dev, problems
