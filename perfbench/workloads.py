"""Workload definitions: seeded CLI configs and the commands of one pass.

Every workload is diamond at a = 5.431 A with 8 bands; cutoffs are in
units of (pi/a)^2.  The seed picks one of the 48 operations of the cubic
point group Oh and applies it to every tour vertex and to ``converge_at``,
which are handed to the CLI as explicit coords.  The basis sphere and the
diamond crystal (origin at its inversion centre) are invariant under Oh, so
the work and the energies do not depend on the seed; seed 0 is the
identity.
"""

from __future__ import annotations

import copy
import itertools
import json
from pathlib import Path

import numpy as np

NAMES = ("tour-dense", "presets", "converge-ladder")
PRESETS = ("free", "z025", "z05", "z20", "si_empirical")

# FCC zone vertices in units of 2 pi / a.
FCC_POINTS = {
    "G": (0.0, 0.0, 0.0),
    "X": (1.0, 0.0, 0.0),
    "L": (0.5, 0.5, 0.5),
    "W": (1.0, 0.5, 0.0),
    "K": (0.75, 0.75, 0.0),
    "U": (1.0, 0.25, 0.25),
}
_GAMMA = {"G", "GAMMA", "Γ"}

_PERMS = list(itertools.permutations(range(3)))
_SIGNS = list(itertools.product((1.0, -1.0), repeat=3))


def cubic_op(seed: int) -> np.ndarray:
    """Signed permutation matrix number ``seed % 48``; 0 is the identity."""
    index = seed % 48
    perm, signs = _PERMS[index // 8], _SIGNS[index % 8]
    op = np.zeros((3, 3))
    for row in range(3):
        op[row, perm[row]] = signs[row]
    return op


def _coords(entry) -> tuple[str, tuple]:
    if isinstance(entry, dict):
        return entry["label"], tuple(entry["coords"])
    label = "G" if str(entry).upper() in _GAMMA else str(entry)
    return label, FCC_POINTS[label]


def rotate(raw: dict, op: np.ndarray) -> dict:
    """Copy of a config with the tour and converge_at as rotated coords."""
    cfg = copy.deepcopy(raw)
    path = cfg.setdefault("path", {})
    points = path.get("points", ["L", "G", "X", "U", "G"])
    path["points"] = [
        {"label": label, "coords": [float(x) for x in op @ np.array(xyz)]}
        for label, xyz in map(_coords, points)]
    basis = cfg.setdefault("basis", {})
    _, xyz = _coords(basis.get("converge_at", "G"))
    basis["converge_at"] = [float(x) for x in op @ np.array(xyz)]
    return cfg


def _preset(src: Path, name: str) -> dict:
    path = src / "pwbands" / "presets" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def base_configs(name: str, src: Path) -> tuple[dict, list]:
    """Unrotated configs by name, and the (command, config) list of a pass."""
    if name == "tour-dense":
        # One command per segment of the L-G-X-U-G tour, so that the
        # control runs next to each 50-point segment rather than once
        # beside the whole tour (see DESIGN.md).
        cfg = _preset(src, "z05")
        cfg["basis"]["g2_max"] = 200
        cfg["output"]["formats"] = ["csv", "json", "svg"]
        tour = cfg["path"]["points"]
        configs = {}
        for start, end in zip(tour, tour[1:]):
            segment = copy.deepcopy(cfg)
            segment["path"]["points"] = [start, end]
            configs[f"z05-g200-{start}{end}"] = segment
        return configs, [("bands", key) for key in configs]
    if name == "presets":
        configs = {p: _preset(src, p) for p in PRESETS}
        commands = [(cmd, p) for p in PRESETS for cmd in ("bands", "gaps")]
        return configs, commands + [("converge", "si_empirical")]
    if name == "converge-ladder":
        cfg = {
            "lattice": {"kind": "DIAMOND", "a": 5.431},
            "potential": {"model": "yukawa", "z_eff": 0.5, "mu": 1.0},
            "basis": {"cutoffs": list(range(44, 249, 12)),
                      "converge_at": "X"},
            "output": {"num_bands": 8, "formats": ["csv", "json"]},
        }
        return {"yukawa-ladder": cfg}, [("converge", "yukawa-ladder")]
    raise KeyError(f"unknown workload {name!r}")


def shorten(raw: dict) -> dict:
    """Warm-up variant: same basis sizes, two samples per segment and only
    the largest converge cutoff, so the first timed pass finds allocator
    and library state as later passes do."""
    cfg = copy.deepcopy(raw)
    cfg["path"]["samples_per_segment"] = 2
    if "cutoffs" in cfg["basis"]:
        cfg["basis"]["cutoffs"] = cfg["basis"]["cutoffs"][-1:]
    return cfg


def write_configs(name: str, src: Path, seed: int, work: Path,
                  warmup: bool = False):
    """Write the seeded configs of a workload; return {name: path}, commands."""
    configs, commands = base_configs(name, src)
    op = cubic_op(seed)
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, raw in configs.items():
        cfg = rotate(raw, op)
        paths[key] = work / f"{key}.json"
        paths[key].write_text(json.dumps(shorten(cfg) if warmup else cfg,
                                         indent=1), encoding="utf-8")
    return paths, commands
