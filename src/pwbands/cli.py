"""Command-line interface: config ingestion, dispatch, and artifact output.

Commands read a single JSON config describing the crystal, the potential
model, the basis cutoffs and the k-path; ``load_config`` enumerates the
run's one plane-wave basis.  A command solves on truncations of it, writes
band data as CSV/JSON and band diagrams as SVG, and only then prints, so a
run that cannot write prints nothing.  Exit codes: 0 success, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import bands as bands_mod
from .bands import BandStructure, SweepError, detect_gaps
from .eigen import NonHermitianError, SolverError
from .hamiltonian import AssemblyError, PlaneWaveBasis
from .lattice import (KPath, LatticeConstantError, LatticeError,
                      RealLattice, ReciprocalLattice, fcc_symmetry_points,
                      make_cubic, make_kpath, reciprocal_of, shell_index)
from .potential import Potential, PotentialError
from .svgplot import PlotError, render_bands

DEFAULT_TOUR = ("L", "Γ", "X", "U", "Γ")
DEFAULT_SAMPLES = 50
DEFAULT_G2_MAX = 76.0
DEFAULT_NUM_BANDS = 8
ALL_FORMATS = ("csv", "json", "svg")

# A run's peak memory per entry of V, in bytes.  V is float64 (every
# lattice ``make_cubic`` makes has an inversion centre at the origin), and
# a run holds V beside strips of its table's index, then beside a little
# group's row blocks, their gathers and the solver's copy of them: bands,
# gaps and converge grew peak RSS by 1.9 to 2.5 times V at dims 1139 and
# 1917 (z05, 5 samples a segment of L-G-X, converge at X).  Three V's.
PEAK_BYTES = 24

_GAMMA_ALIASES = {"G", "GAMMA", "Γ"}

# Potential keys each model reads besides "model"; yukawa requires "mu".
_MODEL_KEYS = {
    "coulomb": ("z_eff",),
    "yukawa": ("z_eff", "mu"),
    "empirical": ("z_eff", "mu", "overrides", "override_mode"),
}


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config error at {key}: {message}")
        self.key = key


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated configuration: ``*_units`` cutoffs in config units of
    (pi/a)^2, ``g2_max`` and ``shell_unit`` in 1/A^2, and ``basis``, the run's
    one basis (at the top cutoff or reachable override shell)."""

    lattice: RealLattice
    recip: ReciprocalLattice
    model: Potential
    g2_max_units: float
    g2_max: float
    cutoffs_units: tuple | None
    converge_kappa: np.ndarray
    path: KPath
    num_bands: int
    formats: tuple
    out_dir: str
    raw: dict
    shell_unit: float
    basis: PlaneWaveBasis


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}", "missing required key")
    return section[key]


def _number(value, where: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(where, f"number {value!r} is out of range") from None
    if not math.isfinite(number):
        raise ConfigError(where, f"expected a finite number, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(where, f"expected a number >= {minimum:g}")
    return number


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(where, f"expected a string, got {value!r}")
    return value


def _integer(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(where, f"expected an integer >= {minimum}")
    return value


def _check_keys(section: dict, allowed, where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}", "unknown key")


def _section(raw: dict, key: str, allowed, required: bool = False) -> dict:
    """Top-level section ``key``: an object holding only ``allowed`` keys."""
    section = _require(raw, key, "config") if required else raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(key, f"expected an object, got {section!r}")
    _check_keys(section, allowed, key)
    return section


def _canonical_label(label: str) -> str:
    return "Γ" if label.upper() in _GAMMA_ALIASES else label


def _resolve_potential(pot: dict) -> Potential:
    """One ``Potential`` record; the model tag only picks the allowed keys."""
    tag = _text(_require(pot, "model", "potential"), "potential.model").lower()
    if tag not in _MODEL_KEYS:
        raise ConfigError("potential.model", f"unknown model {tag!r}")
    _check_keys(pot, {"model", *_MODEL_KEYS[tag]}, "potential")
    if tag == "yukawa":
        _require(pot, "mu", "potential")
    overrides = pot.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("potential.overrides", "expected an object")
    table = {}
    for key, value in overrides.items():
        try:
            shell = int(key)
        except ValueError:
            raise ConfigError("potential.overrides",
                              f"shell key {key!r} is not an integer") from None
        if shell in table:  # "12", "012", " 12" and "1_2" are one shell
            raise ConfigError(f"potential.overrides.{key}",
                              f"shell {shell} is already overridden")
        table[shell] = _number(value, f"potential.overrides.{key}")
    try:
        return Potential(
            z_eff=_number(pot.get("z_eff", 0.0), "potential.z_eff"),
            mu=_number(pot.get("mu", 0.0), "potential.mu"),
            overrides=table,
            override_mode=_text(pot.get("override_mode", "element"),
                                "potential.override_mode"))
    except PotentialError as exc:
        raise ConfigError("potential", str(exc)) from exc


def _coords(coords, unit: float, where: str) -> np.ndarray:
    """[x, y, z] in units of 2 pi / a, as a Bloch vector in 1/A."""
    if not isinstance(coords, list) or len(coords) != 3:
        raise ConfigError(where, "expected [x, y, z]")
    with np.errstate(over="ignore"):
        vec = unit * np.array([_number(c, where) for c in coords])
    if not np.isfinite(vec).all():
        raise ConfigError(where, f"{coords} times 2 pi / a ({unit:g} 1/A) "
                          "overflows float64")
    return vec


def _resolve_point(entry, symmetry: dict, unit: float, where: str):
    if isinstance(entry, str):
        label = _canonical_label(entry)
        if label not in symmetry:
            raise ConfigError(
                where, f"label {entry!r} has no tabulated coordinates for "
                f"this lattice; give explicit coords")
        return label, symmetry[label]
    if isinstance(entry, dict):
        _check_keys(entry, {"label", "coords"}, where)
        label = _text(_require(entry, "label", where), f"{where}.label")
        # XML 1.0 forbids these even as references: bands.svg would not parse.
        bad = [c for c in label if c < " " and c not in "\t\n\r"
               or "\ud800" <= c <= "\udfff" or c in "\ufffe\uffff"]
        if bad:
            raise ConfigError(f"{where}.label", f"U+{ord(bad[0]):04X} is not "
                              "allowed in XML 1.0, so not in bands.svg")
        return _canonical_label(label), _coords(
            _require(entry, "coords", where), unit, f"{where}.coords")
    raise ConfigError(where, f"expected a label or an object, got {entry!r}")


class _Repeats(dict):
    """A JSON object that gave the key ``repeated`` more than once."""

    repeated: str


def _object_pairs(pairs) -> dict:
    """``json`` object hook: the object, marked if a key repeats (json
    would keep the last value silently)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        obj = _Repeats(obj)
        obj.repeated = next(k for k, _ in pairs if k in seen or seen.add(k))
    return obj


def _repeated_key(node, where: str = ""):
    """Path of the first key given twice in a parsed document, or None."""
    if isinstance(node, _Repeats):
        return f"{where}.{node.repeated}" if where else node.repeated
    if isinstance(node, dict):
        items = ((f"{where}.{k}" if where else k, v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    for path, child in items:
        found = _repeated_key(child, path)
        if found is not None:
            return found
    return None


def load_config(config_file) -> RunConfig:
    """Parse and validate a JSON config file into resolved objects."""
    path = Path(config_file)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"),
                         object_pairs_hook=_object_pairs)
        repeated = _repeated_key(raw)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # NUL in the path, or bytes that are not UTF-8
        raise ConfigError("<file>", f"cannot read {str(path)!r}: {exc}") \
            from exc
    except RecursionError:
        raise ConfigError("<file>", "invalid JSON: nested too deeply") from None
    if repeated is not None:
        raise ConfigError(repeated, "key given more than once")
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be an object")
    _check_keys(raw, {"lattice", "potential", "basis", "path", "output"}, "config")

    lat_sec = _section(raw, "lattice", {"kind", "a"}, required=True)
    kind = _text(_require(lat_sec, "kind", "lattice"), "lattice.kind")
    a = _number(_require(lat_sec, "a", "lattice"), "lattice.a")
    try:
        lattice = make_cubic(kind, a)
        recip = reciprocal_of(lattice)
    except LatticeConstantError as exc:
        raise ConfigError("lattice.a", str(exc)) from exc
    except LatticeError as exc:
        raise ConfigError("lattice", str(exc)) from exc
    unit = 2.0 * math.pi / a

    model = _resolve_potential(_section(
        raw, "potential", {"model", *_MODEL_KEYS["empirical"]}, required=True))

    basis_sec = _section(raw, "basis", {"g2_max", "cutoffs", "converge_at"})
    g2_units = _number(basis_sec.get("g2_max", DEFAULT_G2_MAX), "basis.g2_max",
                       minimum=0)
    cutoffs = basis_sec.get("cutoffs")
    if cutoffs is not None:
        if not isinstance(cutoffs, list) or not cutoffs:
            raise ConfigError("basis.cutoffs", "expected a nonempty list")
        cutoffs = tuple(_number(c, "basis.cutoffs", minimum=0) for c in cutoffs)
        if any(b <= x for x, b in zip(cutoffs, cutoffs[1:])):
            raise ConfigError("basis.cutoffs", "must be strictly ascending")

    symmetry = {"Γ": np.zeros(3)}
    if kind.upper() in ("FCC", "DIAMOND"):
        symmetry.update(fcc_symmetry_points(a))

    at, key = basis_sec.get("converge_at", "Γ"), "basis.converge_at"
    converge_kappa = (_coords(at, unit, key) if isinstance(at, list) else
                      _resolve_point(_text(at, key), symmetry, unit, key)[1])

    path_sec = _section(raw, "path", {"points", "samples_per_segment"})
    entries = path_sec.get("points", list(DEFAULT_TOUR))
    if not isinstance(entries, list) or len(entries) < 2:
        raise ConfigError("path.points", "expected a list of at least 2 points")
    samples = _integer(path_sec.get("samples_per_segment", DEFAULT_SAMPLES),
                       "path.samples_per_segment", minimum=2)
    points = [_resolve_point(e, symmetry, unit, f"path.points[{i}]")
              for i, e in enumerate(entries)]

    out_sec = _section(raw, "output", {"num_bands", "formats", "directory"})
    num_bands = _integer(out_sec.get("num_bands", DEFAULT_NUM_BANDS),
                         "output.num_bands", minimum=1)
    formats = out_sec.get("formats", list(ALL_FORMATS))
    if not isinstance(formats, list) or not formats:
        raise ConfigError("output.formats", "expected a nonempty list")
    for fmt in formats:
        if fmt not in ALL_FORMATS:
            raise ConfigError("output.formats", f"unknown format {fmt!r}")
    out_dir = _text(out_sec.get("directory", "."), "output.directory")
    # No path holds NUL, and a lone surrogate has no UTF-8 for the echo.
    bad = [c for c in out_dir if c == "\0" or "\ud800" <= c <= "\udfff"]
    if bad:
        raise ConfigError("output.directory", f"U+{ord(bad[0]):04X} is not "
                          "allowed in a directory name")

    smallest = min((g2_units, *(cutoffs or ())))
    top = max((g2_units, *(cutoffs or ())))
    # Refuse, before enumerating, a cutoff whose solve (PEAK_BYTES a V
    # entry), or a path whose samples (4 + num_bands floats each), cannot
    # fit in physical memory.  About (pi/6)(omega/a^3) n^3 plane waves, the
    # ball over the reciprocal cell, lie within n^2 (pi/a)^2.
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    waves = math.pi / 6 * float(lattice.volume) / a ** 3 * top * math.sqrt(top)
    if PEAK_BYTES * waves * waves > memory:
        raise ConfigError(
            "basis.cutoffs" if top > g2_units else "basis.g2_max",
            f"cutoff {top:g} gives about {waves:.3g} plane waves, whose "
            f"solve, at {PEAK_BYTES} bytes an entry of their potential "
            f"block, exceeds the {memory} bytes of physical memory")
    count = 1 + (samples - 1) * (len(points) - 1)
    if 8 * (4 + num_bands) * count > memory:
        raise ConfigError("path.samples_per_segment", f"{count} samples "
                          f"exceed the {memory} bytes of physical memory")
    kpath = make_kpath(points, samples)  # its inputs are validated above
    # One basis serves every check and command; G - G' stays within 4x top.
    shell_unit = (math.pi / a) ** 2
    shells = [shell for shell in model.overrides if shell <= 4.0 * top]
    basis = PlaneWaveBasis.from_cutoff(recip, max((top, *shells)) * shell_unit)
    occupied = shell_index(basis.g2, a)
    for shell in shells:
        if shell not in occupied:
            raise ConfigError(f"potential.overrides.{shell}", "no reciprocal-"
                              f"lattice vector lies on shell {shell}")
    dim = basis.truncate(smallest * shell_unit).dim
    if num_bands > dim:
        key = "basis.cutoffs" if smallest < g2_units else "output.num_bands"
        raise ConfigError(key, f"cutoff {smallest:g} gives basis size {dim}, "
                          f"below output.num_bands={num_bands}")
    return RunConfig(
        lattice=lattice, recip=recip, model=model, g2_max_units=g2_units,
        g2_max=g2_units * shell_unit, cutoffs_units=cutoffs,
        converge_kappa=converge_kappa, path=kpath, num_bands=num_bands,
        formats=tuple(formats), out_dir=out_dir, raw=raw,
        shell_unit=shell_unit, basis=basis)


def _lines(header, rows, specs, sep=",") -> str:
    """Header, then one line per row: each cell in its column's format spec
    (the last spec serves every further column), and each header name
    right-aligned to its spec's width."""
    specs = [*specs, *[specs[-1]] * len(header)]
    lines = [[name.rjust(int(re.match(r"\d*", spec)[0] or 0))
              for name, spec in zip(header, specs)],
             *([format(cell, spec) for cell, spec in zip(row, specs)]
               for row in rows)]
    return "".join(sep.join(line) + "\n" for line in lines)


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _band_rows(bs: BandStructure):
    """(k_index, arc_distance, label or None, energies) at each sample."""
    return zip(range(len(bs.energies)), bs.path.arc_distances.tolist(),
               bs.path.labels, bs.energies)


def _csv_field(text: str) -> str:
    """One CSV field: quoted, quotes doubled, if it holds , " or a newline."""
    if not re.search('[,"\r\n]', text):
        return text
    return '"' + text.replace('"', '""') + '"'


def bands_csv(bs: BandStructure) -> str:
    """CSV table: k_index,arc_distance,label,E1..En (energies to 1e-6 eV)."""
    return _lines(
        ["k_index", "arc_distance", "label",
         *(f"E{i + 1}" for i in range(bs.num_bands))],
        ((i, arc, _csv_field(label or ""), *energies)
         for i, arc, label, energies in _band_rows(bs)),
        ("d", ".6f", "s", ".6f"))


# One entry of bands.json's "points" as json.dumps(indent=2) lays it out.
_POINT = ('    {\n      "k_index": %d,\n      "arc_distance": %s,\n'
          '      "label": %s,\n      "energies": [\n        %s\n      ]\n    }')


def bands_json(bs: BandStructure, gaps, raw_config: dict) -> str:
    """JSON of the CSV's rows plus config echo and gap report, as ``_json``
    writes it.  The rows are the bulk: their numbers come from json's C
    encoder (float.__repr__) without indent, laid out as indent=2 would,
    not from the pure-Python encoder that indent forces."""
    head = _json({"config": raw_config, "num_bands": bs.num_bands})[:-3]
    arcs = json.dumps(bs.path.arc_distances.tolist())[1:-1].split(", ")
    rows = json.dumps(bs.energies.tolist())[2:-2].split("], [")
    points = ",\n".join(_POINT % (
        i, arc, "null" if label is None else json.dumps(
            label, ensure_ascii=False), row.replace(", ", ",\n        "))
        for i, (arc, label, row) in enumerate(zip(arcs, bs.path.labels,
                                                  rows)))
    gap_list = _json([asdict(g) for g in gaps])[:-1].replace("\n", "\n  ")
    return (f'{head},\n  "points": [\n{points}\n  ],\n'
            f'  "gaps": {gap_list}\n}}\n')


def gaps_json(gaps, raw_config: dict) -> str:
    return _json({"config": raw_config, "gaps": [asdict(g) for g in gaps]})


def gaps_text(gaps) -> str:
    if not gaps:
        return "no gaps detected\n"
    return _lines(["below_band", "gap_bottom(eV)", "gap_top(eV)", "width(eV)"],
                  map(astuple, gaps), ("10d", "14.6f", "11.6f", "9.6f"),
                  sep="  ")


def converge_text(study) -> str:
    """Fixed-width table of the study: header, rows (g2_max, dim, E1..En)."""
    return _lines(*study, ("10.2f", "6d", "12.6f"), sep="")


def converge_csv(study) -> str:
    return _lines(*study, (".6f", "d", ".6f"))


# One entry of converge.json's "rows" as json.dumps(indent=2) lays it out.
_ROW = ('    {\n      "g2_max": %s,\n      "dim": %s,\n      "energies": [\n'
        '        %s\n      ]\n    }')


def converge_json(study, raw_config: dict) -> str:
    """JSON of the study's rows plus config echo, as ``_json`` writes it,
    the rows' numbers from json's C encoder, as ``bands_json``'s."""
    head, rows = _json({"config": raw_config})[:-3], study[1]
    cutoffs = json.dumps([row[0] for row in rows])[1:-1].split(", ")
    dims = json.dumps([row[1] for row in rows])[1:-1].split(", ")
    levels = json.dumps([row[2:] for row in rows])[2:-2].split("], [")
    body = ",\n".join(_ROW % (cutoff, dim, row.replace(", ", ",\n        "))
                      for cutoff, dim, row in zip(cutoffs, dims, levels))
    return f'{head},\n  "rows": [\n{body}\n  ]\n}}\n'


def _finish(cfg: RunConfig, out, files: dict, stdout, formats=None) -> int:
    """Emit each ``{file name: (emitter, *args)}`` whose suffix is in
    ``formats`` (default: the config's), write them, and only then print
    ``stdout(directory, names)``: a run that cannot write prints nothing."""
    texts = {name: emit(*args) for name, (emit, *args) in files.items()
             if name.rsplit(".", 1)[1] in (formats or cfg.formats)}
    directory = Path(out if out is not None else cfg.out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (directory / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError("--out" if out is not None else "output.directory",
                          str(exc)) from exc
    sys.stdout.write(stdout(directory, list(texts)))
    return 0


def _run_sweep(cfg: RunConfig) -> BandStructure:
    return bands_mod.sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip,
                           cfg.basis.truncate(cfg.g2_max), cfg.num_bands)


def cmd_bands(config_file, out=None) -> int:
    """Sweep the k-path and write bands.csv / bands.json / bands.svg."""
    cfg = load_config(config_file)
    bs = _run_sweep(cfg)
    gaps = detect_gaps(bs)
    return _finish(cfg, out, {
        "bands.csv": (bands_csv, bs),
        "bands.json": (bands_json, bs, gaps, cfg.raw),
        "bands.svg": (render_bands, bs, gaps),
    }, lambda directory, names: (
        f"{len(bs.energies)} k-points, {bs.num_bands} bands, "
        f"{len(gaps)} gap(s)\nwrote {', '.join(names)} to {directory}\n"))


def cmd_gaps(config_file, out=None) -> int:
    """Sweep, detect gaps, write gaps.json, and print the table."""
    cfg = load_config(config_file)
    gaps = detect_gaps(_run_sweep(cfg))
    # gaps.json is written whatever output.formats lists.
    return _finish(cfg, out, {"gaps.json": (gaps_json, gaps, cfg.raw)},
                   lambda *_: gaps_text(gaps), formats=("json",))


def cmd_converge(config_file, out=None) -> int:
    """Run the cutoff convergence study; write and print its table."""
    cfg = load_config(config_file)
    cutoffs = cfg.cutoffs_units
    if cutoffs is None:
        raise ConfigError("basis.cutoffs", "required for the converge command")
    rows = bands_mod.convergence_study(
        cfg.converge_kappa, cfg.model, cfg.lattice, cfg.recip, cfg.basis,
        [c * cfg.shell_unit for c in cutoffs], cfg.num_bands)
    study = (["g2_max", "dim", *(f"E{i + 1}" for i in range(cfg.num_bands))],
             [(c, row.dim, *row.values) for c, row in zip(cutoffs, rows)])
    return _finish(cfg, out, {"converge.csv": (converge_csv, study),
                              "converge.json": (converge_json, study, cfg.raw)},
                   lambda *_: converge_text(study))


def cmd_info(config_file, out=None) -> int:
    """Print lattice, reciprocal lattice, cell volume, and basis size."""
    cfg = load_config(config_file)
    lat, recip = cfg.lattice, cfg.recip

    def fmt(v):
        return "(" + ", ".join(f"{x: .6f}" for x in v) + ")"

    print(f"lattice kind: {cfg.raw['lattice']['kind']}  "
          f"a = {cfg.raw['lattice']['a']} A")
    for name, vec in (("a1", lat.a1), ("a2", lat.a2), ("a3", lat.a3)):
        print(f"  {name} = {fmt(vec)} A")
    for i, tau in enumerate(lat.basis_offsets):
        print(f"  basis[{i}] = {fmt(tau)} A")
    for name, vec in (("g1", recip.g1), ("g2", recip.g2), ("g3", recip.g3)):
        print(f"  {name} = {fmt(vec)} 1/A")
    print(f"  omega = {recip.omega:.6f} A^3")
    dim = cfg.basis.truncate(cfg.g2_max).dim
    print(f"  basis size at g2_max = {cfg.g2_max_units:g} (pi/a)^2: {dim}")
    return 0


_COMMANDS = {
    "bands": cmd_bands,
    "gaps": cmd_gaps,
    "converge": cmd_converge,
    "info": cmd_info,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwbands",
        description="Plane-wave band structures of cubic crystals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        if args.out is not None and "\0" in args.out:  # no path holds NUL
            raise ConfigError("--out", "U+0000 is not allowed in a "
                              "directory name")
        return _COMMANDS[args.command](args.config, args.out)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (SweepError, SolverError, NonHermitianError, AssemblyError,
            PlotError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
