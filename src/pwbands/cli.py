"""Command-line interface: config ingestion, dispatch, and artifact output.

Commands read a single JSON config describing the crystal, the potential
model, the basis cutoff, and the k-path, and emit band data as CSV/JSON
and band diagrams as SVG.  Exit codes: 0 success, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import bands as bands_mod
from .bands import BandStructure, SweepError, detect_gaps
from .eigen import NonHermitianError, SolverError
from .hamiltonian import AssemblyError, PlaneWaveBasis
from .lattice import (KPath, LatticeError, RealLattice, ReciprocalLattice,
                      fcc_symmetry_points, make_cubic, make_kpath,
                      reciprocal_of, shell_index)
from .potential import Potential, PotentialError
from .svgplot import render_bands

DEFAULT_TOUR = ("L", "Γ", "X", "U", "Γ")
DEFAULT_SAMPLES = 50
DEFAULT_G2_MAX = 76.0
DEFAULT_NUM_BANDS = 8
ALL_FORMATS = ("csv", "json", "svg")

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
    """Validated configuration; cutoffs are in config units of (pi/a)^2."""

    lattice: RealLattice
    recip: ReciprocalLattice
    model: Potential
    g2_max_units: float
    cutoffs_units: tuple | None
    converge_kappa: np.ndarray
    path: KPath
    num_bands: int
    formats: tuple
    out_dir: str
    raw: dict

    @property
    def shell_unit(self) -> float:
        """(pi/a)^2 in 1/A^2, the unit of cutoffs and override shells."""
        return (math.pi / self.lattice.lattice_constant) ** 2

    @property
    def g2_max(self) -> float:
        """Plane-wave cutoff on |G|^2 in 1/A^2."""
        return self.g2_max_units * self.shell_unit


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
    tag = str(_require(pot, "model", "potential")).lower()
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
        table[shell] = _number(value, f"potential.overrides.{key}")
    try:
        return Potential(
            z_eff=_number(pot.get("z_eff", 0.0), "potential.z_eff"),
            mu=_number(pot.get("mu", 0.0), "potential.mu"),
            overrides=table,
            override_mode=str(pot.get("override_mode", "element")))
    except PotentialError as exc:
        raise ConfigError("potential", str(exc)) from exc


def _check_override_shells(cfg: RunConfig) -> None:
    """Reject override shells that no reciprocal-lattice vector occupies,
    up to 4x the largest cutoff: no G - G' of the run's bases lies beyond."""
    reach = 4.0 * max((cfg.g2_max_units, *(cfg.cutoffs_units or ())))
    shells = [shell for shell in cfg.model.overrides if shell <= reach]
    if not shells:
        return
    cart = PlaneWaveBasis.from_cutoff(cfg.recip,
                                      max(shells) * cfg.shell_unit).cart
    occupied = shell_index(np.einsum("ij,ij->i", cart, cart),
                           cfg.recip.lattice_constant)
    for shell in shells:
        if shell not in occupied:
            raise ConfigError(f"potential.overrides.{shell}",
                              f"no reciprocal-lattice vector lies on shell "
                              f"{shell}")


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
        label = _canonical_label(str(_require(entry, "label", where)))
        coords = _require(entry, "coords", where)
        if not isinstance(coords, list) or len(coords) != 3:
            raise ConfigError(f"{where}.coords", "expected [x, y, z]")
        vec = unit * np.array([_number(c, f"{where}.coords") for c in coords])
        return label, vec
    raise ConfigError(where, f"expected a label or an object, got {entry!r}")


def load_config(config_file) -> RunConfig:
    """Parse and validate a JSON config file into resolved objects."""
    path = Path(config_file)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be an object")
    _check_keys(raw, {"lattice", "potential", "basis", "path", "output"}, "config")

    lat_sec = _section(raw, "lattice", {"kind", "a"}, required=True)
    kind = str(_require(lat_sec, "kind", "lattice"))
    a = _number(_require(lat_sec, "a", "lattice"), "lattice.a")
    # Cell volumes, a^3 (SC) down to a^3/4 (FCC), must be normal floats;
    # then a^2 and (2 pi/a)^2, which k-paths and G enumeration take, are
    # finite too.
    cube = a * a * a
    if a > 0 and not (math.isfinite(cube) and cube / 4 >= sys.float_info.min):
        raise ConfigError("lattice.a", f"{a!r} gives a cell volume out of "
                          f"float range")
    try:
        lattice = make_cubic(kind, a)
        recip = reciprocal_of(lattice)
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

    converge_at = basis_sec.get("converge_at", "Γ")
    if isinstance(converge_at, list):
        if len(converge_at) != 3:
            raise ConfigError("basis.converge_at", "expected [x, y, z]")
        converge_kappa = unit * np.array(
            [_number(c, "basis.converge_at") for c in converge_at])
    else:
        _, converge_kappa = _resolve_point(str(converge_at), symmetry, unit,
                                           "basis.converge_at")

    path_sec = _section(raw, "path", {"points", "samples_per_segment"})
    entries = path_sec.get("points", list(DEFAULT_TOUR))
    if not isinstance(entries, list) or len(entries) < 2:
        raise ConfigError("path.points", "expected a list of at least 2 points")
    samples = _integer(path_sec.get("samples_per_segment", DEFAULT_SAMPLES),
                       "path.samples_per_segment", minimum=2)
    points = [_resolve_point(e, symmetry, unit, f"path.points[{i}]")
              for i, e in enumerate(entries)]
    try:
        kpath = make_kpath(points, samples)
    except LatticeError as exc:
        raise ConfigError("path", str(exc)) from exc

    out_sec = _section(raw, "output", {"num_bands", "formats", "directory"})
    num_bands = _integer(out_sec.get("num_bands", DEFAULT_NUM_BANDS),
                         "output.num_bands", minimum=1)
    formats = out_sec.get("formats", list(ALL_FORMATS))
    if not isinstance(formats, list) or not formats:
        raise ConfigError("output.formats", "expected a nonempty list")
    for fmt in formats:
        if fmt not in ALL_FORMATS:
            raise ConfigError("output.formats", f"unknown format {fmt!r}")
    out_dir = str(out_sec.get("directory", "."))

    cfg = RunConfig(
        lattice=lattice, recip=recip, model=model, g2_max_units=g2_units,
        cutoffs_units=cutoffs, converge_kappa=converge_kappa,
        path=kpath, num_bands=num_bands, formats=tuple(formats),
        out_dir=out_dir, raw=raw)
    _check_override_shells(cfg)
    # bands/gaps solve at g2_max and converge from cutoffs[0] (ascending).
    smallest = min((g2_units, *(cutoffs or ())))
    dim = PlaneWaveBasis.from_cutoff(recip, smallest * cfg.shell_unit).dim
    if num_bands > dim:
        key = "basis.cutoffs" if smallest < g2_units else "output.num_bands"
        raise ConfigError(key, f"cutoff {smallest:g} gives basis size {dim}, "
                          f"below output.num_bands={num_bands}")
    return cfg


def _lines(header, rows, sep=",") -> str:
    """One line per row of cells, header first, cells joined by ``sep``."""
    return "".join(sep.join(row) + "\n" for row in [header, *rows])


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def bands_csv(bs: BandStructure) -> str:
    """CSV table: k_index,arc_distance,label,E1..En (energies to 1e-6 eV)."""
    return _lines(
        ["k_index", "arc_distance", "label",
         *(f"E{i + 1}" for i in range(bs.num_bands))],
        ([str(i), f"{point.arc_distance:.6f}", point.label or "",
          *(f"{e:.6f}" for e in bs.energies[i])]
         for i, point in enumerate(bs.path.points)))


def bands_json(bs: BandStructure, gaps, raw_config: dict) -> str:
    """JSON mirror of the CSV content plus config echo and gap report."""
    return _json({
        "config": raw_config,
        "num_bands": bs.num_bands,
        "points": [{
            "k_index": i,
            "arc_distance": point.arc_distance,
            "label": point.label,
            "energies": [float(e) for e in bs.energies[i]],
        } for i, point in enumerate(bs.path.points)],
        "gaps": [asdict(g) for g in gaps],
    })


def gaps_json(gaps, raw_config: dict) -> str:
    return _json({"config": raw_config, "gaps": [asdict(g) for g in gaps]})


def gaps_text(gaps) -> str:
    if not gaps:
        return "no gaps detected\n"
    return _lines(
        ["below_band", "gap_bottom(eV)", "gap_top(eV)", "width(eV)"],
        ([f"{g.below_band:10d}", f"{g.gap_bottom:14.6f}",
          f"{g.gap_top:11.6f}", f"{g.width:9.6f}"] for g in gaps), sep="  ")


def converge_text(rows, cutoffs) -> str:
    """Fixed-width cutoff study table; ``cutoffs`` in config units."""
    return _lines(
        ["g2_max".rjust(10), "dim".rjust(6),
         *(f"E{i + 1}".rjust(12) for i in range(len(rows[0].values)))],
        ([f"{cutoff:10.2f}", f"{row.dim:6d}", *(f"{e:12.6f}" for e in row.values)]
         for cutoff, row in zip(cutoffs, rows)), sep="")


def converge_csv(rows, cutoffs) -> str:
    return _lines(
        ["g2_max", "dim", *(f"E{i + 1}" for i in range(len(rows[0].values)))],
        ([f"{cutoff:.6f}", str(row.dim), *(f"{e:.6f}" for e in row.values)]
         for cutoff, row in zip(cutoffs, rows)))


def converge_json(rows, cutoffs, raw_config: dict) -> str:
    return _json({
        "config": raw_config,
        "rows": [{
            "g2_max": cutoff,
            "dim": row.dim,
            "energies": [float(e) for e in row.values],
        } for cutoff, row in zip(cutoffs, rows)],
    })


def _write(cfg: RunConfig, out, emitters: dict, formats=None):
    """Write each ``{file name: emitter}`` whose suffix is in ``formats``
    (default: the config's); return the directory and the names written.
    Called after the compute, so a failed run makes no directory."""
    texts = {name: emit() for name, emit in emitters.items()
             if name.rsplit(".", 1)[1] in (formats or cfg.formats)}
    directory = Path(out if out is not None else cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory, list(texts)


def _run_sweep(cfg: RunConfig) -> BandStructure:
    return bands_mod.sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip,
                           cfg.g2_max, cfg.num_bands)


def cmd_bands(config_file, out=None) -> int:
    """Sweep the k-path and write bands.csv / bands.json / bands.svg."""
    cfg = load_config(config_file)
    bs = _run_sweep(cfg)
    gaps = detect_gaps(bs)
    directory, written = _write(cfg, out, {
        "bands.csv": lambda: bands_csv(bs),
        "bands.json": lambda: bands_json(bs, gaps, cfg.raw),
        "bands.svg": lambda: render_bands(bs, gaps),
    })
    print(f"{len(bs.path.points)} k-points, {bs.num_bands} bands, "
          f"{len(gaps)} gap(s)")
    print(f"wrote {', '.join(written)} to {directory}")
    return 0


def cmd_gaps(config_file, out=None) -> int:
    """Sweep, detect gaps, print the table, and write gaps.json."""
    cfg = load_config(config_file)
    gaps = detect_gaps(_run_sweep(cfg))
    sys.stdout.write(gaps_text(gaps))
    # gaps.json is written whatever output.formats lists.
    _write(cfg, out, {"gaps.json": lambda: gaps_json(gaps, cfg.raw)},
           formats=("json",))
    return 0


def cmd_converge(config_file, out=None) -> int:
    """Run the cutoff convergence study and write the table artifact."""
    cfg = load_config(config_file)
    cutoffs = cfg.cutoffs_units
    if cutoffs is None:
        raise ConfigError("basis.cutoffs", "required for the converge command")
    rows = bands_mod.convergence_study(
        cfg.converge_kappa, cfg.model, cfg.lattice, cfg.recip,
        [c * cfg.shell_unit for c in cutoffs], cfg.num_bands)
    sys.stdout.write(converge_text(rows, cutoffs))
    _write(cfg, out, {
        "converge.csv": lambda: converge_csv(rows, cutoffs),
        "converge.json": lambda: converge_json(rows, cutoffs, cfg.raw),
    })
    return 0


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
    dim = PlaneWaveBasis.from_cutoff(recip, cfg.g2_max).dim
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
        return _COMMANDS[args.command](args.config, args.out)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (SweepError, SolverError, NonHermitianError, AssemblyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
