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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bands as bands_mod
from .bands import BandStructure, GapEntry, SweepError, detect_gaps
from .eigen import NonHermitianError, SolverError
from .hamiltonian import AssemblyError, PlaneWaveBasis
from .lattice import (KPath, LatticeError, RealLattice, ReciprocalLattice,
                      fcc_symmetry_points, make_cubic, make_kpath,
                      reciprocal_of, shell_index)
from .potential import (Coulomb, Empirical, PotentialError, PotentialModel,
                        Yukawa)
from .svgplot import render_bands

DEFAULT_TOUR = ("L", "Γ", "X", "U", "Γ")
DEFAULT_SAMPLES = 50
DEFAULT_G2_MAX = 76.0
DEFAULT_NUM_BANDS = 8
ALL_FORMATS = ("csv", "json", "svg")

_GAMMA_ALIASES = {"G", "GAMMA", "Γ"}


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config error at {key}: {message}")
        self.key = key


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated configuration with resolved domain objects."""

    lattice: RealLattice
    recip: ReciprocalLattice
    model: PotentialModel
    g2_max_units: float
    g2_max: float
    cutoffs_units: tuple | None
    converge_kappa: np.ndarray
    path: KPath
    num_bands: int
    formats: tuple
    out_dir: str
    raw: dict


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}", "missing required key")
    return section[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(where, f"number {value!r} is out of range") from None
    if not math.isfinite(number):
        raise ConfigError(where, f"expected a finite number, got {value!r}")
    return number


def _check_keys(section: dict, allowed, where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}", "unknown key")


def _canonical_label(label: str) -> str:
    return "Γ" if label.upper() in _GAMMA_ALIASES else label


def _resolve_potential(pot: dict) -> PotentialModel:
    _check_keys(pot, {"model", "z_eff", "mu", "overrides", "override_mode"},
                "potential")
    tag = str(_require(pot, "model", "potential")).lower()
    z_eff = _number(pot.get("z_eff", 0.0), "potential.z_eff")
    try:
        if tag == "coulomb":
            return Coulomb(z_eff=z_eff)
        if tag == "yukawa":
            mu = _number(_require(pot, "mu", "potential"), "potential.mu")
            return Yukawa(z_eff=z_eff, mu=mu)
        if tag == "empirical":
            mu = _number(pot.get("mu", 0.0), "potential.mu")
            base = Yukawa(z_eff=z_eff, mu=mu) if mu > 0 else Coulomb(z_eff=z_eff)
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
            mode = str(pot.get("override_mode", "element"))
            return Empirical(base=base, overrides=table, override_mode=mode)
    except PotentialError as exc:
        raise ConfigError("potential", str(exc)) from exc
    raise ConfigError("potential.model", f"unknown model {tag!r}")


def _check_override_shells(model: Empirical, recip: ReciprocalLattice,
                           reach: float) -> None:
    """Reject override shells that no reciprocal-lattice vector occupies.

    Only shells up to ``reach`` (in (pi/a)^2) are checked: no difference
    G - G' of the run's bases lies beyond it.
    """
    shells = [shell for shell in model.overrides if shell <= reach]
    if not shells:
        return
    a = recip.lattice_constant
    cart = PlaneWaveBasis.from_cutoff(recip,
                                      max(shells) * (math.pi / a) ** 2).cart
    occupied = shell_index(np.einsum("ij,ij->i", cart, cart), a)
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

    lat_sec = _require(raw, "lattice", "config")
    _check_keys(lat_sec, {"kind", "a"}, "lattice")
    kind = str(_require(lat_sec, "kind", "lattice"))
    a = _number(_require(lat_sec, "a", "lattice"), "lattice.a")
    try:
        lattice = make_cubic(kind, a)
        recip = reciprocal_of(lattice)
    except LatticeError as exc:
        raise ConfigError("lattice", str(exc)) from exc

    model = _resolve_potential(_require(raw, "potential", "config"))

    basis_sec = raw.get("basis", {})
    _check_keys(basis_sec, {"g2_max", "cutoffs", "converge_at"}, "basis")
    g2_units = _number(basis_sec.get("g2_max", DEFAULT_G2_MAX), "basis.g2_max")
    if g2_units < 0:
        raise ConfigError("basis.g2_max", "must be nonnegative")
    shell_unit = (math.pi / a) ** 2
    cutoffs = basis_sec.get("cutoffs")
    if cutoffs is not None:
        if not isinstance(cutoffs, list) or len(cutoffs) < 1:
            raise ConfigError("basis.cutoffs", "expected a nonempty list")
        vals = [_number(c, "basis.cutoffs") for c in cutoffs]
        if min(vals) < 0:
            raise ConfigError("basis.cutoffs", "must be nonnegative")
        if any(b <= x for x, b in zip(vals, vals[1:])):
            raise ConfigError("basis.cutoffs", "must be strictly ascending")
        cutoffs = tuple(vals)
    if isinstance(model, Empirical):
        # |G - G'|^2 <= 4 g2_max for G, G' inside the cutoff ball.
        _check_override_shells(model, recip,
                               4.0 * max((g2_units, *(cutoffs or ()))))

    symmetry = {"Γ": np.zeros(3)}
    if kind.upper() in ("FCC", "DIAMOND"):
        symmetry.update(fcc_symmetry_points(a))
    unit = 2.0 * math.pi / a

    converge_at = basis_sec.get("converge_at", "Γ")
    if isinstance(converge_at, list):
        if len(converge_at) != 3:
            raise ConfigError("basis.converge_at", "expected [x, y, z]")
        converge_kappa = unit * np.array(
            [_number(c, "basis.converge_at") for c in converge_at])
    else:
        _, converge_kappa = _resolve_point(str(converge_at), symmetry, unit,
                                           "basis.converge_at")

    path_sec = raw.get("path", {})
    _check_keys(path_sec, {"points", "samples_per_segment"}, "path")
    entries = path_sec.get("points", list(DEFAULT_TOUR))
    if not isinstance(entries, list) or len(entries) < 2:
        raise ConfigError("path.points", "expected a list of at least 2 points")
    samples = path_sec.get("samples_per_segment", DEFAULT_SAMPLES)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise ConfigError("path.samples_per_segment", "expected an integer >= 2")
    points = [_resolve_point(e, symmetry, unit, f"path.points[{i}]")
              for i, e in enumerate(entries)]
    try:
        kpath = make_kpath(points, samples)
    except LatticeError as exc:
        raise ConfigError("path", str(exc)) from exc

    out_sec = raw.get("output", {})
    _check_keys(out_sec, {"num_bands", "formats", "directory"}, "output")
    num_bands = out_sec.get("num_bands", DEFAULT_NUM_BANDS)
    if isinstance(num_bands, bool) or not isinstance(num_bands, int) or num_bands < 1:
        raise ConfigError("output.num_bands", "expected an integer >= 1")
    formats = out_sec.get("formats", list(ALL_FORMATS))
    if not isinstance(formats, list) or not formats:
        raise ConfigError("output.formats", "expected a nonempty list")
    for fmt in formats:
        if fmt not in ALL_FORMATS:
            raise ConfigError("output.formats", f"unknown format {fmt!r}")
    out_dir = str(out_sec.get("directory", "."))

    g2_max = g2_units * shell_unit
    dim = PlaneWaveBasis.from_cutoff(recip, g2_max).dim
    if num_bands > dim:
        raise ConfigError("output.num_bands",
                          f"exceeds basis size {dim} at g2_max={g2_units:g}")

    return RunConfig(
        lattice=lattice, recip=recip, model=model,
        g2_max_units=g2_units, g2_max=g2_max,
        cutoffs_units=cutoffs, converge_kappa=converge_kappa,
        path=kpath, num_bands=num_bands, formats=tuple(formats),
        out_dir=out_dir, raw=raw)


def _gap_dict(gap: GapEntry) -> dict:
    return {"below_band": gap.below_band, "gap_bottom": gap.gap_bottom,
            "gap_top": gap.gap_top, "width": gap.width}


def bands_csv(bs: BandStructure) -> str:
    """CSV table: k_index,arc_distance,label,E1..En (energies to 1e-6 eV)."""
    header = "k_index,arc_distance,label," + ",".join(
        f"E{i + 1}" for i in range(bs.num_bands))
    lines = [header]
    for i, point in enumerate(bs.path.points):
        label = point.label if point.label is not None else ""
        energy_cols = ",".join(f"{e:.6f}" for e in bs.energies[i])
        lines.append(f"{i},{point.arc_distance:.6f},{label},{energy_cols}")
    return "\n".join(lines) + "\n"


def bands_json(bs: BandStructure, gaps, raw_config: dict) -> str:
    """JSON mirror of the CSV content plus config echo and gap report."""
    points = []
    for i, point in enumerate(bs.path.points):
        points.append({
            "k_index": i,
            "arc_distance": point.arc_distance,
            "label": point.label,
            "energies": [float(e) for e in bs.energies[i]],
        })
    doc = {
        "config": raw_config,
        "num_bands": bs.num_bands,
        "points": points,
        "gaps": [_gap_dict(g) for g in gaps],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def gaps_json(gaps, raw_config: dict) -> str:
    doc = {"config": raw_config, "gaps": [_gap_dict(g) for g in gaps]}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def gaps_text(gaps) -> str:
    if not gaps:
        return "no gaps detected\n"
    lines = ["below_band  gap_bottom(eV)  gap_top(eV)  width(eV)"]
    for g in gaps:
        lines.append(f"{g.below_band:10d}  {g.gap_bottom:14.6f}  "
                     f"{g.gap_top:11.6f}  {g.width:9.6f}")
    return "\n".join(lines) + "\n"


def converge_csv(rows, shell_unit: float) -> str:
    num_bands = len(rows[0].values)
    header = "g2_max,dim," + ",".join(f"E{i + 1}" for i in range(num_bands))
    lines = [header]
    for row in rows:
        cols = ",".join(f"{e:.6f}" for e in row.values)
        lines.append(f"{row.g2_max / shell_unit:.6f},{row.dim},{cols}")
    return "\n".join(lines) + "\n"


def converge_json(rows, shell_unit: float, raw_config: dict) -> str:
    doc = {
        "config": raw_config,
        "rows": [{
            "g2_max": row.g2_max / shell_unit,
            "dim": row.dim,
            "energies": [float(e) for e in row.values],
        } for row in rows],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _out_dir(cfg: RunConfig, override) -> Path:
    directory = Path(override) if override is not None else Path(cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _run_sweep(cfg: RunConfig) -> BandStructure:
    return bands_mod.sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip,
                           cfg.g2_max, cfg.num_bands)


def cmd_bands(config_file, out=None) -> int:
    """Sweep the k-path and write bands.csv / bands.json / bands.svg."""
    cfg = load_config(config_file)
    directory = _out_dir(cfg, out)
    bs = _run_sweep(cfg)
    gaps = detect_gaps(bs)
    written = []
    if "csv" in cfg.formats:
        (directory / "bands.csv").write_text(bands_csv(bs), encoding="utf-8")
        written.append("bands.csv")
    if "json" in cfg.formats:
        (directory / "bands.json").write_text(
            bands_json(bs, gaps, cfg.raw), encoding="utf-8")
        written.append("bands.json")
    if "svg" in cfg.formats:
        (directory / "bands.svg").write_text(
            render_bands(bs, gaps), encoding="utf-8")
        written.append("bands.svg")
    print(f"{len(bs.path.points)} k-points, {bs.num_bands} bands, "
          f"{len(gaps)} gap(s)")
    print(f"wrote {', '.join(written)} to {directory}")
    return 0


def cmd_gaps(config_file, out=None) -> int:
    """Sweep, detect gaps, print the table, and write gaps.json."""
    cfg = load_config(config_file)
    directory = _out_dir(cfg, out)
    bs = _run_sweep(cfg)
    gaps = detect_gaps(bs)
    sys.stdout.write(gaps_text(gaps))
    (directory / "gaps.json").write_text(
        gaps_json(gaps, cfg.raw), encoding="utf-8")
    return 0


def cmd_converge(config_file, out=None) -> int:
    """Run the cutoff convergence study and write the table artifact."""
    cfg = load_config(config_file)
    if cfg.cutoffs_units is None:
        raise ConfigError("basis.cutoffs", "required for the converge command")
    shell_unit = (math.pi / cfg.lattice.lattice_constant) ** 2
    cutoffs_abs = [c * shell_unit for c in cfg.cutoffs_units]
    # Cutoffs ascend, so the first one gives the smallest basis.
    dim = PlaneWaveBasis.from_cutoff(cfg.recip, cutoffs_abs[0]).dim
    if cfg.num_bands > dim:
        raise ConfigError(
            "basis.cutoffs", f"cutoff {cfg.cutoffs_units[0]:g} gives basis "
            f"size {dim}, below output.num_bands={cfg.num_bands}")
    directory = _out_dir(cfg, out)
    rows = bands_mod.convergence_study(cfg.converge_kappa, cfg.model,
                                       cfg.lattice, cfg.recip, cutoffs_abs,
                                       cfg.num_bands)
    header = "g2_max".rjust(10) + "dim".rjust(6) + "".join(
        f"E{i + 1}".rjust(12) for i in range(cfg.num_bands))
    print(header)
    for row in rows:
        cols = "".join(f"{e:12.6f}" for e in row.values)
        print(f"{row.g2_max / shell_unit:10.2f}{row.dim:6d}{cols}")
    if "csv" in cfg.formats:
        (directory / "converge.csv").write_text(
            converge_csv(rows, shell_unit), encoding="utf-8")
    if "json" in cfg.formats:
        (directory / "converge.json").write_text(
            converge_json(rows, shell_unit, cfg.raw), encoding="utf-8")
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
