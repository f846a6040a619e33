import copy
import csv
import dataclasses
import json
import math
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

from pwbands.cli import (ConfigError, cmd_bands, cmd_converge, cmd_gaps,
                         cmd_info, load_config, main)
from pwbands.bands import detect_gaps, sweep
from pwbands.presets import PRESETS, preset_path

A_SI = 5.431

BASE_CONFIG = {
    "lattice": {"kind": "DIAMOND", "a": A_SI},
    "potential": {"model": "coulomb", "z_eff": 0.5},
    "basis": {"g2_max": 16},
    "path": {"points": ["L", "G", "X"], "samples_per_segment": 5},
    "output": {"num_bands": 6, "formats": ["csv", "json", "svg"],
               "directory": "."},
}


@pytest.fixture
def write_config(tmp_path):
    def _write(mutate=None, **replace):
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg.update(replace)
        if mutate:
            mutate(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    return _write


class TestLoadConfig:
    def test_valid_config_resolves(self, write_config):
        cfg = load_config(write_config())
        assert cfg.model.z_eff == 0.5
        assert cfg.model.mu == 0.0
        assert cfg.model.overrides == {}
        assert cfg.num_bands == 6
        assert cfg.g2_max == pytest.approx(16 * (math.pi / A_SI) ** 2)
        assert [s for s in cfg.path.labels if s] == ["L", "Γ", "X"]

    def test_yukawa_model(self, write_config):
        path = write_config(potential={"model": "yukawa", "z_eff": 1.0,
                                       "mu": 0.8})
        cfg = load_config(path)
        assert cfg.model.mu == 0.8
        assert cfg.model.overrides == {}

    def test_empirical_model_with_string_shells(self, write_config):
        path = write_config(potential={
            "model": "empirical", "overrides": {"12": 2.42, "0": -9.5},
            "override_mode": "form_factor"})
        cfg = load_config(path)
        assert cfg.model.overrides == {12: 2.42, 0: -9.5}
        assert cfg.model.override_mode == "form_factor"
        assert cfg.model.mu == 0.0

    def test_explicit_coordinate_points(self, write_config):
        path = write_config(mutate=lambda c: c["path"].update(points=[
            "G", {"label": "H", "coords": [0.5, 0.5, 0.0]}]))
        cfg = load_config(path)
        label, coord = cfg.path.labels[-1], cfg.path.kappas[-1]
        assert label == "H"
        np.testing.assert_allclose(
            coord, (2 * math.pi / A_SI) * np.array([0.5, 0.5, 0.0]))

    @pytest.mark.parametrize("mutate,needle", [
        (lambda c: c.pop("lattice"), "lattice"),
        (lambda c: c["lattice"].update(a=-1.0), "lattice"),
        (lambda c: c["lattice"].update(kind="HEX"), "lattice"),
        (lambda c: c["potential"].update(z_eff=-2.0), "potential"),
        (lambda c: c["potential"].update(model="morse"), "potential.model"),
        (lambda c: c["potential"].update(bogus=1), "potential.bogus"),
        (lambda c: c["potential"].update(mu=0.8),
         "potential.mu: unknown key"),
        (lambda c: c["potential"].update(overrides={"3": 50.0}),
         "potential.overrides: unknown key"),
        (lambda c: c["potential"].update(override_mode="bogus"),
         "potential.override_mode: unknown key"),
        (lambda c: c.update(potential={"model": "yukawa", "z_eff": 0.5,
                                       "mu": 0.8, "overrides": {"12": 50.0}}),
         "potential.overrides: unknown key"),
        (lambda c: c.update(potential={"model": "yukawa", "z_eff": 0.5,
                                       "mu": 0.8,
                                       "override_mode": "element"}),
         "potential.override_mode: unknown key"),
        (lambda c: c.update(potential={"model": "empirical", "mu": -1.0}),
         "mu must be nonnegative"),
        (lambda c: c["basis"].update(g2_max=-4), "basis.g2_max"),
        (lambda c: c["path"].update(samples_per_segment=1),
         "path.samples_per_segment"),
        (lambda c: c["path"].update(points=["L"]), "path.points"),
        (lambda c: c["output"].update(num_bands=0), "output.num_bands"),
        (lambda c: c["output"].update(formats=["pdf"]), "output.formats"),
        (lambda c: c.update(extra={}), "config.extra"),
        (lambda c: c.update(lattice=5), "lattice: expected an object"),
        (lambda c: c.update(lattice=None), "lattice: expected an object"),
        (lambda c: c.update(potential=[]), "potential: expected an object"),
        (lambda c: c.update(basis=5), "basis: expected an object"),
        (lambda c: c.update(path="LGX"), "path: expected an object"),
        (lambda c: c.update(output=None), "output: expected an object"),
        (lambda c: c["lattice"].update(kind=["FCC"]),
         "lattice.kind: expected a string"),
        (lambda c: c["potential"].update(model=5),
         "potential.model: expected a string"),
        (lambda c: c.update(potential={"model": "empirical",
                                       "override_mode": None}),
         "potential.override_mode: expected a string"),
        (lambda c: c["path"].update(points=[
            {"label": None, "coords": [0, 0, 0]}, "X"]),
         "path.points[0].label: expected a string"),
        (lambda c: c["path"].update(points=[
            "L", {"label": 7, "coords": [0, 0, 0]}]),
         "path.points[1].label: expected a string"),
        # Characters XML 1.0 forbids: bands.svg would not parse.
        *((lambda c, bad=bad: c["path"].update(points=[
            "L", {"label": f"A{bad}", "coords": [0, 0, 0]}]),
           f"path.points[1].label: U+{ord(bad):04X} is not allowed")
          for bad in ("\x00", "\x01", "\x0b", "\x0c", "\x1f", "\ud800",
                      "\udfff", "\ufffe", "\uffff")),
        (lambda c: c["basis"].update(converge_at=None),
         "basis.converge_at: expected a string"),
        (lambda c: c["output"].update(directory=None),
         "output.directory: expected a string"),
        (lambda c: c["output"].update(directory=5),
         "output.directory: expected a string"),
        # No path holds NUL; a lone surrogate has no UTF-8.
        *((lambda c, bad=bad: c["output"].update(directory=f"d{bad}x"),
           f"output.directory: U+{ord(bad):04X} is not allowed")
          for bad in ("\x00", "\ud800", "\udcff")),
    ])
    def test_bad_configs_name_the_key(self, write_config, mutate, needle):
        path = write_config(mutate=mutate)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert needle in str(excinfo.value)

    def test_num_bands_beyond_basis(self, write_config):
        path = write_config(mutate=lambda c: c["output"].update(num_bands=99))
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert "num_bands" in str(excinfo.value)

    def test_label_without_table_requires_coords(self, write_config):
        path = write_config(lattice={"kind": "SC", "a": 1.0})
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert "path.points" in str(excinfo.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # json raises RecursionError, not JSONDecodeError, past its depth.
        path = tmp_path / "config.json"
        path.write_text('{"lattice": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}",
                        encoding="utf-8")
        assert main(["info", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error at <file>: ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize("name", PRESETS)
    def test_shipped_presets_validate(self, name):
        cfg = load_config(preset_path(name))
        assert cfg.num_bands == 8
        assert cfg.g2_max_units == 76


class TestBandsCommand:
    def test_writes_requested_formats_only(self, write_config, tmp_path):
        path = write_config(mutate=lambda c: c["output"].update(
            formats=["csv"]))
        out = tmp_path / "out"
        assert cmd_bands(path, out=out) == 0
        produced = sorted(p.name for p in out.iterdir())
        assert produced == ["bands.csv"]

    def test_csv_schema_and_roundtrip(self, write_config, tmp_path):
        path = write_config()
        out = tmp_path / "out"
        cmd_bands(path, out=out)
        cfg = load_config(path)
        bs = sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip,
                   cfg.basis.truncate(cfg.g2_max), cfg.num_bands)
        with (out / "bands.csv").open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k_index", "arc_distance", "label"] \
            + [f"E{i}" for i in range(1, 7)]
        assert len(rows) - 1 == len(bs.path.kappas)
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert float(row[1]) == pytest.approx(
                bs.path.arc_distances[i], abs=5e-7)
            assert row[2] == (bs.path.labels[i] or "")
            parsed = np.array([float(x) for x in row[3:]])
            np.testing.assert_allclose(parsed, np.round(bs.energies[i], 6),
                                       atol=1e-12)

    def test_free_electron_zero_at_gamma_in_csv(self, write_config, tmp_path):
        path = write_config(mutate=lambda c: c["potential"].update(z_eff=0.0))
        out = tmp_path / "out"
        cmd_bands(path, out=out)
        lines = (out / "bands.csv").read_text(encoding="utf-8").splitlines()
        gamma_rows = [ln for ln in lines if ",Γ," in ln]
        assert gamma_rows
        assert gamma_rows[0].split(",")[3] == "0.000000"

    def test_json_mirrors_csv_and_roundtrips(self, write_config, tmp_path):
        path = write_config()
        out = tmp_path / "out"
        cmd_bands(path, out=out)
        doc = json.loads((out / "bands.json").read_text(encoding="utf-8"))
        assert doc["config"] == json.loads(path.read_text(encoding="utf-8"))
        cfg = load_config(path)
        bs = sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip,
                   cfg.basis.truncate(cfg.g2_max), cfg.num_bands)
        gaps = detect_gaps(bs)
        assert doc["num_bands"] == 6
        assert len(doc["points"]) == len(bs.path.kappas)
        for i, point in enumerate(doc["points"]):
            assert point["k_index"] == i
            assert point["label"] == bs.path.labels[i]
            np.testing.assert_array_equal(point["energies"], bs.energies[i])
        assert len(doc["gaps"]) == len(gaps)
        for entry, gap in zip(doc["gaps"], gaps):
            assert entry["below_band"] == gap.below_band
            assert entry["width"] == gap.width

    @pytest.mark.parametrize("bands", [1, 3])
    @pytest.mark.parametrize("energy", [-2.5e-300, 1.0 / 3.0, math.nan,
                                        math.inf, -math.inf])
    def test_json_is_json_dumps_with_indent(self, bands, energy):
        # The rows are laid out by hand; the bytes are json.dumps's, for
        # every float it writes, labels of any text, and no gaps or some.
        from pwbands.bands import BandStructure, GapEntry
        from pwbands.cli import bands_json
        from pwbands.lattice import KPath

        labels = ("L", None, 'q"\\/\u00e9\u0393\n\u0001', None)
        path = KPath(np.zeros((4, 3)), np.array([0.0, 0.1, 1e300, 2.0]),
                     labels)
        energies = np.arange(4 * bands, dtype=float).reshape(4, bands) / 7
        energies[1, -1] = energy
        bs = BandStructure(path, energies)
        raw = {"output": {"num_bands": bands}, "path": {"points": ["Γ"]}}
        for gaps in ([], [GapEntry(1, 0.5, 0.75, 0.25)]):
            assert bands_json(bs, gaps, raw) == json.dumps({
                "config": raw, "num_bands": bands, "points": [{
                    "k_index": i, "arc_distance": arc, "label": label,
                    "energies": row} for i, (arc, label, row) in enumerate(
                        zip(path.arc_distances.tolist(), labels,
                            energies.tolist()))],
                "gaps": [dataclasses.asdict(g) for g in gaps]},
                indent=2, ensure_ascii=False) + "\n"

    def test_csv_agrees_with_json_at_6_decimals(self, write_config, tmp_path):
        path = write_config()
        out = tmp_path / "out"
        cmd_bands(path, out=out)
        doc = json.loads((out / "bands.json").read_text(encoding="utf-8"))
        lines = (out / "bands.csv").read_text(encoding="utf-8").splitlines()
        for point, line in zip(doc["points"], lines[1:]):
            cols = line.split(",")[3:]
            for csv_val, json_val in zip(cols, point["energies"]):
                assert csv_val == f"{json_val:.6f}"

    @pytest.mark.parametrize("pot,same_as", [
        ({"model": "yukawa", "z_eff": 0.5, "mu": 0.0},
         {"model": "coulomb", "z_eff": 0.5}),
        ({"model": "empirical", "z_eff": 0.5, "mu": 0.8},
         {"model": "yukawa", "z_eff": 0.5, "mu": 0.8}),
    ], ids=["yukawa-mu0-is-coulomb", "empirical-no-table-is-yukawa"])
    def test_model_tags_share_one_potential(self, write_config, tmp_path,
                                            pot, same_as):
        # The model tag only picks the allowed keys: equal parameters give
        # the same artifact bytes under any tag.
        written = []
        for i, potential in enumerate((pot, same_as)):
            out = tmp_path / str(i)
            assert cmd_bands(write_config(potential=potential), out=out) == 0
            written.append([(out / name).read_bytes()
                            for name in ("bands.csv", "bands.svg")])
        assert written[0] == written[1]

    def test_svg_has_labels_and_gap_rects(self, write_config, tmp_path):
        path = write_config(mutate=lambda c: c["potential"].update(z_eff=2.0))
        out = tmp_path / "out"
        cmd_bands(path, out=out)
        svg = (out / "bands.svg").read_text(encoding="utf-8")
        assert svg.startswith("<?xml")
        assert ">Γ<" in svg and ">L<" in svg and ">X<" in svg
        assert 'fill="#cccccc"' in svg  # at least one gap rectangle
        assert svg.count("<polyline") == 6

    @pytest.mark.parametrize("label", [
        "A&B", "</text><script>alert(1)</script><text>", "a,b", '"k" point',
        "two\nlines", "tab\tand\u0085\ud7ff\ue000\ufffd\U0010ffff"])
    def test_any_label_survives_every_format(self, write_config, tmp_path,
                                            label):
        path = write_config(mutate=lambda c: c["path"].update(
            points=[{"label": label, "coords": [0, 0, 0]}, "X"],
            samples_per_segment=2))
        out = tmp_path / "out"
        cmd_bands(path, out=out)
        root = ElementTree.parse(out / "bands.svg").getroot()
        svg = "{http://www.w3.org/2000/svg}"
        assert label in [t.text for t in root.iter(f"{svg}text")]
        assert not list(root.iter(f"{svg}script"))
        with (out / "bands.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [3 + 6] * 3
        assert [row[2] for row in rows[1:]] == [label, "X"]
        doc = json.loads((out / "bands.json").read_text(encoding="utf-8"))
        assert [p["label"] for p in doc["points"]] == [label, "X"]

    def test_deterministic_artifacts(self, write_config, tmp_path):
        path = write_config()
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        cmd_bands(path, out=out1)
        cmd_bands(path, out=out2)
        for name in ("bands.csv", "bands.json", "bands.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestGapsCommand:
    def test_free_model_reports_no_gaps(self, write_config, tmp_path, capsys):
        path = write_config(mutate=lambda c: c["potential"].update(z_eff=0.0))
        out = tmp_path / "out"
        assert cmd_gaps(path, out=out) == 0
        assert "no gaps detected" in capsys.readouterr().out
        doc = json.loads((out / "gaps.json").read_text(encoding="utf-8"))
        assert doc["gaps"] == []

    def test_strong_coupling_rows_agree(self, write_config, tmp_path, capsys):
        path = write_config(mutate=lambda c: c["potential"].update(z_eff=2.0))
        out = tmp_path / "out"
        cmd_gaps(path, out=out)
        text = capsys.readouterr().out
        doc = json.loads((out / "gaps.json").read_text(encoding="utf-8"))
        assert len(doc["gaps"]) >= 1
        body = [ln for ln in text.splitlines() if ln and
                not ln.startswith("below_band")]
        assert len(body) == len(doc["gaps"])
        for line, gap in zip(body, doc["gaps"]):
            cols = line.split()
            assert int(cols[0]) == gap["below_band"]
            assert float(cols[3]) == pytest.approx(gap["width"], abs=5e-7)


class TestConvergeCommand:
    def test_requires_cutoffs(self, write_config, tmp_path):
        path = write_config()
        with pytest.raises(ConfigError) as excinfo:
            cmd_converge(path, out=tmp_path / "out")
        assert "basis.cutoffs" in str(excinfo.value)

    def test_single_cutoff_single_row(self, write_config, tmp_path):
        path = write_config(mutate=lambda c: c["basis"].update(cutoffs=[16]))
        out = tmp_path / "out"
        assert cmd_converge(path, out=out) == 0
        doc = json.loads((out / "converge.json").read_text(encoding="utf-8"))
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["g2_max"] == pytest.approx(16.0)
        csv_lines = (out / "converge.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(csv_lines) == 2

    def test_free_model_identical_rows(self, write_config, tmp_path):
        path = write_config(mutate=lambda c: (
            c["potential"].update(z_eff=0.0),
            c["basis"].update(cutoffs=[12, 16, 44])))
        out = tmp_path / "out"
        cmd_converge(path, out=out)
        doc = json.loads((out / "converge.json").read_text(encoding="utf-8"))
        first = doc["rows"][0]["energies"]
        for row in doc["rows"][1:]:
            np.testing.assert_allclose(row["energies"], first, atol=1e-9)

    def test_cutoff_below_num_bands_exits_2(self, write_config, tmp_path,
                                            capsys):
        path = write_config(mutate=lambda c: (
            c["basis"].update(g2_max=76, cutoffs=[3, 76]),
            c["output"].update(num_bands=8)))
        assert main(["converge", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "basis.cutoffs" in err
        assert "cutoff 3 " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["bands", "gaps"])
    def test_every_command_checks_the_smallest_cutoff(
            self, write_config, tmp_path, capsys, command):
        # load_config checks the smallest basis any command of the run
        # can use, so bands and gaps reject the converge cutoffs too.
        path = write_config(mutate=lambda c: (
            c["basis"].update(g2_max=76, cutoffs=[3, 76]),
            c["output"].update(num_bands=8)))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "basis.cutoffs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_json_echoes_the_configured_cutoffs(self, write_config, tmp_path):
        # 107 * (pi/a)^2 / (pi/a)^2 is 107.00000000000001 in floats.
        path = write_config(mutate=lambda c: c["basis"].update(
            cutoffs=[107, 109]))
        out = tmp_path / "out"
        assert cmd_converge(path, out=out) == 0
        doc = json.loads((out / "converge.json").read_text(encoding="utf-8"))
        assert [row["g2_max"] for row in doc["rows"]] == [107, 109]

    def test_rejects_negative_cutoff(self, write_config):
        path = write_config(mutate=lambda c: c["basis"].update(
            cutoffs=[-4, 16]))
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert "basis.cutoffs" in str(excinfo.value)

    def test_rejects_descending_cutoffs(self, write_config, tmp_path):
        path = write_config(mutate=lambda c: c["basis"].update(
            cutoffs=[44, 16]))
        with pytest.raises(ConfigError):
            cmd_converge(path, out=tmp_path / "out")


class TestInfoCommand:
    def test_sc_reciprocal(self, write_config, capsys):
        path = write_config(
            lattice={"kind": "SC", "a": 1.0},
            path={"points": ["G", {"label": "X", "coords": [0.5, 0, 0]}],
                  "samples_per_segment": 3},
            output={"num_bands": 1, "formats": ["csv"], "directory": "."})
        assert cmd_info(path) == 0
        out = capsys.readouterr().out
        assert f"g1 = ( {2 * math.pi:.6f},  0.000000,  0.000000)" in out

    def test_fcc_reciprocal_is_bcc_in_output(self, write_config, capsys):
        path = write_config(lattice={"kind": "FCC", "a": A_SI})
        cmd_info(path)
        out = capsys.readouterr().out
        unit = 2 * math.pi / A_SI
        assert f"g1 = (-{unit:.6f},  {unit:.6f},  {unit:.6f})" in out

    def test_diamond_basis_size_at_production_cutoff(self, write_config,
                                                     capsys):
        path = write_config(mutate=lambda c: c["basis"].update(g2_max=76))
        cmd_info(path)
        out = capsys.readouterr().out
        assert "basis size at g2_max = 76 (pi/a)^2: 89" in out


class TestMain:
    def test_success_exit_code(self, write_config, tmp_path):
        path = write_config(mutate=lambda c: c["output"].update(
            formats=["csv"]))
        assert main(["bands", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0

    def test_config_error_exit_code(self, write_config, capsys):
        path = write_config(mutate=lambda c: c["lattice"].update(a=-1))
        assert main(["bands", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bands", "gaps", "converge"])
    def test_out_naming_a_file_exits_2(self, write_config, tmp_path, capsys,
                                       command):
        # Files are written before anything is printed, so a failed write
        # leaves stdout empty.
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        path = write_config(mutate=lambda c: c["basis"].update(
            cutoffs=[12, 16]))
        assert main([command, "--config", str(path),
                     "--out", str(taken)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error at --out: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [1e15, 3e4], ids=["1e15", "3e4"])
    @pytest.mark.parametrize("key", ["g2_max", "cutoffs"])
    def test_cutoff_beyond_physical_memory_exits_2(self, write_config, capsys,
                                                   key, value):
        # At 3e4 (pi/a)^2 silicon has 680,507 plane waves, and V alone
        # would take 3.7 TB; the estimate refuses it before enumerating.
        path = write_config(mutate=lambda c: c["basis"].update(
            {key: [12, value] if key == "cutoffs" else value}))
        assert main(["info", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error at basis.{key}: ")
        assert "physical memory" in err

    def test_cutoff_whose_solve_exceeds_memory_exits_2(self, write_config,
                                                      capsys, monkeypatch):
        # Memory for V twice over, not for the solve's peak (V beside its
        # difference index, its deviation scratch or the row blocks' gathers,
        # four V's in all): refused before any array is made, not ended by
        # a MemoryError.
        import os

        import pwbands.cli as cli_mod

        path = write_config(mutate=lambda c: c["basis"].update(g2_max=300))
        waves = load_config(path).basis.dim
        memory = 2 * 8 * waves * waves
        assert 8 * waves * waves < memory < cli_mod.PEAK_BYTES * waves * waves
        monkeypatch.setattr(os, "sysconf", lambda name: {
            "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}[name])
        assert main(["bands", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error at basis.g2_max: ")
        assert "physical memory" in err and "Traceback" not in err

    def test_path_beyond_physical_memory_exits_2(self, write_config, capsys):
        # 10**15 samples a segment: refused before any array is made.
        path = write_config(mutate=lambda c: c["path"].update(
            samples_per_segment=10**15))
        assert main(["info", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error at path.samples_per_segment: ")
        assert "physical memory" in err

    def test_output_directory_below_a_file_exits_2(self, write_config,
                                                   tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        path = write_config(mutate=lambda c: c["output"].update(
            directory=str(taken / "o")))
        assert main(["bands", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at output.directory: ")
        assert "Traceback" not in err

    def test_unwritable_directory_name_exits_2_creating_nothing(
            self, write_config, tmp_path, capsys):
        # NUL failed in mkdir with a traceback; a lone surrogate made the
        # directory and bands.csv, then failed writing the config's echo.
        for bad in ("\x00", "\ud800", "\udcff"):
            path = write_config(mutate=lambda c: c["output"].update(
                directory=str(tmp_path / f"d{bad}x")))
            assert main(["bands", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error at output.directory: ")
            assert "Traceback" not in err
            assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["info", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("key,value", [
        ("z_eff", math.nan), ("mu", math.inf), ("z_eff", -math.inf)])
    def test_non_finite_number_exits_2(self, write_config, tmp_path, capsys,
                                       key, value):
        path = write_config(potential={"model": "yukawa", "z_eff": 0.5,
                                       "mu": 1.0, key: value})
        assert main(["bands", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"potential.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_of_range_integer_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        cfg = json.dumps(BASE_CONFIG).replace('"a": 5.431', '"a": 1' + '0' * 400)
        path.write_text(cfg, encoding="utf-8")
        assert main(["info", "--config", str(path)]) == 2
        assert "lattice.a" in capsys.readouterr().err

    def test_non_object_section_exits_2(self, write_config, tmp_path, capsys):
        path = write_config(basis=5)
        assert main(["bands", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error at basis: expected an object" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["info", "bands"])
    @pytest.mark.parametrize("a", [1e-200, 1e-150, 1e110, 1e154, 1e200])
    def test_unrepresentable_lattice_scale_exits_2(self, write_config,
                                                   tmp_path, capsys, command,
                                                   a):
        # The cell volume a^3/4 overflows or underflows float64: the
        # potential would be divided by inf or 0.  Nothing may warn first.
        path = write_config(mutate=lambda c: c["lattice"].update(a=a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at lattice.a: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_label_svg_cannot_carry_exits_2(self, write_config, tmp_path,
                                            capsys):
        # XML 1.0 forbids U+0001 even as a reference: the run stops at the
        # config, naming the label, instead of writing an unparsable SVG.
        path = write_config(mutate=lambda c: c["path"].update(
            points=["L", {"label": "A\u0001", "coords": [0, 0, 0]}]))
        assert main(["bands", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert err == ("config error at path.points[1].label: U+0001 is not "
                       "allowed in XML 1.0, so not in bands.svg\n")
        assert out == "" and not (tmp_path / "o").exists()

    def test_tiny_lattice_scale_verifies_without_overflow(self, tmp_path):
        # At a = 1e-100 the entries of H reach 1e205 eV: ||H||_F overflows,
        # so the residual bound must scale by max|H| and stay finite.
        cfg = json.loads(preset_path("z05").read_text(encoding="utf-8"))
        cfg["lattice"]["a"] = 1e-100
        cfg["path"]["samples_per_segment"] = 3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bands", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "bands.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        energies = [float(row[f"E{i + 1}"]) for row in rows
                    for i in range(cfg["output"]["num_bands"])]
        assert len(rows) == 9
        assert all(math.isfinite(e) for e in energies)

    def test_small_lattice_scale_solves_on_the_mirror_lines(self, tmp_path):
        # At a = 1e-6 A max|H| is 1e15 eV, inside LAPACK's safe range, and
        # H is nearly free-electron: unless scaled to max|H| near 1, ?stemr
        # found no representation for a tight cluster (info 22) on X-U.
        cfg = json.loads(preset_path("z05").read_text(encoding="utf-8"))
        cfg["lattice"]["a"] = 1e-6
        cfg["path"]["samples_per_segment"] = 7
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bands", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command, where, code", [
        ("info", "path", 0), ("converge", "path", 0), ("bands", "path", 3),
        ("converge", "converge_at", 3)])
    def test_far_out_bloch_vector_warns_nothing(self, tmp_path, capsys,
                                                command, where, code):
        # |kappa| near 1e200 1/A: the arc length to it and |kappa + G|^2
        # overflow to inf.  info and converge never read the arc, and an
        # infinite kinetic diagonal is rejected at the first solve; numpy's
        # overflow warnings must not reach stderr on the way.
        cfg = json.loads(preset_path("z05").read_text(encoding="utf-8"))
        cfg["basis"]["cutoffs"] = [12, 44]
        if where == "path":
            cfg["path"]["points"][0] = {"label": "A", "coords": [1e200, 0, 0]}
        else:
            cfg["basis"]["converge_at"] = [1e200, 0, 0]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / "o")]) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "Warning" not in err and "Traceback" not in err
        if code == 3:
            assert err.startswith("numerical failure: solve failed at " + (
                "k-point 0 kappa=" if command == "bands" else
                "cutoff g2_max="))
            assert "non-finite" in err

    @pytest.mark.parametrize("command, where, key", [
        ("bands", "path", "path.points[0].coords"),
        ("info", "path", "path.points[0].coords"),
        ("converge", "converge_at", "basis.converge_at")])
    def test_overflowing_coordinates_exit_2_naming_the_key(
            self, tmp_path, capsys, command, where, key):
        # 1.7e308 is a finite float, but times 2 pi / a it overflows.
        cfg = json.loads(preset_path("z05").read_text(encoding="utf-8"))
        cfg["basis"]["cutoffs"] = [12, 44]
        if where == "path":
            cfg["path"]["points"][0] = {"label": "A", "coords": [1.7e308, 0, 0]}
        else:
            cfg["basis"]["converge_at"] = [1.7e308, 0, 0]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 2
        assert [str(w.message) for w in caught] == []
        out, err = capsys.readouterr()
        assert err.startswith(f"config error at {key}: ")
        assert err.count("\n") == 1 and out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset, mutate, energies", [
        # |kappa| near 6e153 1/A: E reaches 1.76e308 eV, and the axis
        # margin above it overflows.
        ("z05", lambda c: c["path"].update(samples_per_segment=3, points=[
            {"label": "A", "coords": [5.88e153, 0, 0]},
            {"label": "B", "coords": [-5.88e153, 0, 0]}]),
         "from -0.522342 to 1.7631e+308 eV"),
        # One flat band at 1e16 eV, where floats lie 2 eV apart: a tick
        # step of 0.2 eV would never move the tick.
        ("free", lambda c: (
            c.update(potential={"model": "empirical", "z_eff": 0.0,
                                "overrides": {"0": 1e16}}),
            c["basis"].update(g2_max=4),
            c["output"].update(num_bands=1),
            c["path"].update(samples_per_segment=3, points=[
                {"label": "A", "coords": [1e-9, 0, 0]},
                {"label": "B", "coords": [-1e-9, 0, 0]}])),
         "from 1e+16 to 1e+16 eV")], ids=["overflow", "flat-at-1e16"])
    def test_energies_the_svg_axis_cannot_tick_exit_3(
            self, tmp_path, capsys, preset, mutate, energies):
        cfg = json.loads(preset_path(preset).read_text(encoding="utf-8"))
        mutate(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bands", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 3
        assert [str(w.message) for w in caught] == []
        out, err = capsys.readouterr()
        assert err == (f"numerical failure: cannot plot energies {energies}: "
                       "no float64 tick step fits that axis\n")
        assert out == ""
        assert not (tmp_path / "o").exists()
        # Without the SVG the same energies are written.
        cfg["output"]["formats"] = ["csv"]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bands", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0

    def test_numerical_failure_exit_code(self, write_config, tmp_path,
                                         monkeypatch, capsys):
        import pwbands.cli as cli_mod
        from pwbands.bands import SweepError

        def explode(cfg):
            raise SweepError("synthetic", index=3, kappa=np.zeros(3))

        monkeypatch.setattr(cli_mod, "_run_sweep", explode)
        path = write_config()
        assert main(["bands", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bands", "converge"])
    def test_overflowing_potential_exits_3_naming_where(
            self, write_config, tmp_path, capsys, command):
        # A finite but huge z_eff overflows V to inf/NaN; eigh rejects the
        # matrix and the message names the k-point or the cutoff.
        path = write_config(mutate=lambda c: (
            c["potential"].update(z_eff=1e308),
            c["basis"].update(cutoffs=[16, 44])))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert ("at k-point 0 kappa=" in err if command == "bands"
                else "at cutoff g2_max=" in err and "(cutoffs[0])" in err)
        assert "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


    def test_nan_eigenpairs_exit_3_naming_the_kpoint(
            self, write_config, tmp_path, solver, capsys):
        # A solver that reports success with NaN values: the check after it
        # stops the run at that k-point, with nothing written.
        solver.inject("nan values")
        assert main(["bands", "--config", str(write_config()),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: solve failed at k-point 0 "
                              "kappa=")
        assert "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_nan_inside_a_batch_exits_3_naming_its_kpoint(
            self, tmp_path, solver, capsys):
        # z05's k-point 23 is solved in a batch of 23 points (23-45) that
        # share C3v; the error names it, not its batch.
        solver.inject("nan values", at=(load_config(preset_path("z05")), 23))
        assert main(["bands", "--config", str(preset_path("z05")),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: solve failed at k-point "
                              "23 kappa=")
        assert "non-finite" in err
        assert "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, message", [
        ("asymmetric", "not Hermitian"), ("nan", "non-finite")])
    def test_bad_potential_block_exits_3_at_the_first_kpoint(
            self, write_config, tmp_path, break_v, capsys, kind, message):
        # The block is checked once per sweep; a bad one still stops the
        # run at its first solve, before LAPACK, with nothing written.
        break_v(kind)
        assert main(["bands", "--config", str(write_config()),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: solve failed at k-point 0 "
                              "kappa=")
        assert message in err
        assert not (tmp_path / "o").exists()

    def test_levels_that_do_not_interlace_exit_3_naming_the_cutoff(
            self, write_config, tmp_path, bands_eigh, capsys):
        # The second cutoff's solve skips its lowest level, so E1 rises.
        bands_eigh.inject("skip", call=2)
        path = write_config(mutate=lambda c: c["basis"].update(
            cutoffs=[16, 44, 76]))
        assert main(["converge", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: levels do not interlace "
                              "at cutoff g2_max=")
        assert "(cutoffs[1]): E1 rose" in err
        assert not (tmp_path / "o").exists()

class TestOverrideShells:
    def test_unoccupied_shell_exits_2_naming_the_key(self, tmp_path, capsys):
        # FCC reciprocal vectors occupy n^2 = 0, 12, 16, 32, 44, ... only.
        cfg = json.loads(preset_path("si_empirical").read_text())
        cfg["potential"]["overrides"]["3"] = 50.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["bands", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "potential.overrides.3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shells,bad", [
        ({"12": 1.0, "20": 1.0}, "20"),
        ({"16": 0.5, "48": 0.5, "60": 0.5}, "60"),
    ])
    def test_rejects_only_the_unoccupied_key(self, write_config, shells, bad):
        path = write_config(potential={"model": "empirical",
                                       "overrides": shells})
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.key == f"potential.overrides.{bad}"

    @pytest.mark.parametrize("spelling", ["012", "1_2", " 12"])
    def test_two_keys_for_one_shell_exit_2(self, write_config, tmp_path,
                                           capsys, spelling):
        # int() reads each spelling as shell 12, so one value would
        # silently replace the other.
        path = write_config(potential={"model": "empirical", "overrides": {
            "12": -2.0, spelling: 5.0}})
        assert main(["gaps", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error at potential.overrides.{spelling}"
                              ": shell 12 ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, key", [
        ('"12": 2.42', '"12": -2.0, "12": 2.42', "potential.overrides.12"),
        ('"basis": {', '"basis": {"g2_max": 44}, "basis": {', "basis"),
        ('"points": ["L"', '"points": [{"label": "A", "label": "B", '
         '"coords": [0, 0, 0]}, "L"', "path.points[0].label")],
        ids=["override", "section", "list-entry"])
    def test_repeated_json_key_exits_2_naming_it(self, tmp_path, capsys,
                                                 old, new, key):
        # json.loads would keep the last value silently.
        text = preset_path("si_empirical").read_text(encoding="utf-8")
        assert text.count(old) == 1
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["gaps", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert err == f"config error at {key}: key given more than once\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_shells_beyond_reach_are_not_enumerated(self, write_config):
        # g2_max 16 bases hold no G - G' beyond n^2 = 64, so a table entry
        # at 10^6 cannot act in this run and is not searched for.
        path = write_config(potential={"model": "empirical",
                                       "overrides": {"12": 1.0,
                                                     "1000000": 1.0}})
        assert load_config(path).model.overrides[1000000] == 1.0
