"""The benchmark's trace wraps program functions by name and reads their
results; a refactor that renames or reshapes them must fail here, not
only in ``perfbench/run.py --trace 1``."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import pwbands.bands
import pwbands.cli
import pwbands.hamiltonian
from pwbands.presets import preset_path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bands_run_records_every_assembly_layer(tmp_path):
    spans = load_spans()
    cfg = json.loads(preset_path("si_empirical").read_text())
    cfg["path"]["samples_per_segment"] = 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    tracer = spans.Tracer()
    with tracer.install(pwbands.cli, pwbands.bands, pwbands.hamiltonian), \
            contextlib.redirect_stdout(io.StringIO()):
        code = pwbands.cli.main(["bands", "--config", str(config),
                                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert not hasattr(pwbands.bands.build, "__wrapped__")  # restored
    names = {span[0] for span in tracer.spans}
    assert {"hamiltonian.build", "hamiltonian.potential_matrix",
            "lattice.enumerate_g", "potential.matrix_element"} <= names
    dims = {span[5]["dim"] for span in tracer.spans
            if span[0] == "hamiltonian.build"}
    assert dims == {89}
    stats = spans.layer_stats(tracer.spans)
    assert stats["hamiltonian.build.calls"] == 5  # L-G-X-U-G, two per segment
    assert stats["bands.solves"] == 5
    assert stats["hamiltonian.potential_matrix.calls"] == 1
    assert stats["potential.matrix_element.calls"] >= 1
    assert stats["lattice.enumerate_g.vectors"] >= 89
    assert stats["lattice.enumerate_g.calls"] == 1


def test_traced_converge_builds_one_basis_and_one_block(tmp_path):
    # Every cutoff's basis and potential block are leading blocks of the
    # largest one's, and that basis is the one the config check enumerated.
    spans = load_spans()
    cfg = json.loads(preset_path("si_empirical").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    tracer = spans.Tracer()
    with tracer.install(pwbands.cli, pwbands.bands, pwbands.hamiltonian), \
            contextlib.redirect_stdout(io.StringIO()):
        code = pwbands.cli.main(["converge", "--config", str(config),
                                 "--out", str(tmp_path / "out")])
    assert code == 0
    dims = [span[5]["dim"] for span in tracer.spans
            if span[0] == "hamiltonian.build"]
    assert dims == [51, 89, 169]
    stats = spans.layer_stats(tracer.spans)
    assert stats["hamiltonian.potential_matrix.calls"] == 1
    assert stats["lattice.enumerate_g.calls"] == 1
    assert stats["bands.solves"] == 3


@pytest.mark.parametrize("command,built", [("bands", [89] * 5),
                                           ("converge", [51, 89])])
def test_commands_solve_on_truncations_of_a_shell_sized_basis(
        tmp_path, command, built):
    # Shell 108 lies above both cutoffs but within 4x the top one, so
    # load_config enumerates up to it (dim 169); the commands still solve
    # at g2_max 76 and at the cutoffs 44 and 76.
    spans = load_spans()
    cfg = json.loads(preset_path("si_empirical").read_text())
    cfg["basis"]["cutoffs"] = [44, 76]
    cfg["potential"]["overrides"]["108"] = 0.1
    cfg["path"]["samples_per_segment"] = 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    tracer = spans.Tracer()
    with tracer.install(pwbands.cli, pwbands.bands, pwbands.hamiltonian), \
            contextlib.redirect_stdout(io.StringIO()):
        code = pwbands.cli.main([command, "--config", str(config),
                                 "--out", str(tmp_path / "out")])
    assert code == 0
    dims = [span[5]["dim"] for span in tracer.spans
            if span[0] == "hamiltonian.build"]
    assert dims == built
    stats = spans.layer_stats(tracer.spans)
    assert stats["lattice.enumerate_g.calls"] == 1
    assert stats["lattice.enumerate_g.vectors"] == 169
