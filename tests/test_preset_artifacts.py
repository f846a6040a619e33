"""Every artifact and stdout of ``bands``, ``gaps``, ``converge`` and
``info`` on the shipped presets, pinned by sha256.

Each preset runs from a copy with ``basis.cutoffs`` set to [44, 76, 108]
(si_empirical's own), so ``converge`` runs on all five.  The output
directory is masked in stdout.  ``bands.json`` holds energies at full
precision, so its digest is that of the numpy/LAPACK build the digests
were recorded with; the CSV, SVG and stdout round to 1e-6 eV or coarser.
The JSON numbers are also checked against the full-spectrum
``numpy.linalg.eigh`` fallback, to 1e-10 eV.
"""

import contextlib
import hashlib
import io
import json

import pytest

from pwbands.cli import main
from pwbands.presets import PRESETS, preset_path

CUTOFFS = [44, 76, 108]
COMMANDS = ("bands", "gaps", "converge", "info")

EXPECTED = {
    "free": {
        "bands": {
            "stdout":
                "3caba9507b5bc65cea0f354da276a3618b5b062c4b5c94e1aacd097fab14ee27",
            "bands.csv":
                "534a91503c039c1cb7f68755a123ef0504bddf7f285b17599ca6afa7c6b67520",
            "bands.json":
                "5e0a0aa0ed9f090d05cf9778d2111aed2686138d9dd38d1b520f2000e47f2916",
            "bands.svg":
                "359b2b13fdf3baa2f3a0301270d18e8fe16d40038879e3e77852f089f55396d8",
        },
        "gaps": {
            "stdout":
                "d29e2147a8f193fbb657a07b8e9917a7a150c83d1022064ce5eb3195df982bb8",
            "gaps.json":
                "ea51aac7e10d905141fe1ea96c6f9d82ce3a356a163eb51289b79a00dcd13fd2",
        },
        "converge": {
            "stdout":
                "31f3e3dd2d20fa583f4b64167c5775ef362916da178de850a66ba945b8b7547f",
            "converge.csv":
                "a416e7a66c1c8f664c8a0ecda0d952c27d344d43f7cd103fc5b86d66f0922781",
            "converge.json":
                "827ea79ff848c9c5b49493e9c63aa7e880ea2aa3ddcf216b9b73b50cab21ce31",
        },
        "info": {
            "stdout":
                "cee5b88f0aca80de65f5b8e0eecf0ca953a96f8525d357a65f6d0372f9c22843",
        },
    },
    "z025": {
        "bands": {
            "stdout":
                "3caba9507b5bc65cea0f354da276a3618b5b062c4b5c94e1aacd097fab14ee27",
            "bands.csv":
                "c2e680413e6831d525e27febce31e002da8e72edfae73b233c815d1444c48ab7",
            "bands.json":
                "d213f5279b6aefe0343a4bd455cb3a355abb69b4a77442687a68a023e3457257",
            "bands.svg":
                "cce64d47105041929e7411f500cd883701a5deff446353427a9e1d95c188a972",
        },
        "gaps": {
            "stdout":
                "d29e2147a8f193fbb657a07b8e9917a7a150c83d1022064ce5eb3195df982bb8",
            "gaps.json":
                "ebfb632843107b72b05759f32764e2308a086a1f4570e7d7ede6f4f5d71d5304",
        },
        "converge": {
            "stdout":
                "798adad60daefa98798e352f8db0e4e6c023f58713776301bd29e7267d5ca679",
            "converge.csv":
                "492dad97b183cac70a09e9ba3e81e98a623f6968f9a3e1a846c0e0c103e66c0d",
            "converge.json":
                "2c362dd493a5e38ff1cfe3a00c22f2ad9be2570b07dd23d2647580ac50ea4ca4",
        },
        "info": {
            "stdout":
                "cee5b88f0aca80de65f5b8e0eecf0ca953a96f8525d357a65f6d0372f9c22843",
        },
    },
    "z05": {
        "bands": {
            "stdout":
                "51d7a4892035560c0adfabe9001c43aba2f838a24a5375b796e4182a99d183d6",
            "bands.csv":
                "ad9f1e83a55f625741773fd9e5014faead67c457d2dbf3e71530313bbb041f38",
            "bands.json":
                "dea5f9c9bb5cc935e2ccf4c37942296f6f25633c6110f2a23c2ca41882cf7d40",
            "bands.svg":
                "ceda8e6a3bf94f0924876bf6dc8ec52b27e165bf82067e27291739cef32b38f8",
        },
        "gaps": {
            "stdout":
                "8fca297ac334877abdf3b0ad92a3cb1db6372cfcba0c363f906b7e907401dc2d",
            "gaps.json":
                "3baef6de2147a6b8af31357e2665049b910eb00b42f2a74ba7e916a1fbff8ad9",
        },
        "converge": {
            "stdout":
                "516f3ed454a1a96182c16b5376aaa1d7b7fac0d628005f623dd60d42c34a96e7",
            "converge.csv":
                "6cf6d4476efd6d65885968bc2fe72048e02123239356eec941af9ff357f7eb53",
            "converge.json":
                "13f4894efc3c70497a8a073c48fa70897d7978f04aad159e210c37c3661e5b5f",
        },
        "info": {
            "stdout":
                "cee5b88f0aca80de65f5b8e0eecf0ca953a96f8525d357a65f6d0372f9c22843",
        },
    },
    "z20": {
        "bands": {
            "stdout":
                "7dfa39a4e9923a744cf232579d79abda253081b776862b998fbe5d67bba85ce2",
            "bands.csv":
                "162ac7c14484a22d6ec3bee60e56c09833e46943eaf78ebd0ef7964108ff4f99",
            "bands.json":
                "c2c5f8e074f3eebad809b2e042f285731e37a58388ee5ce17ebd8ac06a7d9f87",
            "bands.svg":
                "fb9a4127f0cec9cc81b3d709978f840af6edf3d9b84476c01123abd35bc6d2e6",
        },
        "gaps": {
            "stdout":
                "0d9c988d4004465264531fccdb503d20a4526e802fd055d23d31350340011baa",
            "gaps.json":
                "d922ddea29a709376d70f1ed5b2e5d73bcebdc5d34809ccd6dd4809559915417",
        },
        "converge": {
            "stdout":
                "7032fdabf7bacd1105eff1c982b617838d0731e35854895393798d323d569a03",
            "converge.csv":
                "de7e00346b130203ac1111608239836430d996c2b7257759a1da6a4721e46461",
            "converge.json":
                "fbf6ca4dc1a46a694d61a56b63ae8bca8c97a9a313ca9afb1738d25aa33dc7ac",
        },
        "info": {
            "stdout":
                "cee5b88f0aca80de65f5b8e0eecf0ca953a96f8525d357a65f6d0372f9c22843",
        },
    },
    "si_empirical": {
        "bands": {
            "stdout":
                "949fac47653489d5b943dbeacf09b8f70f68e6830c1402d7b85db3667a78d81d",
            "bands.csv":
                "3f672fb89b7b76d69cc0e5fb641a59562c8410fa5941f985fb06e7028123a36f",
            "bands.json":
                "a722ed2757c5f299b6a136a63ec092621a4b80c2fce903e49398e9ecc2d243b7",
            "bands.svg":
                "9f59d8d38bf08f1df21d35b8023445f2545aae20e53c34915504152682aff544",
        },
        "gaps": {
            "stdout":
                "95e4f52795407160a9228bc8ca21073e907a6c3ecde495d964e7d042f480f7fb",
            "gaps.json":
                "8d393c6345385c944ae34edbd7dc4b00059fa24f23e0de07b9cae7231445a44a",
        },
        "converge": {
            "stdout":
                "c4c882519485771cf468759c28e1399dcb589e3357ec9a9106103c3352843bd7",
            "converge.csv":
                "a7bd21ba222491dd4ff1aa52b8d3de3d85657ae854b589de35282ab72a948597",
            "converge.json":
                "81bb8f5d7fdb297fdf034df5e84063c7acca0219592954575f7b694d02aee26c",
        },
        "info": {
            "stdout":
                "cee5b88f0aca80de65f5b8e0eecf0ca953a96f8525d357a65f6d0372f9c22843",
        },
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(tmp_path, preset: str, command: str):
    """Run one command on a preset copy; its stdout and {file name: bytes}."""
    cfg = json.loads(preset_path(preset).read_text(encoding="utf-8"))
    cfg["basis"]["cutoffs"] = CUTOFFS
    tmp_path.mkdir(exist_ok=True)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", str(config), "--out", str(out)])
    assert code == 0
    text = stdout.getvalue().replace(str(out), "<out>")
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} \
        if out.exists() else {}
    return text, files


def run_digests(tmp_path, preset: str, command: str) -> dict:
    """sha256 of one command's stdout and of each file it writes."""
    text, files = run_command(tmp_path, preset, command)
    digests = {"stdout": _sha(text.encode("utf-8"))}
    digests.update((name, _sha(data)) for name, data in files.items())
    return digests


def assert_close(got, ref, where="$"):
    """Same JSON structure; every float within 1e-10 (eV for energies)."""
    assert type(got) is type(ref), where
    if isinstance(ref, dict):
        assert list(got) == list(ref), where
        for key in ref:
            assert_close(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), where
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_close(g, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        assert abs(got - ref) <= 1e-10, f"{where}: {got!r} vs {ref!r}"
    else:
        assert got == ref, where


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("preset", PRESETS)
def test_artifacts_match_recorded_digests(tmp_path, preset, command):
    assert run_digests(tmp_path, preset, command) == EXPECTED[preset][command]


@pytest.mark.parametrize("command", ("bands", "gaps", "converge"))
@pytest.mark.parametrize("preset", PRESETS)
def test_json_matches_full_spectrum_fallback(tmp_path, without_drivers,
                                             preset, command):
    _, subset = run_command(tmp_path / "subset", preset, command)
    without_drivers()
    _, full = run_command(tmp_path / "full", preset, command)
    name = f"{command}.json"
    assert_close(json.loads(subset[name]), json.loads(full[name]))
