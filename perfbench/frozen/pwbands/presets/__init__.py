"""Shipped example configurations for the CLI."""

from importlib.resources import files

PRESETS = ("free", "z025", "z05", "z20", "si_empirical")


def preset_path(name: str):
    """Filesystem path of a shipped preset config (no .json suffix)."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {PRESETS}")
    return files(__package__) / f"{name}.json"
