"""Spans recorded from outside the program, and per-layer figures from them.

``Tracer.install`` replaces public functions with timing wrappers at the
names their callers look up (for example ``pwbands.bands.eigh``, which is
how ``sweep`` reaches the eigensolver), and puts the originals back when
it exits.  Each call records a span: name, start, end, parent span,
command id and a few work counts.  Spans stay in memory until written.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

import numpy.linalg

# Sample count that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 50.0)

EMITTERS = ("bands_csv", "bands_json", "gaps_json", "gaps_text",
            "converge_csv", "converge_json")


def _nbytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _vectors(args, result):
    return {"vectors": len(result)}


def _build_dim(args, result):
    return {"dim": result.dim}


def _eigh_dim(args, result):
    return {"dim": result.values.shape[0]}


def _targets(cli, bands, hamiltonian):
    """(module, attribute, span name, measure, cpu) for every wrapped call."""
    targets = [
        (cli, "load_config", "cli.load_config", None, False),
        (cli, "make_kpath", "lattice.make_kpath", None, False),
        (cli, "detect_gaps", "bands.detect_gaps", None, False),
        (cli, "render_bands", "svgplot.render_bands", _nbytes, False),
        (bands, "sweep", "bands.sweep", None, False),
        (bands, "convergence_study", "bands.convergence_study", None, False),
        (bands, "build", "hamiltonian.build", _build_dim, False),
        (bands, "eigh", "eigen.eigh", _eigh_dim, True),
        (bands, "potential_matrix", "hamiltonian.potential_matrix", None,
         False),
        (hamiltonian, "potential_matrix", "hamiltonian.potential_matrix",
         None, False),
        (hamiltonian, "enumerate_g", "lattice.enumerate_g", _vectors, False),
        (hamiltonian, "matrix_element", "potential.matrix_element", None,
         False),
        (numpy.linalg, "eigh", "numpy.linalg.eigh", None, False),
    ]
    targets += [(cli, name, "cli.emit", _nbytes, False) for name in EMITTERS]
    return targets


class Tracer:
    """Collects spans as lists [name, start, end, parent, command, extra]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.command = None

    def wrap(self, name, fn, measure=None, cpu=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.command, {}]
            stack.append(len(spans))
            spans.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            extra = measure(args, result) if measure else {}
            if cpu:
                extra["cpu"] = time.process_time() - cpu0
            span[5] = extra
            return result
        return wrapper

    @contextlib.contextmanager
    def install(self, cli, bands, hamiltonian):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, measure, cpu in _targets(cli, bands,
                                                             hamiltonian):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, measure, cpu))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, fh):
        """Write the spans to ``fh`` as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "command", "extra")
        for index, span in enumerate(self.spans):
            fh.write(json.dumps({"id": index, **dict(zip(keys, span))}) + "\n")


def _tail(durations_ms):
    """Highest level in TAIL_LEVELS with TAIL_BEYOND samples beyond it.

    Falls back to the median when there are too few samples; the returned
    count of samples beyond the level says how well it is resolved.
    """
    n = len(durations_ms)
    level = next((p for p in TAIL_LEVELS if n * (1 - p / 100) >= TAIL_BEYOND),
                 50.0)
    ordered = sorted(durations_ms)
    value = ordered[min(n - 1, int(level / 100 * n))]
    beyond = sum(1 for d in ordered if d > value)
    return level, value, beyond


def layer_stats(spans) -> dict:
    """Per-layer totals, self times and work counts for one traced pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, self_s, calls = {}, {}, {}
    for index, (name, start, end, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + end - start - child_time[index]
        calls[name] = calls.get(name, 0) + 1

    def extras(name, key):
        return [s[5][key] for s in spans if s[0] == name and key in s[5]]

    eigh_ms = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "eigen.eigh"]
    eigh_s = total.get("eigen.eigh", 0.0)
    level, tail_ms, beyond = _tail(eigh_ms) if eigh_ms else (50.0, 0.0, 0)
    loops = ("bands.sweep", "bands.convergence_study")
    loop_ids = {i for i, s in enumerate(spans) if s[0] in loops}
    stats = {
        "eigen.eigh.s": eigh_s,
        "eigen.eigh.calls": calls.get("eigen.eigh", 0),
        "eigen.eigh.p50_ms": statistics.median(eigh_ms) if eigh_ms else 0.0,
        "eigen.eigh.tail_pct": level,
        "eigen.eigh.tail_ms": tail_ms,
        "eigen.eigh.tail_beyond": beyond,
        "eigen.dim3_sum": sum(d ** 3 for d in extras("eigen.eigh", "dim")),
        "eigen.cpu_per_wall": (sum(extras("eigen.eigh", "cpu")) / eigh_s
                               if eigh_s else 0.0),
        "eigen.verify_share": ((eigh_s - total.get("numpy.linalg.eigh", 0.0))
                               / eigh_s if eigh_s else 0.0),
        "hamiltonian.potential_matrix.s": total.get(
            "hamiltonian.potential_matrix", 0.0),
        "hamiltonian.potential_matrix.self_s": self_s.get(
            "hamiltonian.potential_matrix", 0.0),
        "hamiltonian.potential_matrix.calls": calls.get(
            "hamiltonian.potential_matrix", 0),
        "potential.matrix_element.s": total.get("potential.matrix_element",
                                                0.0),
        "potential.matrix_element.calls": calls.get(
            "potential.matrix_element", 0),
        "lattice.enumerate_g.s": total.get("lattice.enumerate_g", 0.0),
        "lattice.enumerate_g.calls": calls.get("lattice.enumerate_g", 0),
        "lattice.enumerate_g.vectors": sum(extras("lattice.enumerate_g",
                                                  "vectors")),
        "lattice.make_kpath.s": total.get("lattice.make_kpath", 0.0),
        "cli.load_config.s": total.get("cli.load_config", 0.0),
        "cli.load_config.calls": calls.get("cli.load_config", 0),
        "hamiltonian.build.self_s": self_s.get("hamiltonian.build", 0.0),
        "hamiltonian.build.calls": calls.get("hamiltonian.build", 0),
        "hamiltonian.h_bytes": sum(16 * d * d for d in
                                   extras("hamiltonian.build", "dim")),
        "bands.loop.self_s": sum(self_s.get(n, 0.0) for n in loops),
        "bands.sweep.self_s": self_s.get("bands.sweep", 0.0),
        "bands.convergence_study.self_s": self_s.get(
            "bands.convergence_study", 0.0),
        "bands.detect_gaps.s": total.get("bands.detect_gaps", 0.0),
        "bands.solves": sum(1 for s in spans
                            if s[0] == "eigen.eigh" and s[3] in loop_ids),
        "cli.emit.s": total.get("cli.emit", 0.0),
        "cli.emit.bytes": sum(extras("cli.emit", "bytes")),
        "svgplot.render_bands.s": total.get("svgplot.render_bands", 0.0),
        "svgplot.render_bands.bytes": sum(extras("svgplot.render_bands",
                                                 "bytes")),
    }
    return stats
