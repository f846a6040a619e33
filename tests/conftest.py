"""The one place that knows the solver's seams: tests record and break
them through these fixtures, not through stubs of their own.

- ``solver`` wraps ``eigen._solve(blocks, count, scales)``, one LAPACK
  solve of a batch's irrep rows, each block (V_s, T_s) with T_s of shape
  (points, rows), giving [(info, [(values, vectors) per row]) per point].
  ``eigh`` and ``_by_row`` call it by the module's name; the irreps that
  ``hamiltonian`` solves once per little group do not.
- ``bands_eigh`` wraps ``bands.eigh``, once per batch of a sweep or of a
  convergence study (one point per distinct dim): k-points of one little
  group and dim, ``h.kinetic`` (points, dim), result fields per point.
- ``without_drivers`` empties ``eigen._DRIVERS``: ``numpy.linalg.eigh``
  then solves H whole.
- ``break_v`` wraps ``bands.potential_matrix(model, lattice, recip, basis,
  spans)``, once per sweep or convergence study, with ``spans`` the
  basis's ``hamiltonian.differences``; the sweep takes V's figures from
  V's table, V at one pair of rows a difference, so V is broken there: in
  its table t(d), then gathered anew.

A batch that fails is solved again point by point, so a fault at one
k-point is met twice: in its batch, then alone.
"""

import threading
from dataclasses import dataclass, replace

import numpy as np
import pytest

import pwbands.bands as bands_mod
import pwbands.eigen as eigen_mod
from pwbands.hamiltonian import differences
from pwbands.potential import HBAR2_OVER_2M

# The thread count's binding as imported, read where a test unbinds it.
THREADS = eigen_mod._THREADS


def _top(pairs):
    """The row that holds the highest level returned."""
    return max((s for s, (w, _) in enumerate(pairs) if len(w)),
               key=lambda s: pairs[s][0][-1])


def _nan_top(info, pairs, _, __):
    s = _top(pairs)
    w, z = pairs[s]
    return info, [*pairs[:s], (np.r_[w[:-1], np.nan], z), *pairs[s + 1:]]


def _drop(info, pairs, levels, _):
    pairs = list(pairs)
    for _ in range(levels):
        s = _top(pairs)
        pairs[s] = pairs[s][0][:-1], pairs[s][1][:, :-1]
    return info, pairs


# The faults on one point's (info, pairs), given ``inject``'s arg and the
# point's max|H|.
FAULTS = {
    "nan values": lambda info, pairs, _, __: (
        info, [(np.full_like(w, np.nan), z) for w, z in pairs]),
    "nan vectors": lambda info, pairs, _, __: (
        info, [(w, np.full_like(z, np.nan)) for w, z in pairs]),
    "nan top": _nan_top,  # the highest level returned, which may go unkept
    "drop": _drop,  # the arg highest levels returned: found < count
    "shift": lambda info, pairs, x, scale: (
        info, [(w + x * scale, z) for w, z in pairs]),
    "info": lambda _, pairs, info, __: (info, pairs),
}


@dataclass(frozen=True, eq=False)
class Point:
    """One point of one ``_solve`` call: its rows' sizes, ``count``, the
    OpenBLAS thread count inside and each row's levels returned, before any
    fault.  ``by_row``: the call's re-solve of the point by ``_by_row``,
    one call a row, recorded once, with no levels."""

    rows: tuple
    count: int
    threads: int | None
    values: tuple = ()
    by_row: bool = False


class Solver:
    """``eigen._solve`` that records each point in ``calls`` and injects
    the faults ``inject`` declares."""

    def __init__(self, solve):
        self.solve, self.calls, self.faults = solve, [], []
        self._local = threading.local()

    def inject(self, kind, arg=None, at=None):
        """Fault ``kind`` at every point or, for ``at`` = (cfg, index), at
        k-point ``index`` of cfg's sweep, in a batch or alone: at each point
        whose rows' T all lie in its kinetic diagonal.  Kinds: FAULTS', and
        before the solve "raise" LinAlgError or "run" the callable ``arg``,
        or "answer" point i with ``arg[i]`` in its place (the last given)."""
        assert kind in FAULTS or kind in ("raise", "run", "answer"), kind
        if at is not None:
            cfg, index = at
            at = HBAR2_OVER_2M * np.sum(
                (cfg.path.kappas[index] + cfg.basis.cart) ** 2, axis=1)
        self.faults.append((kind, arg, at))

    @property
    def inside(self) -> bool:
        """Whether this thread is inside a call."""
        return getattr(self._local, "outer", None) is not None

    def __call__(self, blocks, count, scales, *args):
        hits = [[at is None or all(np.isin(t[i], at).all() for _, t in blocks)
                 for i in range(len(scales))] for _, _, at in self.faults]
        answer = None
        for (kind, arg, _), hit in zip(self.faults, hits):
            if kind == "run" and any(hit):
                arg()
            elif kind == "raise" and any(hit):
                raise np.linalg.LinAlgError("injected: did not converge")
            elif kind == "answer":
                answer = arg
        point = Point(tuple(t.shape[1] for _, t in blocks), count,
                      THREADS[0]() if THREADS else None)
        local = self._local
        outer = getattr(local, "outer", None)  # set in _by_row's calls
        if outer is None:
            local.outer, local.rows = point, 0
        try:
            solved = (self.solve(blocks, count, scales, *args)
                      if answer is None else answer)
        finally:
            local.outer = outer
        if outer is None:
            self.calls += [replace(point, values=tuple(
                np.array(w) for w, _ in pairs)) for _, pairs in solved]
        else:  # a row of a point _by_row re-solves, rows in turn
            if local.rows % len(outer.rows) == 0:
                self.calls.append(replace(outer, by_row=True))
            local.rows += 1
        for (kind, arg, _), hit in zip(self.faults, hits):
            if kind in FAULTS:
                solved = [FAULTS[kind](info, pairs, arg, scale) if at else
                          (info, pairs) for (info, pairs), scale, at in
                          zip(solved, scales, hit)]
        return solved


class Batches:
    """``bands.eigh`` that records each batch ``h`` it is asked to solve in
    ``calls`` and each result it gives in ``results``, and injects the
    faults ``inject`` declares."""

    def __init__(self, eigh):
        self.eigh, self.calls, self.results, self.faults = eigh, [], [], []

    def inject(self, kind, arg=None, call=None, dim=None):
        """Fault ``kind`` at every call, or at call number ``call`` (from 1)
        or dim ``dim``: "skip" the lowest level, as a subset solve that
        missed one would; "raise" SolverError; "nudge" every value up by
        ``arg`` max|H|."""
        assert kind in ("skip", "raise", "nudge"), kind
        self.faults.append((kind, arg, call, dim))

    def __call__(self, h, count):
        self.calls.append(h)
        kinds = {kind: arg for kind, arg, call, dim in self.faults
                 if call in (None, len(self.calls)) and dim in (None, h.dim)}
        if "raise" in kinds:
            raise eigen_mod.SolverError("injected failure")
        skip = "skip" in kinds
        result = self.eigh(h, count + skip)
        if skip:
            result = replace(result, values=result.values[:, 1:],
                             vectors=result.vectors[:, :, 1:])
        if "nudge" in kinds:
            result = replace(result, values=result.values
                             + kinds["nudge"] * result.scale[:, None])
        self.results.append(result)
        return result


class BrokenV:
    """``bands.potential_matrix`` that records each V it returns in
    ``made`` and breaks V's table as ``inject`` declares."""

    def __init__(self, assemble):
        self.assemble, self.kind, self.made = assemble, None, []

    def inject(self, kind):
        """Break every V made from here on: one t(d) off by 1e-6 max|V|, so
        t(d) != conj t(-d) ("asymmetric"); t(0), the diagonal, NaN ("nan");
        t(d) = t(-d) = inf ("inf"); t(d) += 1e-6 max|V| (n(d) + n(-d) +
        i (m(d) - m(-d))), normal noise that breaks every symmetry, which
        a real table that stays Hermitian cannot, as t(-d) = t(d) commutes
        with inversion ("noise"); or the table cast to complex, breaking
        nothing ("complex")."""
        assert kind in ("asymmetric", "nan", "inf", "noise", "complex"), kind
        self.kind = kind

    def __call__(self, model, lattice, recip, basis, spans=None):
        v = self.assemble(model, lattice, recip, basis, spans)
        if self.kind is not None:
            v = self.apply(v, differences(basis.coeffs) if spans is None
                           else spans)
        self.made.append(v)
        return v

    def apply(self, v, spans):
        """V gathered anew from its table broken as injected."""
        table = v[spans.pairs]  # ascending d, so t(-d) is it reversed
        zero, scale = len(table) // 2, np.abs(table).max()
        if self.kind == "asymmetric":
            table[zero + 1] += 1e-6 * scale
        elif self.kind == "nan":
            table[zero] = np.nan
        elif self.kind == "inf":
            table[[zero - 1, zero + 1]] = np.inf
        elif self.kind == "noise":  # i m(d), odd: t(-d) = t(d) is inversion
            n, m = np.random.RandomState(5).standard_normal((2, len(table)))
            table = table + 1e-6 * scale * (n + n[::-1] + 1j * (m - m[::-1]))
        else:
            table = table.astype(complex)
        return self.gather(table, spans)

    @staticmethod
    def gather(table, spans):
        """V from a table over ``spans``' differences, through a dim x dim
        index of this file's own."""
        box = np.zeros(np.prod(spans.shape), table.dtype)
        box[spans.diffs] = table
        return box[np.subtract.outer(spans.key + spans.origin, spans.key)]


@pytest.fixture
def solver(monkeypatch):
    monkeypatch.setattr(eigen_mod, "_solve", Solver(eigen_mod._solve))
    return eigen_mod._solve


@pytest.fixture
def bands_eigh(monkeypatch):
    monkeypatch.setattr(bands_mod, "eigh", Batches(bands_mod.eigh))
    return bands_mod.eigh


@pytest.fixture
def without_drivers(monkeypatch):
    """Call to empty ``eigen._DRIVERS`` for the rest of the test."""
    return lambda: monkeypatch.setattr(eigen_mod, "_DRIVERS", {})


@pytest.fixture
def break_v(monkeypatch):
    monkeypatch.setattr(bands_mod, "potential_matrix",
                        BrokenV(bands_mod.potential_matrix))
    return bands_mod.potential_matrix
