"""Deciding the intersection property of conditional independence.

The intersection property is the implication

    X ind A | (B, C)  and  X ind B | (A, C)   =>   X ind (A, B) | C.

It can fail when the joint density of (A, B) has gaps.  The decision
criterion implemented here is purely topological: the implication holds
for every variable X exactly when, in each conditioning cell c, all
path-connected components of the (A, B) support merge into a single
coordinate-wise-connected equivalence class.  The support is exact: it
is the grid's support cells, every cell of positive mass, so a
conditioning cell counts when it holds one of them.
Every query keys the grid's support cells by (c, a, b), merging the
cells that the summed-out axes put on one key, and finds the classes of
every conditioning cell in one call to the kernel of
:mod:`ciprop.topology`: one table of the class of each a-bin, then of
each b-bin, per c-cell.  :func:`verify_weak_intersection` reads the same
support cells keyed by (c, a, b, x), and it and the adversary give each
support cell its class by one gather through its (c-cell, a-bin); only
:func:`classes_per_c` wraps the rows in ``UcAssignment`` views.  A grid
computes each (a, b, cond) table once and keeps it with its CI answers
(two threads that both miss store equal tables: no lock), and
:func:`attach_class_variable` hands the grid it makes its base's table.

With two or more classes a violating X always exists and
:func:`construct_adversary` builds one; with one class the conclusion is
forced, and even in the failing case a weak form survives: the
conclusion holds conditionally on the class variable ``uc``
(:func:`verify_weak_intersection`).

The adversary follows the constructive failure proof: a new variable

    X = g(C, U) + N_X,   g = 10 on class 1 of the target c-cell,
                             0 elsewhere,

with N_X uniform on five points of [-0.1, 0.1].  On the support, ``uc``
is a function of A alone and of B alone, which makes both premises hold
exactly, while the two separated X-bands tied to distinct classes break
the conclusion by at least ``max(w, 1-w) / 5 >= 0.1`` in the pointwise
conditional residual, where ``w`` is the class-1 mass of the target
slice.  Any two levels whose noise bands are apart would do, and
neither choice moves a verdict or the margin, so both are fixed.  These
guarantees are checked on every constructed grid; a miss raises
:class:`AdversaryCheckFailed`.  ``g`` is called once per (c-cell, class).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AdversaryCheckFailed,
    PremiseViolated,
    ShapeMismatch,
    SingleClass,
)
from .grids import (
    DEFAULT_TOL,
    Axis,
    CiReport,
    DensityGrid,
    _answer,
    _as_names,
    _bin,
    _distribution,
    _groups,
    _keyed_support,
    _merged,
    _roles,
    _runs,
    is_ci,
)
from .topology import UcAssignment, _class_assignments


@dataclass(frozen=True)
class IntersectionVerdict:
    """Topological criterion result: one class per conditioning cell or not."""

    per_c_class_counts: Mapping[tuple[int, ...], int]
    holds: bool
    failing_c: tuple[int, ...] | None


@dataclass(frozen=True)
class IntersectionReport:
    """Direct evaluation of the implication on a concrete grid."""

    premise_xa: CiReport
    premise_xb: CiReport
    conclusion: CiReport
    premises_hold: bool
    implication_holds: bool
    vacuous: bool


@dataclass(frozen=True)
class WeakIntersectionReport:
    """Class-conditional conclusion: X ind (A, B) | (C, uc)."""

    holds: bool
    residual: float
    per_class: Mapping[tuple[tuple[int, ...], int], float]
    tol: float


class _Classes(NamedTuple):
    """The positive c-cells in row-major order, as bin tuples and flat keys,
    their class counts and class table, and the (c, a, b) keys of the support."""

    cells: list[tuple[int, ...]]
    keys: np.ndarray
    counts: np.ndarray
    classes: np.ndarray
    support: np.ndarray
    shape: tuple[int, int]

    def groups(self) -> list[tuple[tuple[int, ...], int]]:
        """Every (c-cell, class) in order; group g is the g-th."""
        return [(c, k + 1) for c, n in zip(self.cells, self.counts) for k in range(n)]

    def group(self, c_run: np.ndarray, a_bins: np.ndarray) -> np.ndarray:
        """The group of each support cell, given its c-cell number and a-bin."""
        first = np.cumsum(self.counts) - self.counts
        return first[c_run] + self.classes[c_run, a_bins] - 1


def classes_per_c(
    grid: DensityGrid,
    a: str | Sequence[str],
    b: str | Sequence[str],
    cond: Iterable[str] | None = None,
) -> dict[tuple[int, ...], UcAssignment]:
    """Class assignment of the (a, b) support for every conditioning cell.

    Keys are positive-mass conditioning cells, as bin tuples over the
    conditioning axes in grid order, in row-major order.  The support
    cells are read keyed by (c, a, b); the axes outside ``a``, ``b`` and
    ``cond`` are summed out.  Each assignment views a row of one class table.
    """
    found = _class_table(grid, a, b, cond)
    size = found.shape[0] * found.shape[1]
    cuts = np.searchsorted(found.support, found.keys[1:] * size)
    rows = zip(found.cells, found.counts.tolist(), np.split(found.support % size, cuts))
    return {
        c: UcAssignment(n, found.shape, ab, row)
        for (c, n, ab), row in zip(rows, found.classes)
    }


def _class_table(
    grid: DensityGrid,
    a: str | Sequence[str],
    b: str | Sequence[str],
    cond: Iterable[str] | None,
) -> _Classes:
    """The classes of :func:`classes_per_c` as one table.  The roles are
    checked on every call; :func:`_class_pass` runs once per grid."""
    return _answer(grid, _class_pass, _roles(grid, a, b, cond))


def _class_pass(
    grid: DensityGrid,
    a_pos: tuple[int, ...],
    b_pos: tuple[int, ...],
    c_pos: tuple[int, ...],
) -> _Classes:
    """:func:`_class_table` given the roles' positions; the arrays are read-only."""
    if len(a_pos) != 1 or len(b_pos) != 1:
        raise ShapeMismatch("a and b must each name one axis")
    (ia,), (ib,) = a_pos, b_pos
    keys = _keyed_support(grid, (c_pos, a_pos, b_pos))[0]
    n_a, n_b = grid.axes[ia].size, grid.axes[ib].size
    c_start, c_run = _runs(keys // (n_a * n_b))
    c_keys = keys[c_start] // (n_a * n_b)
    c_shape = [grid.axes[p].size for p in c_pos]
    c_bins = np.unravel_index(c_keys, c_shape) if c_pos else ()
    cells = np.reshape(c_bins, (len(c_pos), c_keys.size)).T.tolist()
    counts, classes = _class_assignments(
        c_run, keys // n_b % n_a, keys % n_b, c_keys.size, (n_a, n_b)
    )
    for array in (c_keys, counts, classes, keys):
        array.flags.writeable = False
    return _Classes(list(map(tuple, cells)), c_keys, counts, classes, keys, (n_a, n_b))


def intersection_condition(
    grid: DensityGrid,
    a: str | Sequence[str] = "A",
    b: str | Sequence[str] = "B",
    cond: Iterable[str] | None = None,
) -> IntersectionVerdict:
    """Decide whether the intersection property holds for every X.

    ``cond`` defaults to all axes besides ``a`` and ``b``.  The property
    holds exactly when each positive-mass conditioning cell yields at most
    one support class; the first cell with two or more classes (row-major)
    is reported as ``failing_c``.
    """
    found = _class_table(grid, a, b, cond)
    counts = dict(zip(found.cells, found.counts.tolist()))
    failing = next((cell for cell, n in counts.items() if n > 1), None)
    return IntersectionVerdict(counts, failing is None, failing)


def verify_intersection(
    grid: DensityGrid,
    x: str = "X",
    a: str | Sequence[str] = "A",
    b: str | Sequence[str] = "B",
    cond: Iterable[str] = (),
    tol: float = DEFAULT_TOL,
) -> IntersectionReport:
    """Evaluate both premises and the conclusion on a concrete grid.

    ``vacuous`` distinguishes an implication that only holds because a
    premise fails from one whose premises and conclusion all hold.
    """
    a, b, cond = _as_names(a), _as_names(b), tuple(cond)
    premise_xa = is_ci(grid, x, a, (*b, *cond), tol)
    premise_xb = is_ci(grid, x, b, (*a, *cond), tol)
    conclusion = is_ci(grid, x, (*a, *b), cond, tol)
    premises_hold = premise_xa.holds and premise_xb.holds
    implication = conclusion.holds or not premises_hold
    return IntersectionReport(
        premise_xa=premise_xa,
        premise_xb=premise_xb,
        conclusion=conclusion,
        premises_hold=premises_hold,
        implication_holds=implication,
        vacuous=implication and not premises_hold,
    )


def verify_weak_intersection(
    grid: DensityGrid,
    x: str = "X",
    a: str | Sequence[str] = "A",
    b: str | Sequence[str] = "B",
    cond: Iterable[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> WeakIntersectionReport:
    """Check the conclusion conditionally on the support class.

    Requires both premises to hold at ``tol`` (:class:`PremiseViolated`
    otherwise, meaning the weak form is not applicable).  For every
    conditioning cell c and every class i of its support, the conditional
    law of x must be constant across on-class (a, b) cells and equal to
    the class mixture obtained by summing ``p(x, a | c)`` over the class's
    a-projection and normalizing.  The report carries the worst residual
    per (c-cell, class).  The roles are the conclusion's: ``cond``
    defaults to every axis besides ``x``, ``a`` and ``b``.
    """
    a, b = _as_names(a), _as_names(b)
    x_pos, _, c_pos = _roles(grid, x, (*a, *b), cond)
    cond_names = tuple(grid.axis_names[p] for p in c_pos)
    premise_xa = is_ci(grid, x, a, (*b, *cond_names), tol)
    premise_xb = is_ci(grid, x, b, (*a, *cond_names), tol)
    if not (premise_xa.holds and premise_xb.holds):
        raise PremiseViolated(
            "premise deviations "
            f"{premise_xa.deviation!r} / {premise_xb.deviation!r} exceed {tol!r}"
        )
    per_class = _weak_residuals(grid, x_pos, a, b, cond_names)
    worst = max(per_class.values(), default=0.0)
    return WeakIntersectionReport(
        holds=worst <= tol, residual=worst, per_class=per_class, tol=tol
    )


def _weak_residuals(
    grid: DensityGrid, x_pos: tuple[int, ...], a: tuple, b: tuple, cond: tuple
) -> dict[tuple[tuple[int, ...], int], float]:
    """Weak-form residual per (c-cell, class), read from the support cells.

    On the support the class is a function of the a-bin, so each support
    cell of the (c, a, b, x) marginal gets the class of its (c, a).  An
    on-class (a, b) cell without mass at x has residual
    ``|0 - mixture(x)|``: a (c, class, x) row with fewer cells than its
    class has (a, b) cells adds ``mixture(x)``.
    """
    found = _class_table(grid, a, b, cond)
    a_pos, b_pos, c_pos = _roles(grid, a, b, cond)
    keys, mass, (_, n_a, n_b, n_x) = _keyed_support(grid, (c_pos, a_pos, b_pos, x_pos))
    cell_start, cell_run = _runs(keys // n_x)
    m_cell = np.add.reduceat(mass, cell_start)
    # the c-cells of the classes are those of the keys, in the same order
    c_run = _runs(keys // (n_a * n_b * n_x))[1]
    group = found.group(c_run, keys // (n_b * n_x) % n_a)
    rows, row_run, m_row = _groups(group * n_x + keys % n_x, mass)
    row_group = rows // n_x
    g_start = _runs(row_group)[0]
    mixture = m_row / np.add.reduceat(m_row, g_start)[row_group]
    laws = mass / m_cell[cell_run]
    worst = np.zeros(int(found.counts.sum()))
    np.maximum.at(worst, group, np.abs(laws - mixture[row_run]))
    on_class = np.bincount(group[cell_start], minlength=worst.size)
    short = np.bincount(row_run) < on_class[row_group]
    np.maximum.at(worst, row_group[short], mixture[short])
    return dict(zip(found.groups(), worst.tolist()))


def attach_class_variable(
    base: DensityGrid,
    g: Callable[[tuple[int, ...], int], float],
    noise_points: Sequence[float],
    noise_probs: Sequence[float] | None = None,
    a: str | Sequence[str] = "A",
    b: str | Sequence[str] = "B",
    name: str = "X",
) -> DensityGrid:
    """Join a new variable ``name = g(c, uc) + noise`` onto ``base``.

    ``g`` receives the conditioning cell (bin tuple over the non-(a, b)
    axes of ``base``, in grid order) and the support class index (>= 1) at
    the cell, and returns a level; it is called once per (c-cell, class).
    The new axis is placed first; its points are the distinct
    level-plus-noise values.
    """
    _require_new_axis(base, name)
    roles = _roles(base, a, b, None)
    pts = np.asarray(noise_points, dtype=float)
    if pts.size == 0:
        raise ShapeMismatch("noise points must be nonempty")
    if noise_probs is None:
        noise_probs = np.full(pts.size, 1.0 / pts.size)
    probs = np.asarray(noise_probs, dtype=float)
    if pts.shape != probs.shape:
        raise ShapeMismatch("noise points and probs must have the same length")
    _distribution(probs)
    found = _answer(base, _class_pass, roles)
    c_pos = roles[2]
    c_shape = [base.axes[p].size for p in c_pos]
    coords, (index, masses) = base._coords, base._support
    level = np.array([float(g(cell, cls)) for cell, cls in found.groups()])
    # each support cell's c-cell, a key of the classes (all keys 0 without
    # conditioning axes)
    c_flat = np.ravel_multi_index(tuple(coords[p] for p in c_pos), c_shape)
    c_run = np.searchsorted(found.keys, c_flat)
    levels = level[found.group(c_run, coords[roles[0][0]])]

    values = np.unique(np.round(levels[:, None] + pts[None, :], 9))
    x_axis = Axis(name, tuple(float(v) for v in values))
    # the new axis comes first, so a cell's flat index is x-bin * base size
    # + its flat index in base; each offset adds every support cell once,
    # and a cell adds the offsets that land on it in their order
    x_bins = [np.searchsorted(values, np.round(levels + offset, 9)) for offset in pts]
    size = int(np.prod([ax.size for ax in base.axes]))
    flat = np.concatenate([x * size + index for x in x_bins])
    weights = np.concatenate([masses * p_k for p_k in probs])
    result = _merged((x_axis, *base.axes), flat, weights)
    # every weight positive: the result has the (c, a, b) support, and so
    # the classes, of base, at positions one past base's
    if masses.min() * probs.min() > 0:
        shifted = tuple(tuple(p + 1 for p in role) for role in roles)
        result._answers[_class_pass, shifted] = found
    return result


def _require_new_axis(base: DensityGrid, name: str) -> None:
    if name in base.axis_names:
        raise ShapeMismatch(f"axis {name!r} already exists")


def construct_adversary(
    base: DensityGrid,
    target_c: Mapping[str, int] | None = None,
    a: str | Sequence[str] = "A",
    b: str | Sequence[str] = "B",
    name: str = "X",
) -> DensityGrid:
    """Build a variable violating the intersection implication on ``base``.

    ``base`` must have at least two support classes at ``target_c`` (the
    first multi-class conditioning cell is picked when none is given);
    :class:`SingleClass` otherwise, since with one class no violating
    variable exists.  The new variable is 10 on class 1 of the target cell
    and 0 elsewhere, plus noise uniform on five points of [-0.1, 0.1].
    The output joint satisfies both premises within 1e-9 and breaks the
    conclusion: the pointwise conditional residual of x vs b at the target
    cell is at least ``max(w, 1-w) / 5 >= 0.1`` with ``w`` the class-1
    mass of the target slice.  Both postconditions, and
    the failure of the conclusion, are checked before returning;
    :class:`AdversaryCheckFailed` carries the measured values otherwise.
    """
    _require_new_axis(base, name)
    cond_names = tuple(base.axis_names[p] for p in _roles(base, a, b, None)[2])
    verdict = intersection_condition(base, a, b, cond_names)
    if target_c is None:
        if verdict.holds:
            raise SingleClass("no conditioning cell has two or more classes")
        target = verdict.failing_c
    else:
        if set(target_c) != set(cond_names):
            raise ShapeMismatch(
                f"target cell must fix exactly the conditioning axes {cond_names}; "
                f"got {sorted(target_c)}"
            )
        target = tuple(_bin(base.axis(n), target_c[n]) for n in cond_names)
        count = verdict.per_c_class_counts.get(target)
        if count is None:
            raise SingleClass(f"target cell {dict(target_c)} has no positive mass")
        if count < 2:
            raise SingleClass(f"target cell has {count} class(es); need >= 2")

    def g(c_cell: tuple[int, ...], uc: int) -> float:
        return 10.0 if (c_cell == target and uc == 1) else 0.0

    noise = np.linspace(-0.1, 0.1, 5)
    result = attach_class_variable(base, g, noise, None, a, b, name)
    report = verify_intersection(result, name, a, b, cond_names, 1e-9)
    margin = is_ci(result, name, b, cond_names).pointwise_deviation
    if report.implication_holds or not margin >= 0.1 * (1.0 - 1e-9):
        xa, xb = report.premise_xa, report.premise_xb
        raise AdversaryCheckFailed(xa.deviation, xb.deviation, margin)
    return result
