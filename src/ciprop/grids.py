"""Exact finite-grid joint distributions and conditional-independence tests.

A :class:`DensityGrid` is a joint probability mass function over named,
strictly increasing real axes.  All operations are pure: grids are
frozen, share no memory with their callers' arrays, and their tables are
read-only, so values can be shared freely across threads.  A grid
answers each (x, a, cond) CI question and (a, b, cond) class question
once, and later calls reuse the answer; two threads that ask a new
question at once both compute it and store equal answers: no lock.

Conditional independence of ``X`` and ``A`` given ``C`` is measured per
conditioning cell ``c`` with ``p(c) > 0`` as the total-variation
distance between the joint conditional ``p(x, a | c)`` and the product
``p(x | c) p(a | c)``; the reported deviation is the maximum over
conditioning cells.  Positivity is exact, as for the support classes,
so the residuals and the classes agree on which cells exist.  The
deviation is a probability in ``[0, 1]``, is zero exactly when the
factorization holds cell-wise, is symmetric in the ``x`` / ``a`` roles,
and does not shrink as axes are refined (a pointwise mass residual would
scale like the cell mass itself and vanish under refinement, which makes
it useless as a dependence threshold).

The classical equivalent form ``p(x | a, c) = p(x | c)`` is exposed as a
pointwise residual (``CiReport.pointwise_deviation``) for cross-checking.
The two residuals vanish together; quantitatively, with ``pa*`` the smallest
positive conditional mass ``p(a | c)``, the pointwise form is bounded by
``2 * tv / pa*`` and the per-cell mass residual by ``2 * tv``, so verdict
agreement at tolerance ``tol`` is guaranteed on grids whose deviations are
either ~0 (exact constructions) or far above ``tol``.

A grid is its support cells: finite, positive masses that sum to 1,
checked when the grid is made.  Every grid the library builds
(pushforwards, marginals, slices, adversaries, files) is handed them;
``DensityGrid(axes, prob)`` finds them by one scan of the table it is
given, and the dense table is built from them on first read.  A query keys each support cell by its
(c, x, a) bins, merging the cells that the summed-out axes put on one
key, and sums per conditioning cell, row and column, so its cost grows
with the number of support cells, not with the grid.  A cell off the
support adds to the residuals only through the product of the margins,
which each (c, x) row sums at once: p(x | c) times the mass p(a | c) of
the a-bins the row lacks; a row that holds every a-bin of c adds
exactly 0.  The sums run in another order than over the dense table, so
deviations can differ from it in the last bits, and where residuals tie
in exact arithmetic the witness can name another of the tied cells.
Marginals and slices are summed over the support cells too, with the
same caveat.

One kernel, :func:`_sort`, orders the support cells for every keying:
queries, marginals, pushforwards, adversaries and files re-keyed on
reading.  It returns exactly the stable ``argsort`` of the keys, so each
group's masses are summed in the same order whichever way it sorts, and
results are identical.  It picks the way from the keys: keys already in
order are not sorted, few keys and keys with few descents go to
``argsort``, and all others are packed above their positions and sorted
by value.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .errors import (
    BudgetExceeded,
    CipropError,
    IndexOutOfRange,
    NegativeMass,
    NotNormalized,
    OverlappingRoles,
    ShapeMismatch,
    UnknownAxis,
    ZeroMassCondition,
)
from .jsonio import render_json

# |sum - 1| tolerance for a valid probability table.
NORM_TOL = 1e-9
# Default verdict tolerance for conditional-independence checks.
DEFAULT_TOL = 1e-9
# Most cells a grid's axes may imply: its dense table of 2^28 float64
# cells, if read, is 2 GiB.
MAX_GRID_CELLS = 2**28


@dataclass(frozen=True)
class Axis:
    """A named axis with strictly increasing grid coordinates (bin centers)."""

    name: str
    points: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise ShapeMismatch("axis name must be a nonempty string")
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ShapeMismatch(f"axis {self.name!r}: points must be nonempty")
        if not all(map(math.isfinite, pts)):
            raise ShapeMismatch(f"axis {self.name!r}: points must be finite")
        if any(not a < b for a, b in zip(pts, pts[1:])):
            raise ShapeMismatch(
                f"axis {self.name!r}: points must be strictly increasing"
            )
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.points)

    def values(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


@dataclass(frozen=True, init=False, eq=False)
class DensityGrid:
    """A joint pmf over named axes; ``prob`` is row-major over axis order.

    A grid is its support cells (``_support``: ascending flat indices and
    their finite, positive masses); ``prob``, the read-only dense table,
    is built from them by one scatter on first read.
    ``DensityGrid(axes, prob)`` scans the table once for its support cells
    and checks them as :func:`_from_support` does; the grid keeps no
    reference to the table.  A grid is equal only to itself.
    """

    axes: tuple[Axis, ...]

    def __init__(self, axes: Sequence[Axis], prob: np.ndarray) -> None:
        axes = _distinct(axes)
        shape = tuple(ax.size for ax in axes)
        flat = _shaped(prob, shape).ravel()
        self.__dict__.update(axes=axes, _support=_checked(shape, flat))

    @cached_property
    def prob(self) -> np.ndarray:
        """The dense table: 0 off the support cells."""
        index, mass = self._support
        table = np.zeros(math.prod(ax.size for ax in self.axes))
        table[index] = mass
        table.flags.writeable = False
        return table.reshape([ax.size for ax in self.axes])

    @cached_property
    def _coords(self) -> tuple[np.ndarray, ...]:
        """Per axis, the bin of every support cell, in the narrowest unsigned type."""
        shape = [ax.size for ax in self.axes]
        bins = np.unravel_index(self._support[0], shape)
        return tuple(b.astype(np.min_scalar_type(n - 1)) for b, n in zip(bins, shape))

    @cached_property
    def _answers(self) -> dict[tuple[Callable, tuple], object]:
        """Every answer computed so far, by its pass and its roles' positions."""
        return {}

    # -- axis lookup ----------------------------------------------------

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)

    def axis_index(self, name: str) -> int:
        for i, ax in enumerate(self.axes):
            if ax.name == name:
                return i
        raise UnknownAxis(f"no axis named {name!r} (have {self.axis_names})")

    def axis(self, name: str) -> Axis:
        return self.axes[self.axis_index(name)]


@dataclass(frozen=True)
class CiReport:
    """Verdict of a conditional-independence test.

    ``deviation`` is the max-over-conditioning-cells total-variation
    residual of the factorization; ``witness`` is the (x-bins, a-bins,
    cond-bins) index triple, in grid bins, of the largest single-cell
    residual inside the worst conditioning slice.  On exact ties the first
    cell in row-major order over the full slice is named, so a slice whose
    residuals are all 0 names bin 0 of every x and a axis; residuals that
    are equal in exact arithmetic may differ in the last bits, and then
    either may be named.  ``pointwise_deviation`` is the pointwise
    residual ``max |p(x | a, c) - p(x | c)|`` of the equivalent form,
    over the cells with ``p(a, c) > 0`` and ``p(c) > 0``.
    """

    holds: bool
    deviation: float
    witness: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    tol: float
    pointwise_deviation: float


def _distinct(axes: Iterable[Axis]) -> tuple[Axis, ...]:
    axes = tuple(axes)
    names = [ax.name for ax in axes]
    if len(set(names)) != len(names):
        raise ShapeMismatch(f"duplicate axis names in {names}")
    return axes


def _shaped(prob: object, shape: tuple[int, ...]) -> np.ndarray:
    """``prob`` as a float table of ``shape``; a flat table is reshaped."""
    table = np.asarray(prob, dtype=float)
    if table.ndim == 1:
        if table.size != math.prod(shape):
            raise ShapeMismatch(
                f"table has {table.size} entries, axes imply {math.prod(shape)}"
            )
        return table.reshape(shape)
    if table.shape != shape:
        raise ShapeMismatch(f"table shape {table.shape} != axes shape {shape}")
    return table


def _checked(
    shape: tuple[int, ...], mass: np.ndarray, index: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The support cells of a grid of ``shape``: ascending flat indices, masses.

    ``mass`` holds the masses at the ascending flat ``index``, or, without
    one, the row-major table, which is scanned.  Refuses, in this order,
    more than ``MAX_GRID_CELLS`` cells (``BudgetExceeded``), then, naming
    its cell, a mass that is not finite (``NotNormalized``) and the first
    most negative mass (``NegativeMass``), and last masses that do not sum
    to 1 within ``NORM_TOL`` (``NotNormalized``).  Masses of 0 are dropped.
    """
    cells = math.prod(shape)
    if cells > MAX_GRID_CELLS:
        raise BudgetExceeded(
            f"grid of {cells} cells exceeds the limit {MAX_GRID_CELLS}"
        )
    if index is None:
        # nonzero on a boolean mask is several times faster than on the
        # float table; NaN is nonzero, so it is among the cells found
        index = np.flatnonzero(mass != 0)
        mass = mass[index]

    def entry(k: int) -> str:
        return f"entry {_bins(int(index[k]), shape)} is {float(mass[k])!r}"

    finite = np.isfinite(mass)
    if not finite.all():
        raise NotNormalized(entry(int(np.argmin(finite))))
    if mass.size and float(mass.min()) < 0.0:
        raise NegativeMass(entry(int(np.argmin(mass))))
    nonzero = mass != 0
    if not nonzero.all():
        index, mass = index[nonzero], mass[nonzero]
    total = float(mass.sum())
    if not abs(total - 1.0) <= NORM_TOL:
        raise NotNormalized(f"entries sum to {total!r}, not 1")
    return index, mass


def _distribution(probs: Iterable[float]) -> None:
    """Refuse nonempty ``probs`` unless none is negative (``NegativeMass``)
    and they sum to 1 within ``NORM_TOL`` (``NotNormalized``)."""
    probs = tuple(map(float, probs))
    if min(probs) < 0.0:
        raise NegativeMass(f"negative noise probability {min(probs)!r}")
    try:
        total = math.fsum(probs)
    except OverflowError:  # finite probabilities past the largest float
        total = math.inf
    # written so that a NaN or infinite probability fails it
    if not abs(total - 1.0) <= NORM_TOL:
        raise NotNormalized(f"noise probabilities sum to {total!r}")


def _from_support(
    axes: Sequence[Axis], index: np.ndarray, mass: np.ndarray
) -> DensityGrid:
    """The grid over ``axes`` holding ``mass`` at the ascending flat ``index``.

    Every other cell holds 0, and the cells pass :func:`_checked`.  No
    table is allocated: the given cells are the grid.
    """
    axes = _distinct(axes)
    shape = tuple(ax.size for ax in axes)
    grid = object.__new__(DensityGrid)
    # fields and cached properties live in the instance dict, which frozen
    # does not guard
    grid.__dict__.update(axes=axes, _support=_checked(shape, mass, index))
    return grid


def _merged(axes: Sequence[Axis], flat: np.ndarray, weights: np.ndarray) -> DensityGrid:
    """The grid whose cells hold the ``weights`` at their ``flat`` index.

    One stable sort by :func:`_sort` merges the weights of a cell, and
    ``bincount`` adds them in their given order, as an accumulation over
    the dense table would, so the masses are bit-reproducible.
    """
    order, ordered = _sort(flat)
    start, run = _runs(ordered)
    mass = np.bincount(run, weights=weights[order])
    return _from_support(axes, ordered[start], mass)


def marginalize(grid: DensityGrid, keep: Iterable[str]) -> DensityGrid:
    """Sum out every axis not named in ``keep``; original axis order kept.

    Reads only the support cells: keyed by their kept bins, the cells
    that land on one key are summed in ascending order of their flat
    index, so masses can differ from a sum over the dense table in the
    last bits.  Keeping every axis returns ``grid`` itself.
    """
    kept = _kept(grid, keep)
    if len(kept) == len(grid.axes):
        return grid
    index, mass, _ = _keyed_support(grid, [(p,) for p in kept])
    return _from_support(tuple(grid.axes[i] for i in kept), index, mass)


def _kept(grid: DensityGrid, keep: Iterable[str]) -> tuple[int, ...]:
    """Ascending positions of the axes named in ``keep``, at least one."""
    wanted = set(_as_names(keep))
    if not wanted:
        raise ShapeMismatch("keep must name at least one axis")
    missing = wanted - set(grid.axis_names)
    if missing:
        raise UnknownAxis(f"unknown axes {sorted(missing)} (have {grid.axis_names})")
    return tuple(i for i, name in enumerate(grid.axis_names) if name in wanted)


def condition(grid: DensityGrid, fixed: Mapping[str, int]) -> DensityGrid:
    """Slice at the fixed bins and renormalize; the fixed axes are dropped."""
    if not fixed:
        return grid
    index, mass = grid._support
    at = np.ones(index.size, dtype=bool)
    for name, bin_idx in fixed.items():
        i = grid.axis_index(name)
        at &= grid._coords[i] == _bin(grid.axes[i], bin_idx)
    kept = [i for i, ax in enumerate(grid.axes) if ax.name not in fixed]
    if not kept:
        raise ShapeMismatch("conditioning on every axis leaves an empty grid")
    total = float(mass[at].sum())
    if total <= 0.0:
        raise ZeroMassCondition(f"slice {dict(fixed)} has mass {total!r}")
    axes = [grid.axes[i] for i in kept]
    bins = [grid._coords[i][at] for i in kept]
    index = np.ravel_multi_index(bins, [ax.size for ax in axes])
    return _from_support(axes, index, mass[at] / total)


def _bin(axis: Axis, value: object) -> int:
    """``value`` as a bin of ``axis``: an integer, not a bool, in [0, size)."""
    # int() would also take 1.5, True and "1"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ShapeMismatch(f"bin {value!r} of axis {axis.name!r} is not an integer")
    if not 0 <= value < axis.size:
        raise IndexOutOfRange(
            f"bin {value} out of range for axis {axis.name!r} (size {axis.size})"
        )
    return int(value)


def _as_names(spec: str | Iterable[str]) -> tuple[str, ...]:
    if isinstance(spec, str):
        return (spec,)
    return tuple(spec)


_Witness = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _roles(
    grid: DensityGrid,
    x: str | Sequence[str],
    a: str | Sequence[str],
    cond: Iterable[str] | None,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Positions of the x, a and conditioning axes, each in grid order; every
    query resolves its roles here.  ``cond=None`` is every other axis."""
    x_names, a_names = _as_names(x), _as_names(a)
    if cond is None:
        cond = [n for n in grid.axis_names if n not in {*x_names, *a_names}]
    c_names = _as_names(cond)
    if not x_names or not a_names:
        raise ShapeMismatch("x and a must each name at least one axis")
    roles = (*x_names, *a_names, *c_names)
    if len(set(roles)) != len(roles):
        raise OverlappingRoles(f"roles overlap: x={x_names} a={a_names} cond={c_names}")
    position = {ax.name: i for i, ax in enumerate(grid.axes)}
    missing = set(roles) - position.keys()
    if missing:
        raise UnknownAxis(f"unknown axes {sorted(missing)} (have {grid.axis_names})")
    return tuple(
        tuple(sorted(position[n] for n in names))
        for names in (x_names, a_names, c_names)
    )


# Fewer keys than this are sorted by argsort: packing them costs more than
# sorting them by value saves.
_SMALL_SORT = 512
# Keys with at most one descent per this many keys are nearly sorted: they
# are few runs, which TimSort merges in about linear time.  Packed instead,
# they made example1_fine's op_ms_p50 worse in 12 of 13 benchmark pairs (see
# CHANGES.md), though descents do not measure how much the runs interleave.
_RUN_LENGTH = 256


def _sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sorting permutation of nonnegative integer ``keys``, and
    the sorted keys.

    The permutation is ``np.argsort(keys, kind="stable")``, so cells that
    share a key keep their order.  Keys already in order are not sorted.
    Fewer than ``_SMALL_SORT`` keys, and keys with at most one descent per
    ``_RUN_LENGTH`` keys, are sorted by ``argsort``, whose TimSort costs
    O(n + n log r) for r runs.  Every other key is packed above its
    position, ``key << bits | position``, and the packed values are sorted
    by ``np.sort``, several times faster than ``argsort`` on scrambled keys;
    the positions are distinct and ascending within a key, so the order is
    the same.  Raises ``BudgetExceeded`` if keys to pack need more than 63
    bits with their positions.
    """
    n = keys.size
    if n >= _SMALL_SORT:
        descents = np.count_nonzero(keys[1:] < keys[:-1])
        if not descents:
            return np.arange(n), keys
        if descents * _RUN_LENGTH > n:
            shift = (n - 1).bit_length()
            width = int(keys.max()).bit_length()
            if width + shift > 63:
                raise BudgetExceeded(
                    f"keys of {width} bits above {shift} position bits "
                    "exceed 63 bits"
                )
            packed = keys.astype(np.int64) << shift
            packed |= np.arange(n)
            packed.sort()
            order = packed & ((1 << shift) - 1)
            packed >>= shift
            return order, packed.astype(keys.dtype, copy=False)
    order = keys.argsort(kind="stable")
    return order, keys[order]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start of each run of equal sorted ``keys``, and each key's run number."""
    edge = np.empty(keys.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    start = bounds[:-1]
    return start, np.arange(start.size).repeat(bounds[1:] - start)


def _groups(
    keys: np.ndarray, mass: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending distinct ``keys``, each key's group and each group's mass.

    The sort is stable, so a group's masses are summed in their order.
    """
    order, ordered = _sort(keys)
    start, run = _runs(ordered)
    group = np.empty_like(run)
    group[order] = run
    return ordered[start], group, np.add.reduceat(mass[order], start)


def _keyed_support(
    grid: DensityGrid, roles: Sequence[tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The support cells of the marginal on the axes of ``roles``, keyed.

    Each role flattens its axes row-major in the order given, and a key
    runs row-major over the roles.  Returns the ascending distinct keys,
    their masses and the size of each role.  Summing out the other axes
    lands several cells on one key; one sort merges them.
    """
    shape = [ax.size for ax in grid.axes]
    axes = [p for role in roles for p in role]
    keys = np.ravel_multi_index(
        tuple(grid._coords[p] for p in axes), tuple(shape[p] for p in axes)
    )
    sizes = [math.prod(shape[p] for p in role) for role in roles]
    if len(axes) < len(shape):
        keys, _, mass = _groups(keys, grid._support[1])
        return keys, mass, sizes
    order, keys = _sort(keys)
    return keys, grid._support[1][order], sizes


def _bins(flat: int, shape: Sequence[int]) -> tuple[int, ...]:
    """The bins of row-major cell ``flat`` of a lattice of ``shape``."""
    bins = []
    for size in reversed(shape):
        flat, i = divmod(flat, size)
        bins.append(i)
    return tuple(reversed(bins))


def _answer(grid: DensityGrid, run: Callable, roles: tuple) -> Any:
    """``run(grid, *roles)``, computed once per grid and kept in its
    ``_answers`` by ``run`` and the sorted axis positions of the roles."""
    answers = grid._answers
    if (run, roles) not in answers:
        answers[run, roles] = run(grid, *roles)
    return answers[run, roles]


def _ci_pass(
    grid: DensityGrid,
    x_pos: tuple[int, ...],
    a_pos: tuple[int, ...],
    c_pos: tuple[int, ...],
) -> tuple[float, float, _Witness]:
    """:func:`is_ci`'s deviation, pointwise residual and witness, given the
    axis positions of the roles.

    Reads only the support cells.  With j = p(x, a | c) and
    q = p(x | c) p(a | c), a cell off the support of a (c, x) row whose
    a-bin holds mass in c has residual q, so the row's off-support cells
    add p(x | c) (sum of p(a | c) over c's a-bins - the sum over the row's);
    a row that holds every a-bin of c adds exactly 0.  Likewise the
    pointwise residual of such a cell is p(x | c).  The witness comes from
    the residuals of the worst conditioning cell over its occupied x and a
    bins; every other cell of its slice has residual 0.  The long sums,
    over the cells of a conditioning cell, a row or a column, are
    pairwise, as numpy's dense sums are.
    """
    keys, mass, (_, n_x, n_a) = _keyed_support(grid, (c_pos, x_pos, a_pos))
    c_start, c_run = _runs(keys // (n_x * n_a))
    m_c = np.add.reduceat(mass, c_start)
    row_start, row_run = _runs(keys // n_a)
    row_c = c_run[row_start]
    px = np.add.reduceat(mass, row_start) / m_c[row_c]
    # (c, a) columns, ascending, so those of each c are contiguous
    cols, col_run, m_col = _groups(c_run * n_a + keys % n_a, mass)
    col_c = cols // n_a
    pa = m_col / m_c[col_c]
    pa_cell = pa[col_run]
    resid = np.abs(mass / m_c[c_run] - px[row_run] * pa_cell)
    # a row is full when it holds as many cells as c has occupied a-bins
    c_cols = np.bincount(col_c)
    full = np.bincount(row_run) == c_cols[row_c]
    off = px * (
        np.bincount(col_c, weights=pa)[row_c] - np.add.reduceat(pa_cell, row_start)
    )
    off[full] = 0.0
    tv = np.add.reduceat(resid, c_start) + np.bincount(row_c, weights=off)
    tv *= 0.5
    pointwise = max(
        float(np.abs(mass / m_col[col_run] - px[row_run]).max()),
        float(px[~full].max(initial=0.0)),
    )
    # the worst slice over its occupied bins, where an off-support cell has q
    k = int(tv.argmax())
    at = slice(c_start[k], c_start[k + 1] if k + 1 < c_start.size else keys.size)
    r_lo, a_lo = row_run[at.start], int(c_cols[:k].sum())
    box = np.multiply.outer(px[row_c == k], pa[a_lo : a_lo + c_cols[k]])
    box[row_run[at] - r_lo, col_run[at] - a_lo] = resid[at]
    i, j = divmod(int(box.argmax()), box.shape[1])
    shape = [ax.size for ax in grid.axes]
    if box[i, j] > 0:
        x_key = int(keys[row_start[r_lo + i]]) // n_a % n_x
        x_idx = _bins(x_key, [shape[p] for p in x_pos])
        a_idx = _bins(int(cols[a_lo + j]) % n_a, [shape[p] for p in a_pos])
    else:  # every residual of the full slice is 0: its first cell
        x_idx, a_idx = (0,) * len(x_pos), (0,) * len(a_pos)
    c_key = int(keys[c_start[k]]) // (n_x * n_a)
    c_idx = _bins(c_key, [shape[p] for p in c_pos])
    return float(tv[k]), pointwise, (x_idx, a_idx, c_idx)


def is_ci(
    grid: DensityGrid,
    x: str | Sequence[str],
    a: str | Sequence[str],
    cond: Iterable[str] = (),
    tol: float = DEFAULT_TOL,
) -> CiReport:
    """Test ``x`` independent of ``a`` given ``cond`` at tolerance ``tol``.

    The one way to a CI answer: the roles are checked on every call, and a
    grid answers each (x, a, cond) question once; later calls, with any
    ``tol`` or order of names within a role, reuse the answer.
    """
    # written so that a NaN tolerance fails it
    if not tol > 0:
        raise ShapeMismatch(f"tol must be positive, got {tol!r}")
    dev, pointwise, witness = _answer(grid, _ci_pass, _roles(grid, x, a, cond))
    return CiReport(
        holds=dev <= tol,
        deviation=dev,
        witness=witness,
        tol=tol,
        pointwise_deviation=pointwise,
    )


# -- file format ---------------------------------------------------------


def grid_to_json(grid: DensityGrid) -> str:
    """Serialize the axes and the cells with mass, 17 significant digits.

    ``"index"`` lists the ascending row-major flat indices of the cells of
    nonzero mass over the axes in grid order and ``"mass"`` their masses;
    every other cell holds 0.  The digits round-trip float64 exactly, and
    equal grids give byte-identical documents.
    """
    index, mass = grid._support
    return render_json(
        {
            "axes": [
                {"name": ax.name, "points": list(ax.points)} for ax in grid.axes
            ],
            "index": index.tolist(),
            "mass": mass.tolist(),
        }
    )


def save_grid(grid: DensityGrid, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grid_to_json(grid))


def _numbers(values: object, field: str) -> list:
    """``values`` if it is a list of JSON numbers; ``ShapeMismatch`` otherwise."""
    # numpy and float() read "0.5" and true as numbers, and bool is an int
    if not isinstance(values, list) or not {*map(type, values)} <= {int, float}:
        raise ShapeMismatch(f"{field!r} entries must be numbers")
    return values


def _sparse(index: object, mass: object, cells: int) -> tuple[np.ndarray, ...]:
    """The checked ``index`` and ``mass`` lists of a sparse document."""
    if not isinstance(index, list) or not isinstance(mass, list):
        raise ShapeMismatch("'index' and 'mass' must be lists")
    if len(index) != len(mass):
        raise ShapeMismatch(
            f"'index' has {len(index)} entries, 'mass' has {len(mass)}"
        )
    # bool is an int subclass, and numpy would read true as 1
    if any(type(i) is not int for i in index):
        raise ShapeMismatch("'index' entries must be integers")
    try:
        flat = np.array(index, dtype=np.int64)
    except OverflowError:
        raise ShapeMismatch("an 'index' entry does not fit in int64") from None
    if flat.size and not (
        flat[0] >= 0 and flat[-1] < cells and bool(np.all(flat[1:] > flat[:-1]))
    ):
        raise ShapeMismatch(
            f"'index' entries must be strictly increasing in [0, {cells})"
        )
    return flat, np.array(_numbers(mass, "mass"), dtype=float)


def grid_from_json(text: str) -> DensityGrid:
    """Parse a grid document, with its axes in alphabetical order.

    Reads the sparse ``"index"`` / ``"mass"`` lists that ``grid_to_json``
    writes, the grid's support cells, or a dense ``"prob"`` list of every
    cell in row-major order; a document holds exactly one of the two.
    Numbers must be JSON numbers that fit a float, not strings or
    booleans.  Axes implying more than ``MAX_GRID_CELLS`` cells raise
    ``BudgetExceeded`` before any table is allocated.
    """
    doc = json.loads(text)
    try:
        axes = tuple(
            Axis(a["name"], tuple(_numbers(a["points"], "points")))
            for a in doc["axes"]
        )
        if ("prob" in doc) == ("index" in doc):
            raise ShapeMismatch("a grid holds exactly one of 'prob' and 'index'")
        cells = math.prod(ax.size for ax in axes)
        if cells > MAX_GRID_CELLS:
            raise BudgetExceeded(
                f"grid of {cells} cells exceeds the limit {MAX_GRID_CELLS}"
            )
        if "prob" in doc:
            table = np.array(_numbers(doc["prob"], "prob"), dtype=float)
        else:
            index, mass = _sparse(doc["index"], doc["mass"], cells)
    except CipropError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed grid document: {exc}") from exc
    shape = tuple(ax.size for ax in _distinct(axes))
    order = sorted(range(len(axes)), key=lambda i: axes[i].name)
    alphabetical = tuple(axes[i] for i in order)
    if "prob" in doc:
        return DensityGrid(alphabetical, _shaped(table, shape).transpose(order))
    if order != list(range(len(axes))):  # re-key the cells alphabetically
        bins = np.unravel_index(index, shape)
        index = np.ravel_multi_index(
            [bins[i] for i in order], [shape[i] for i in order]
        )
        by_index, index = _sort(index)
        mass = mass[by_index]
    return _from_support(alphabetical, index, mass)


def load_grid(path: str) -> DensityGrid:
    with open(path, "r", encoding="utf-8") as fh:
        return grid_from_json(fh.read())
