"""Support decomposition for pairs of grid axes.

The support of an (A, B) slice is the set of its cells of positive mass.
This module labels the path-connected components of a support (cells
sharing an edge are neighbors) and merges components into equivalence
classes under coordinate-wise connection: two components are directly
connected when their projections onto the A axis intersect or their
projections onto the B axis intersect, and classes are the transitive
closure of that relation.  The slices of every conditioning cell come
from :func:`ciprop.intersection.classes_per_c`, which reads them from
the grid's support cells, keyed by (c, a, b).

Both questions are connected components of a graph, answered by one
kernel.  Labeling takes the maximal runs of support cells along the last
axis as nodes, and joins two runs of neighboring rows whose bins overlap.
Classes take the occupied (c, a) columns and (c, b) rows of the support
as nodes and the support cells as edges: neighboring cells share a row
or a column, so two cells share a class exactly when this bipartite
graph joins them (Fink 2011, *The binomial ideal of the intersection
axiom for conditional probabilities*).  Nothing in it is sized by the
axes, so a role may be a group of axes, its bins flattened row-major.

The class structure induces a derived variable ``uc`` over the (A, B)
lattice: class index ``i >= 1`` on cells of class ``i``, and ``0`` on
off-support cells.  Projections of distinct classes are disjoint on both
axes, so on-support ``uc`` is simultaneously a function of the A bin alone
and of the B bin alone.  The kernel returns the class of each support
cell, which callers gather from; :class:`UcAssignment` holds one slice's
cells and classes and builds its projections and ``uc`` on demand.  Only
this module reads that layout: other modules ask a ``UcAssignment`` for
a table, and :func:`_slice_components` for the components of its slices.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CipropError

_CHARSET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class UcAssignment:
    """The classes of one slice's support.

    Classes are numbered by their first cell in row-major order.  The
    slice's support cells are ``_cells``, ascending flat indices
    ``a * nB + b``, and ``_labels`` holds the class of each.  Built on
    first read: ``proj_a`` / ``proj_b``, each class's bins per axis
    (disjoint across classes), and ``uc``, class i on cells of class i
    and 0 off support.
    """

    class_count: int
    _shape: tuple[int, int]
    _cells: np.ndarray
    _labels: np.ndarray

    @cached_property
    def proj_a(self) -> Mapping[int, tuple[int, ...]]:
        return _projection(self._labels, self._cells // self._shape[1], self._shape[0])

    @cached_property
    def proj_b(self) -> Mapping[int, tuple[int, ...]]:
        return _projection(self._labels, self._cells % self._shape[1], self._shape[1])

    def _table(self, values: np.ndarray) -> np.ndarray:
        """A new table of the slice: ``values``, one per support cell, on the
        support and 0 off it."""
        table = np.zeros(self._shape, dtype=np.int64)
        table.flat[self._cells] = values
        return table

    def _uc(self) -> np.ndarray:
        """A new ``uc`` table, for a caller that drops it after use."""
        return self._table(self._labels)

    @cached_property
    def uc(self) -> np.ndarray:
        uc = self._uc()
        uc.flags.writeable = False
        return uc


def _projection(
    labels: np.ndarray, bins: np.ndarray, size: int
) -> dict[int, tuple[int, ...]]:
    """Each class's bins, ascending, from the class and bin of each cell."""
    label, bins = np.divmod(np.unique(labels * size + bins), size)
    cuts = np.flatnonzero(np.diff(label)) + 1
    return {k: tuple(p.tolist()) for k, p in enumerate(np.split(bins, cuts), 1)}


def _roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest node id in each node's component; nodes 0..n-1, edges u[k]-v[k].

    Min-label hooking with pointer jumping (Shiloach and Vishkin 1982):
    each round hooks every tree root onto the smallest root across its
    edges, then compresses the forest to depth one.  A round that does
    not finish merges at least two trees, so ``n`` rounds always suffice.
    """
    parent = np.arange(n)
    for _ in range(n + 1):
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return parent
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
    raise CipropError(f"components of {n} nodes did not converge in {n} rounds")


def _components(cells: np.ndarray, shape: Sequence[int]) -> tuple[np.ndarray, int]:
    """Face-neighbor components of the ascending row-major ``cells`` of a lattice.

    Returns each cell's component, 1..count, numbered by the first cell of
    each component in row-major order, and the count.  The nodes are the
    maximal runs of cells along the last axis, and two runs in neighboring
    rows are joined when their bins overlap: run-based labeling (He, Chao
    and Suzuki 2008, *A run-based two-scan labeling algorithm*) with one
    union.  Runs are numbered in row-major order, so a component's smallest
    run holds its first cell.
    """
    n_last = shape[-1] if len(shape) else 1
    # a run begins where the flat indices jump or a row begins
    begin = np.flatnonzero((np.diff(cells, prepend=-2) != 1) | (cells % n_last == 0))
    starts, lengths = cells[begin], np.diff(begin, append=cells.size)
    ends = starts + lengths - 1
    u, v = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    stride = n_last
    for size in reversed(shape[:-1]):
        # the runs lo..hi-1 of the row one step ahead along this axis
        # overlap this run's bins, unless that row wrapped around
        lo = np.searchsorted(ends, starts + stride)
        hi = np.searchsorted(starts, ends + stride, side="right")
        count = np.where((starts // stride) % size == size - 1, 0, hi - lo)
        u.append(np.repeat(np.arange(starts.size), count))
        v.append(np.arange(count.sum()) - np.repeat(count.cumsum() - count - lo, count))
        stride *= size
    roots = _roots(starts.size, np.concatenate(u), np.concatenate(v))
    is_root = roots == np.arange(starts.size)
    return np.repeat(np.cumsum(is_root)[roots], lengths), int(is_root.sum())


def _slice_components(
    assignments: dict[tuple[int, ...], UcAssignment],
) -> tuple[list[np.ndarray], list[int]]:
    """Each slice's component labels of its support cells and its count of
    components, by one labelling of the slices stacked along A with an empty
    row after each, so that no face joins two; numbered by first cell, a
    slice's labels run on from the largest label before it."""
    slices = list(assignments.values())
    n_a, n_b = slices[0]._shape
    stride = (n_a + 1) * n_b
    cells = np.concatenate([asg._cells + k * stride for k, asg in enumerate(slices)])
    labels = _components(cells, (len(slices) * (n_a + 1), n_b))[0]
    ends = np.cumsum([asg._cells.size for asg in slices])
    top = np.maximum.accumulate(labels)[ends - 1]
    before = np.append(0, top[:-1])
    parts = zip(np.split(labels, ends[:-1]), before)
    return [p - b for p, b in parts], (top - before).tolist()


def label_support_nd(support: np.ndarray) -> tuple[np.ndarray, int]:
    """Path-connected components of an n-D boolean lattice.

    Two cells are neighbors when they differ by one step on exactly one
    axis, the n-D analogue of sharing an edge: a continuous positive path
    crossing a fine grid induces positive cells that share edges, while
    corner contact does not imply a path through the support.  Returns
    (labels, count) with 0 off support and 1..count on it, numbered by
    each component's first cell in row-major order.
    """
    support = np.asarray(support, dtype=bool)
    cells = np.flatnonzero(support)
    labels = np.zeros(support.size, dtype=np.int64)
    labels[cells], count = _components(cells, support.shape)
    return labels.reshape(support.shape), count


def _class_assignments(
    col: np.ndarray, row: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise classes of support cells, given their columns and rows.

    Support cell m sits in column ``col[m]`` and row ``row[m]``; the cells
    come in row-major order, so the columns ascend, and the columns and
    the rows are each numbered 0, 1, ... with none empty.  The columns,
    then the rows, are the nodes and the cells the edges.  A class's root
    is its smallest column, which holds the class's first row-major cell,
    so ranking the roots numbers the classes by first cell.  Returns each
    cell's class, 0, 1, ..., and whether each column is a class's root.
    """
    n_col = int(col[-1]) + 1
    roots = _roots(n_col + int(row.max()) + 1, col, n_col + row)[:n_col]
    is_root = roots == np.arange(n_col)
    return (np.cumsum(is_root) - 1)[roots[col]], is_root


def render_labels(labels: np.ndarray) -> str:
    """ASCII view: '.' off support, labels as 0-9A-Z (wrapping modulo 36).

    Rows are A bins from low to high coordinate, columns B bins.
    """
    labels = np.asarray(labels, dtype=np.int64)
    text = np.where(labels == 0, ".", np.array(list(_CHARSET))[labels % 36])
    return "\n".join("".join(row) for row in text.tolist())
