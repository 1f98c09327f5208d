"""Support decomposition for pairs of grid variables.

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
kernel.  Labeling takes the support cells, as ascending flat indices, as
nodes and face neighbors as edges.  Classes take the A bins and the B
bins as nodes and the support cells as edges: neighboring cells share a
row or a column, so two cells share a class exactly when this bipartite
graph joins them (Fink 2011, *The binomial ideal of the intersection
axiom for conditional probabilities*).

The class structure induces a derived variable ``uc`` over the (A, B)
lattice: class index ``i >= 1`` on cells of class ``i``, and ``0`` on
off-support cells.  Projections of distinct classes are disjoint on both
axes, so on-support ``uc`` is simultaneously a function of the A bin alone
and of the B bin alone.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CipropError

_CHARSET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class UcAssignment:
    """Equivalence classes of components and the derived cell variable.

    ``uc`` holds class index i >= 1 on cells of class i and 0 off support;
    classes are numbered by their first cell in row-major order.
    ``proj_a`` / ``proj_b`` give each class's occupied bins per axis; the
    sets are pairwise disjoint across classes on both axes.
    """

    uc: np.ndarray
    class_count: int
    proj_a: Mapping[int, tuple[int, ...]]
    proj_b: Mapping[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        uc = np.ascontiguousarray(np.asarray(self.uc, dtype=np.int64))
        uc.flags.writeable = False
        object.__setattr__(self, "uc", uc)


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
    each component in row-major order, and the count.
    """
    u, v = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    stride = 1
    for size in reversed(shape):
        # the neighbor one step ahead along this axis, if on support and
        # not wrapped around from the axis' last bin
        ahead = cells + stride
        pos = np.searchsorted(cells, ahead)
        hit = cells.take(pos, mode="clip") == ahead
        hit &= (cells // stride) % size != size - 1
        u.append(np.flatnonzero(hit))
        v.append(pos[hit])
        stride *= size
    # node k is the k-th support cell
    roots = _roots(cells.size, np.concatenate(u), np.concatenate(v))
    is_root = roots == np.arange(cells.size)
    return np.cumsum(is_root)[roots], int(is_root.sum())


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


def _bins_of(classes: np.ndarray, count: int) -> dict[int, tuple[int, ...]]:
    return {
        cls: tuple(np.flatnonzero(classes == cls).tolist())
        for cls in range(1, count + 1)
    }


def _class_assignments(
    k: np.ndarray, i: np.ndarray, j: np.ndarray, n_c: int, shape: tuple[int, int]
) -> list[UcAssignment]:
    """Coordinate-wise classes of the (A, B) supports of ``n_c`` slices.

    Support cell m of slice ``k[m]`` sits at A bin ``i[m]`` and B bin
    ``j[m]`` of a lattice of ``shape``; every slice holds at least one.
    All slices go through one kernel call.  Slice k owns the nodes
    ``k * (nA + nB) + i`` for its A bins and ``k * (nA + nB) + nA + j`` for
    its B bins, and its support cells are the edges.  A class's root is
    its smallest A bin, which holds the class's first row-major cell, so
    ranking the roots of a slice numbers its classes by first cell.
    """
    n_a, n_b = shape
    width = n_a + n_b
    roots = _roots(n_c * width, k * width + i, k * width + n_a + j)
    roots = roots.reshape(n_c, width) - np.arange(n_c)[:, None] * width
    rows = np.zeros((n_c, n_a), dtype=bool)
    rows[k, i] = True
    cols = np.zeros((n_c, n_b), dtype=bool)
    cols[k, j] = True
    root_a = np.where(rows, roots[:, :n_a], 0)
    root_b = np.where(cols, roots[:, n_a:], 0)
    rank = np.cumsum(rows & (root_a == np.arange(n_a)), axis=1)
    cls_a = np.where(rows, np.take_along_axis(rank, root_a, axis=1), 0)
    cls_b = np.where(cols, np.take_along_axis(rank, root_b, axis=1), 0)
    uc = np.zeros((n_c, n_a, n_b), dtype=cls_a.dtype)
    uc[k, i, j] = cls_a[k, i]
    return [
        UcAssignment(uc[s], count, _bins_of(cls_a[s], count), _bins_of(cls_b[s], count))
        for s, count in enumerate(rank[:, -1].tolist())
    ]


def render_labels(labels: np.ndarray) -> str:
    """ASCII view: '.' off support, labels as 0-9A-Z (wrapping modulo 36).

    Rows are A bins from low to high coordinate, columns B bins.
    """
    labels = np.asarray(labels)
    rows = []
    for row in labels:
        rows.append(
            "".join("." if v == 0 else _CHARSET[int(v) % 36] for v in row)
        )
    return "\n".join(rows)
