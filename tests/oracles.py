"""Independent reference implementations used to cross-check the library.

The first group is written in plain Python (dicts, recursion, Fractions)
on purpose: no shared code paths with the package, so agreement is
meaningful.  Grids are represented there as (names, shape, mass) where
mass maps index tuples to floats.

The last group works on package grids: the axis flattening that grouped
roles are checked against, the per-bin and per-cell loops that the
package replaced with array code, the pushforward and the marginals
accumulated over the whole dense table, and the CI residuals, classes and
weak-form residuals over every bin of the full grid.  The package builds
its grids and sums the residuals and the classes over the support cells;
these dense sums are kept as references for those paths.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from ciprop import (
    Axis,
    DensityGrid,
    NonConstancyReport,
    OverlappingRoles,
    ShapeMismatch,
    ZeroMassCondition,
    non_descendants,
)
from ciprop.sem import _configurations
from ciprop.topology import UcAssignment, _class_assignments


def dict_grid(names, table):
    """Convert a nested-list / ndarray-like table to the dict representation."""
    names = tuple(names)
    shape = []
    probe = table
    for _ in names:
        shape.append(len(probe))
        probe = probe[0]
    mass = {}
    for idx in product(*[range(s) for s in shape]):
        v = table
        for i in idx:
            v = v[i]
        mass[idx] = float(v)
    return names, tuple(shape), mass


def o_marginal(names, shape, mass, keep):
    keep = [n for n in names if n in set(keep)]
    pos = [names.index(n) for n in keep]
    out = {}
    for idx, v in mass.items():
        key = tuple(idx[p] for p in pos)
        out[key] = out.get(key, 0.0) + v
    new_shape = tuple(shape[p] for p in pos)
    return tuple(keep), new_shape, out


def o_condition(names, shape, mass, fixed):
    rest = [n for n in names if n not in fixed]
    pos = [names.index(n) for n in rest]
    total = 0.0
    out = {}
    for idx, v in mass.items():
        if all(idx[names.index(n)] == b for n, b in fixed.items()):
            key = tuple(idx[p] for p in pos)
            out[key] = out.get(key, 0.0) + v
            total += v
    if total <= 0.0:
        raise ZeroDivisionError("zero-mass slice")
    return tuple(rest), tuple(shape[p] for p in pos), {
        k: v / total for k, v in out.items()
    }


def o_ci_tv(names, shape, mass, x, a, cond):
    """Max-over-conditioning-cells TV between joint and product conditionals."""
    x = (x,) if isinstance(x, str) else tuple(x)
    a = (a,) if isinstance(a, str) else tuple(a)
    cond = tuple(cond)
    xp = [names.index(n) for n in names if n in x]
    ap = [names.index(n) for n in names if n in a]
    cp = [names.index(n) for n in names if n in cond]
    slices = {}
    for idx, v in mass.items():
        key = tuple(idx[p] for p in cp)
        slices.setdefault(key, []).append((idx, v))
    worst = 0.0
    for _, items in slices.items():
        m_c = sum(v for _, v in items)
        if m_c <= 0.0:
            continue
        joint, px, pa = {}, {}, {}
        for idx, v in items:
            xk = tuple(idx[p] for p in xp)
            ak = tuple(idx[p] for p in ap)
            joint[(xk, ak)] = joint.get((xk, ak), 0.0) + v / m_c
            px[xk] = px.get(xk, 0.0) + v / m_c
            pa[ak] = pa.get(ak, 0.0) + v / m_c
        tv = 0.5 * sum(
            abs(joint.get((xk, ak), 0.0) - px[xk] * pa[ak])
            for xk in px
            for ak in pa
        )
        worst = max(worst, tv)
    return worst


def o_ci_exact(table):
    """Fraction-exact CI verdict of X vs A given B on a 2x2x2 table.

    ``table[x][a][b]`` holds Fractions; CI holds iff
    p(x,a,b) * p(b) == p(x,b) * p(a,b) for every cell with p(b) > 0.
    """
    p_b = [sum(table[x][a][b] for x in range(2) for a in range(2)) for b in range(2)]
    p_xb = [
        [sum(table[x][a][b] for a in range(2)) for b in range(2)] for x in range(2)
    ]
    p_ab = [
        [sum(table[x][a][b] for x in range(2)) for b in range(2)] for a in range(2)
    ]
    for x in range(2):
        for a in range(2):
            for b in range(2):
                if p_b[b] > 0 and table[x][a][b] * p_b[b] != p_xb[x][b] * p_ab[a][b]:
                    return False
    return True


def flood_recursive(cells, adjacency=4):
    """Recursive (depth-first) component labeling; second implementation."""
    rows = len(cells)
    cols = len(cells[0]) if rows else 0
    seen = [[False] * cols for _ in range(rows)]
    if adjacency == 4:
        steps = ((-1, 0), (1, 0), (0, -1), (0, 1))
    else:
        steps = tuple(
            (di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)
        )

    def visit(i, j):
        seen[i][j] = True
        for di, dj in steps:
            ni, nj = i + di, j + dj
            if 0 <= ni < rows and 0 <= nj < cols and cells[ni][nj] and not seen[ni][nj]:
                visit(ni, nj)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, rows * cols + 100))
    try:
        count = 0
        for i in range(rows):
            for j in range(cols):
                if cells[i][j] and not seen[i][j]:
                    count += 1
                    visit(i, j)
    finally:
        sys.setrecursionlimit(old_limit)
    return count


def components_csgraph(cells, shape):
    """Face-neighbor components of the ascending flat ``cells`` of a lattice.

    The edges come from each cell's coordinates: the neighbor one step
    ahead on each axis, kept when ``np.isin`` finds it among the cells.
    scipy's graph traversal labels them, so no code is shared with the
    package's run kernel.  Returns the labels, 1..count numbered by each
    component's first cell in row-major order, and the count.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    coords = np.unravel_index(cells, shape)
    u, v = [], []
    for axis, size in enumerate(shape):
        ahead = list(coords)
        ahead[axis] = coords[axis] + 1
        inside = np.flatnonzero(ahead[axis] < size)
        flat = np.ravel_multi_index([c[inside] for c in ahead], shape)
        hit = np.isin(flat, cells, assume_unique=True)
        u.append(inside[hit])
        v.append(flat[hit])
    # node k is the k-th cell; a neighbor's node is its rank among the cells
    nodes, rank = np.unique(np.concatenate([cells, *v]), return_inverse=True)
    assert np.array_equal(nodes, cells)
    u, v, n = np.concatenate(u), rank[cells.size :], cells.size
    graph = coo_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    count, found = connected_components(graph, directed=False)
    first = np.unique(found, return_index=True)[1]
    number = np.empty(count, dtype=np.int64)
    number[np.argsort(first)] = np.arange(1, count + 1)
    return number[found], count


def classes_csgraph(grid, a, b, cond):
    """Classes of every positive conditioning cell, labelled by scipy.

    Each support cell's bins come from ``np.unravel_index`` of its flat
    index, and ``np.unique`` keeps the distinct (c, a, b) rows.  In each
    c-cell the A bins are the nodes 0..nA-1 and the B bins nA..nA+nB-1,
    each (a, b) cell is an edge, and scipy's graph traversal labels them,
    so no code is shared with the package's hooking kernel.  Classes are
    renumbered by their first cell in row-major order.  Returns, per
    c-cell in row-major order, the class count and the class of each A
    bin, then of each B bin, 0 off support.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    shape = [ax.size for ax in grid.axes]
    coords = np.unravel_index(grid._support[0], shape)
    c_pos = [p for p, name in enumerate(grid.axis_names) if name in cond]
    ia, ib = grid.axis_index(a), grid.axis_index(b)
    n_a, n_b = shape[ia], shape[ib]
    dims = [shape[p] for p in (*c_pos, ia, ib)]
    flat = np.ravel_multi_index([coords[p] for p in (*c_pos, ia, ib)], dims)
    rows = np.stack(np.unravel_index(np.unique(flat), dims), axis=1)
    cut = np.flatnonzero(np.any(rows[1:, :-2] != rows[:-1, :-2], axis=1)) + 1
    found = {}
    for block in np.split(rows, cut):
        i, j = block[:, -2], block[:, -1]
        graph = coo_matrix(
            (np.ones(i.size), (i, n_a + j)), shape=(n_a + n_b, n_a + n_b)
        )
        label = connected_components(graph, directed=False)[1]
        # the rows are in row-major (a, b) order, so a component's first
        # row is its first cell
        seen, first = np.unique(label[i], return_index=True)
        number = np.zeros(n_a + n_b, dtype=np.int64)
        number[seen[np.argsort(first)]] = np.arange(1, seen.size + 1)
        classes = np.zeros(n_a + n_b, dtype=np.int64)
        classes[i], classes[n_a + j] = number[label[i]], number[label[n_a + j]]
        found[tuple(block[0, :-2].tolist())] = (seen.size, classes)
    return found


def classes_bipartite(labels, count):
    """Class count via BFS on the component graph with projection-overlap edges."""
    rows = {k: set() for k in range(1, count + 1)}
    cols = {k: set() for k in range(1, count + 1)}
    for i, row in enumerate(labels):
        for j, v in enumerate(row):
            if v:
                rows[v].add(i)
                cols[v].add(j)
    adjacent = {
        k: {
            m
            for m in range(1, count + 1)
            if m != k and (rows[k] & rows[m] or cols[k] & cols[m])
        }
        for k in range(1, count + 1)
    }
    seen = set()
    classes = 0
    for k in range(1, count + 1):
        if k in seen:
            continue
        classes += 1
        frontier = [k]
        seen.add(k)
        while frontier:
            cur = frontier.pop()
            for nxt in adjacent[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return classes


def topo_naive(nodes, parents):
    """Quadratic topological sort: repeatedly emit the smallest ready name."""
    remaining = set(nodes)
    done = set()
    order = []
    while remaining:
        ready = sorted(
            n for n in remaining if all(p in done for p in parents.get(n, ()))
        )
        if not ready:
            raise ValueError("cycle")
        order.append(ready[0])
        done.add(ready[0])
        remaining.remove(ready[0])
    return order


def descendants_closure(nodes, parents):
    """node -> set of descendants, via iterated expansion of the child map."""
    children = {n: set() for n in nodes}
    for n in nodes:
        for p in parents.get(n, ()):
            children[p].add(n)
    desc = {n: set(children[n]) for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            extra = set()
            for d in desc[n]:
                extra |= desc[d]
            if not extra <= desc[n]:
                desc[n] |= extra
                changed = True
    return desc


# -- references on package grids -----------------------------------------------


def flatten_axes(grid, names, new_name):
    """Merge several axes into one product axis.

    The merged axis sits at the position of the first named axis and runs
    row-major over the constituents in grid order; its coordinates are the
    synthetic values 0, 1, 2, ... (bin enumeration).
    """
    group = (names,) if isinstance(names, str) else tuple(names)
    if len(group) < 2:
        raise ShapeMismatch("flattening needs at least two axes")
    if len(set(group)) != len(group):
        raise OverlappingRoles(f"duplicate axes in {group}")
    positions = sorted(grid.axis_index(n) for n in group)
    keep_group = [grid.axes[i].name for i in positions]
    others = [ax.name for ax in grid.axes if ax.name not in group]
    if new_name in others:
        raise ShapeMismatch(f"axis {new_name!r} already exists")
    first = positions[0]
    before = [n for n in others if grid.axis_index(n) < first]
    after = [n for n in others if grid.axis_index(n) > first]
    perm = tuple(grid.axis_index(n) for n in (*before, *keep_group, *after))
    table = np.transpose(grid.prob, perm)
    merged = int(np.prod([grid.axis(n).size for n in keep_group]))
    shape = (
        tuple(grid.axis(n).size for n in before)
        + (merged,)
        + tuple(grid.axis(n).size for n in after)
    )
    axes = (
        tuple(grid.axis(n) for n in before)
        + (Axis(new_name, tuple(float(k) for k in range(merged))),)
        + tuple(grid.axis(n) for n in after)
    )
    return DensityGrid(axes, table.reshape(shape))


def propagate_reference(sem):
    """The pushforward accumulated over the dense table of the output grid.

    One ``bincount`` over every cell of the grid adds the probabilities of
    the noise configurations that land on a cell in enumeration order.
    """
    axes, flat_index, weights = _configurations(sem)
    cells = int(np.prod([ax.size for ax in axes]))
    table = np.bincount(flat_index, weights=weights, minlength=cells)
    return DensityGrid(axes, table)


def marginalize_reference(grid, keep):
    """The marginal on ``keep`` summed over the dense table."""
    kept = [i for i, name in enumerate(grid.axis_names) if name in set(keep)]
    drop = tuple(i for i in range(len(grid.axes)) if i not in kept)
    return DensityGrid(tuple(grid.axes[i] for i in kept), grid.prob.sum(axis=drop))


def non_constancy_reference(sem, node, parent, grid):
    """Prop 4 witness search, one group and one parent bin at a time.

    For each conditioning set, the groups of the marginal are scanned in
    row-major order with ``np.ndindex``, and the mechanism is evaluated on
    scalars for every positive parent bin of a group.  A group whose
    outputs span more than 1e-9 names its first least and first greatest.
    """
    candidates = sorted(non_descendants(sem.dag, node) - {parent})
    mech = sem.mechanisms[node]
    parent_order = sem.dag.parents[node]
    others = tuple(p for p in parent_order if p != parent)

    def scalar(parent_bin, group_bins):
        values, bins = {}, {}
        for p in parent_order:
            b = parent_bin if p == parent else group_bins[p]
            bins[p] = np.asarray(b)
            values[p] = np.asarray(float(sem.axes[p].points[b]))
        return float(mech.evaluate(values, bins, parent_order))

    witnesses, failing = {}, None
    cond_sets = [
        cset
        for size in range(len(candidates) + 1)
        for cset in combinations(candidates, size)
    ]
    for cset in cond_sets:
        keep = (parent,) + tuple(dict.fromkeys(others + cset))
        marg = marginalize_reference(grid, keep)
        j_pos = marg.axis_index(parent)
        group_axes = [i for i in range(len(marg.axes)) if i != j_pos]
        found = None
        for group_idx in np.ndindex(*(marg.axes[i].size for i in group_axes)):
            slicer = [slice(None)] * len(marg.axes)
            for pos, val in zip(group_axes, group_idx):
                slicer[pos] = val
            j_bins = np.flatnonzero(marg.prob[tuple(slicer)] > 0)
            if j_bins.size < 2:
                continue
            group_bins = dict(zip((marg.axes[i].name for i in group_axes), group_idx))
            outputs = [scalar(int(jb), group_bins) for jb in j_bins]
            if max(outputs) - min(outputs) > 1e-9:
                j_axis = marg.axis(parent)
                lo, hi = outputs.index(min(outputs)), outputs.index(max(outputs))
                found = (
                    float(j_axis.points[int(j_bins[lo])]),
                    float(j_axis.points[int(j_bins[hi])]),
                    {k: grid.axis(k).points[group_bins[k]] for k in others},
                    {c: grid.axis(c).points[group_bins[c]] for c in cset},
                )
                break
        if found is None:
            failing = cset
            break
        witnesses[cset] = found
    return NonConstancyReport(node, parent, failing is None, witnesses, failing)


def attach_reference(base, assignments, g, noise_points, noise_probs, a, b, name):
    """Join ``name = g(c, uc) + noise``, calling ``g`` once per support cell."""
    pts = np.asarray(noise_points, dtype=float)
    if noise_probs is None:
        probs = np.full(pts.size, 1.0 / pts.size)
    else:
        probs = np.asarray(noise_probs, dtype=float)
    a_pos, b_pos = base.axis_index(a), base.axis_index(b)
    cond_pos = [i for i, n in enumerate(base.axis_names) if n not in (a, b)]
    cells = np.argwhere(base.prob > 0)
    levels = np.empty(len(cells))
    for row, idx in enumerate(cells):
        c_cell = tuple(int(idx[p]) for p in cond_pos)
        uc = int(assignments[c_cell].uc[idx[a_pos], idx[b_pos]])
        levels[row] = float(g(c_cell, uc))
    values = np.unique(np.round(levels[:, None] + pts[None, :], 9))
    out = np.zeros((values.size,) + base.prob.shape)
    masses = base.prob[tuple(cells.T)]
    for offset, p_k in zip(pts, probs):
        x_idx = np.searchsorted(values, np.round(levels + offset, 9))
        out[(x_idx, *cells.T)] += masses * p_k
    return DensityGrid((Axis(name, tuple(float(v) for v in values)), *base.axes), out)


def ci_reference(grid, x, a, cond=()):
    """CI residuals over every bin of the full grid.

    Returns ``(deviation, witness, pointwise, residuals)``: the worst
    total-variation residual over conditioning cells of positive mass,
    the (x-bins, a-bins, cond-bins) witness (first maximum in row-major
    order of the worst slice), the pointwise residual, and per valid
    conditioning cell its full residual table over (x axes..., a axes...).
    """
    x_names = (x,) if isinstance(x, str) else tuple(x)
    a_names = (a,) if isinstance(a, str) else tuple(a)
    c_names = tuple(cond)
    roles = (*x_names, *a_names, *c_names)
    sub = marginalize_reference(grid, roles)
    x_ord = tuple(n for n in sub.axis_names if n in x_names)
    a_ord = tuple(n for n in sub.axis_names if n in a_names)
    c_ord = tuple(n for n in sub.axis_names if n in c_names)
    perm = tuple(sub.axis_index(n) for n in (*c_ord, *x_ord, *a_ord))
    arr = np.transpose(sub.prob, perm)
    c_shape = arr.shape[: len(c_ord)]
    x_shape = arr.shape[len(c_ord) : len(c_ord) + len(x_ord)]
    a_shape = arr.shape[len(c_ord) + len(x_ord) :]
    flat = arr.reshape(
        int(np.prod(c_shape, dtype=int)) if c_ord else 1,
        int(np.prod(x_shape, dtype=int)),
        int(np.prod(a_shape, dtype=int)),
    )
    masses = flat.sum(axis=(1, 2))
    valid = np.flatnonzero(masses > 0)
    if valid.size == 0:
        raise ZeroMassCondition("no conditioning cell has positive mass")
    sub, masses = flat[valid], masses[valid]

    tv, resid = tv_residual(sub, masses)
    k = int(np.argmax(tv))
    cell = np.unravel_index(int(np.argmax(resid[k])), resid[k].shape)
    c_cells = [
        tuple(int(v) for v in np.unravel_index(int(c), c_shape)) if c_shape else ()
        for c in valid
    ]
    x_idx = tuple(int(v) for v in np.unravel_index(int(cell[0]), x_shape))
    a_idx = tuple(int(v) for v in np.unravel_index(int(cell[1]), a_shape))
    point = pointwise_residual(sub, masses)

    residuals = {
        c: r.reshape(x_shape + a_shape) for c, r in zip(c_cells, resid)
    }
    return float(tv[k]), (x_idx, a_idx, c_cells[k]), point, residuals


def ci_by_slice(grid, x, a, cond):
    """CI residuals one conditioning cell at a time, from the support cells.

    The support cells are grouped by their conditioning bins (``np.unique``
    of their ``np.unravel_index`` bins); each positive c-cell's dense
    |x| x |a| block is summed by ``bincount``, in batches of about 2**21
    cells, and scored by :func:`tv_residual` and :func:`pointwise_residual`,
    so no table of the whole grid is built.  Returns ``(deviation, pointwise,
    c_cell, residuals)``: the worst total-variation residual, the pointwise
    residual, the bins of the worst c-cell (the first, on ties) and its
    residual table over (x axes..., a axes...).
    """
    names = grid.axis_names
    shape = [ax.size for ax in grid.axes]
    bins = np.unravel_index(grid._support[0], shape)

    def flat(role):
        role = [names.index(n) for n in sorted(role, key=names.index)]
        sizes = [shape[i] for i in role]
        key = np.ravel_multi_index([bins[i] for i in role], sizes) if role else 0
        return np.broadcast_to(key, grid._support[0].shape), sizes

    (x_key, x_shape), (a_key, a_shape) = flat([x]), flat([a])
    c_key, c_shape = flat(cond)
    c_keys, slice_of = np.unique(c_key, return_inverse=True)
    n_x, n_a = math.prod(x_shape), math.prod(a_shape)
    block = n_x * n_a
    by_slice = np.argsort(slice_of, kind="stable")
    cell = ((slice_of * n_x + x_key) * n_a + a_key)[by_slice]
    mass = grid._support[1][by_slice]
    step = max(1, (1 << 21) // block)
    cuts = np.searchsorted(slice_of[by_slice], np.arange(0, c_keys.size + step, step))
    best, point, worst = -1.0, 0.0, None
    for lo, start, end in zip(range(0, c_keys.size, step), cuts, cuts[1:]):
        hi = min(lo + step, c_keys.size)
        sub = np.bincount(
            cell[start:end] - lo * block, weights=mass[start:end],
            minlength=(hi - lo) * block,
        ).reshape(hi - lo, n_x, n_a)
        masses = sub.sum(axis=(1, 2))
        tv, resid = tv_residual(sub, masses)
        point = max(point, pointwise_residual(sub, masses))
        k = int(np.argmax(tv))
        if tv[k] > best:
            best, worst = float(tv[k]), (lo + k, resid[k])
    c_cell = np.unravel_index(int(c_keys[worst[0]]), c_shape) if c_shape else ()
    residuals = worst[1].reshape(x_shape + a_shape)
    return best, point, tuple(int(v) for v in c_cell), residuals


def tv_residual(sub, masses):
    """Dense total-variation residuals of a (c, x, a) stack of slices.

    ``sub`` holds the masses of the conditioning cells of positive mass,
    ``masses`` their totals.  Returns the residual per conditioning cell
    and the table of |p(x, a | c) - p(x | c) p(a | c)| over every cell.
    """
    slices = sub / masses[:, None, None]
    px = slices.sum(axis=2)
    pa = slices.sum(axis=1)
    resid = np.abs(slices - px[:, :, None] * pa[:, None, :])
    return 0.5 * resid.sum(axis=(1, 2)), resid


def pointwise_residual(sub, masses):
    """Dense max |p(x | a, c) - p(x | c)| over the cells with p(a, c) > 0."""
    px_c = sub.sum(axis=2) / masses[:, None]
    m_ac = sub.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        px_ac = sub / m_ac[:, None, :]
    resid = np.abs(px_ac - px_c[:, :, None])
    resid[~np.broadcast_to((m_ac > 0)[:, None, :], resid.shape)] = 0.0
    return float(resid.max())


def _dense_by_c(grid, axes, cond):
    """One marginal over ``axes`` and ``cond``, every bin kept, as (C..., *axes).

    Returns the table with the conditioning axes first (in grid order) and
    the positive-mass conditioning cells in row-major order.
    """
    sub = marginalize_reference(grid, (*axes, *cond))
    c_ord = tuple(n for n in sub.axis_names if n in cond)
    table = np.transpose(sub.prob, [sub.axis_index(n) for n in (*c_ord, *axes)])
    positive = table.sum(axis=tuple(range(len(c_ord), table.ndim))) > 0
    return table, [tuple(int(v) for v in idx) for idx in np.argwhere(positive)]


def classes_reference(grid, a, b, cond):
    """Classes of every positive conditioning cell on the dense layout.

    Each cell's (a, b) slice over every bin goes through the class kernel
    on its own.
    """
    table, cells = _dense_by_c(grid, (a, b), tuple(cond))
    return {cell: _slice_classes(table[cell] > 0) for cell in cells}


def _slice_classes(mask):
    """Classes of one (a, b) support mask through the class kernel, its
    occupied A and B bins numbered by ``np.unique``."""
    cells = np.flatnonzero(mask)
    col, row = (np.unique(bins, return_inverse=True)[1] for bins in np.nonzero(mask))
    group, is_root = _class_assignments(col, row)
    return UcAssignment(int(is_root.sum()), mask.shape, cells, group + 1)


def weak_reference(grid, x, a, b, cond):
    """Weak-form residual per (c-cell, class) on the dense (C..., x, a, b) layout."""
    table, cells = _dense_by_c(grid, (x, a, b), tuple(cond))
    per_class = {}
    for cell in cells:
        block = table[cell]
        assignment = _slice_classes(block.sum(axis=0) > 0)
        for cls in range(1, assignment.class_count + 1):
            a_bins = np.asarray(assignment.proj_a[cls], dtype=int)
            mixture = block[:, a_bins, :].sum(axis=(1, 2))
            mixture = mixture / mixture.sum()
            cols = block[:, assignment.uc == cls]
            cond_laws = cols / cols.sum(axis=0)
            per_class[(cell, cls)] = float(np.abs(cond_laws - mixture[:, None]).max())
    return per_class
