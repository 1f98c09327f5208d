"""Supports, path components, and coordinate-wise equivalence classes."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.ndimage

from ciprop import (
    Axis,
    DensityGrid,
    OverlappingRoles,
    classes_per_c,
    example1,
    example1_alternative,
    label_support_nd,
    propagate,
    render_labels,
)
from ciprop.topology import _components

import layouts
import oracles


def random_mask(rng, rows, cols, density=0.4):
    return rng.random((rows, cols)) < density


def canonical_relabel(labels):
    """Renumber labels by first appearance in row-major order."""
    labels = np.asarray(labels)
    mapping = {}
    out = np.zeros_like(labels)
    for i, j in np.argwhere(labels > 0):
        v = labels[i, j]
        if v not in mapping:
            mapping[v] = len(mapping) + 1
        out[i, j] = mapping[v]
    return out


def unionfind_labels(cells, order):
    """Order-independent labeling via union-find over a shuffled cell order."""
    cells = np.asarray(cells, dtype=bool)
    parent = {}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def union(c, d):
        rc, rd = find(c), find(d)
        if rc != rd:
            parent[rd] = rc

    for cell in order:
        parent[cell] = cell
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    for i, j in order:
        for di, dj in steps:
            n = (i + di, j + dj)
            if n in parent:
                union((i, j), n)
    labels = np.zeros(cells.shape, dtype=np.int64)
    roots = {}
    for i, j in sorted(parent):
        r = find((i, j))
        if r not in roots:
            roots[r] = len(roots) + 1
        labels[i, j] = roots[r]
    return canonical_relabel(labels)


# -- supports ------------------------------------------------------------------
#
# A support is the set of cells of positive mass, read off the classes:
# ``uc > 0`` exactly there.


def support_of(grid, a, b, cond, cell):
    return classes_per_c(grid, a, b, cond)[cell].uc > 0


def test_all_positive_grid_gives_full_mask():
    g = layouts.mask_grid_uniform(np.ones((3, 3), dtype=bool))
    assert support_of(g, "A", "B", (), ()).all()


def test_mask_matches_per_cell_threshold():
    rng = np.random.default_rng(2)
    table = rng.random((4, 5)) * (rng.random((4, 5)) > 0.5)
    table[2, :] = 0.0  # force an all-zero row
    table[0, 0] = 1e-300  # exact positivity: a tiny mass is support
    table /= table.sum()
    g = DensityGrid(
        (
            Axis("A", tuple(float(k) for k in range(4))),
            Axis("B", tuple(float(k) for k in range(5))),
        ),
        table,
    )
    cells = support_of(g, "A", "B", (), ())
    assert np.array_equal(cells, g.prob > 0)
    assert cells[0, 0] and not cells[2].any()


def test_mask_marginalizes_other_axes_and_slices_fixed_ones():
    # grid over (X, A, B, C): the support at a c-cell is that of sum_x p(x, a, b, c)
    rng = np.random.default_rng(8)
    table = rng.random((2, 3, 3, 2)) * (rng.random((2, 3, 3, 2)) > 0.4)
    table /= table.sum()
    g = DensityGrid(
        (
            Axis("X", (0.0, 1.0)),
            Axis("A", (0.0, 1.0, 2.0)),
            Axis("B", (0.0, 1.0, 2.0)),
            Axis("C", (0.0, 1.0)),
        ),
        table,
    )
    for c in (0, 1):
        ref = table.sum(axis=0)[:, :, c]
        assert np.array_equal(support_of(g, "A", "B", ("C",), (c,)), ref > 0)


def test_mask_orientation_follows_requested_roles():
    table = np.zeros((2, 3))
    table[0, 2] = 1.0
    g = DensityGrid(
        (Axis("A", (0.0, 1.0)), Axis("B", (0.0, 1.0, 2.0))), table
    )
    swapped = classes_per_c(g, "B", "A", ())[()]
    assert swapped.uc.shape == (3, 2)
    assert np.array_equal(swapped.uc > 0, table.T > 0)
    assert swapped.proj_a == {1: (2,)} and swapped.proj_b == {1: (0,)}


def test_mask_errors():
    g = layouts.mask_grid_uniform(np.ones((2, 2), dtype=bool))
    with pytest.raises(OverlappingRoles):
        classes_per_c(g, "A", "A", ())
    with pytest.raises(OverlappingRoles):
        classes_per_c(g, "A", "B", ("A",))
    # a conditioning cell without mass has no support and gets no entry
    table = np.zeros((2, 2, 2))
    table[:, :, 0] = 0.25
    g3 = DensityGrid(
        (Axis("A", (0.0, 1.0)), Axis("B", (0.0, 1.0)), Axis("C", (0.0, 1.0))),
        table,
    )
    assert list(classes_per_c(g3, "A", "B", ("C",))) == [(0,)]


# -- path components ---------------------------------------------------------


def test_full_and_empty_masks():
    assert label_support_nd(np.ones((4, 4), dtype=bool))[1] == 1
    assert label_support_nd(np.zeros((4, 4), dtype=bool))[1] == 0


def test_labels_are_canonical_row_major():
    cells = np.array(
        [
            [0, 0, 1],
            [1, 0, 1],
            [1, 0, 0],
        ],
        dtype=bool,
    )
    labels, count = label_support_nd(cells)
    # first support cell in row-major order is (0,2): that component is 1
    assert count == 2
    assert labels[0, 2] == 1 and labels[1, 2] == 1
    assert labels[1, 0] == 2 and labels[2, 0] == 2


def test_adjacency_rule_on_diagonal_contact():
    cells = np.array([[1, 0], [0, 1]], dtype=bool)
    assert label_support_nd(cells)[1] == 2


def test_components_against_recursive_oracle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        cells = random_mask(rng, 9, 11, density=rng.uniform(0.2, 0.8))
        got = label_support_nd(cells)[1]
        assert got == oracles.flood_recursive(cells.tolist())


def test_components_against_scipy():
    rng = np.random.default_rng(17)
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for _ in range(40):
        cells = random_mask(rng, 12, 12, density=rng.uniform(0.2, 0.8))
        _, n4 = scipy.ndimage.label(cells, structure=four)
        assert label_support_nd(cells)[1] == n4


def test_labeling_is_visit_order_independent():
    rng = np.random.default_rng(29)
    for _ in range(20):
        cells = random_mask(rng, 8, 8)
        order = [tuple(c) for c in np.argwhere(cells)]
        rng.shuffle(order)
        ref = unionfind_labels(cells, order)
        got = label_support_nd(cells)[0]
        assert np.array_equal(got, ref)


def test_seven_block_layout_component_counts():
    cells = layouts.seven_block_mask()
    assert label_support_nd(cells)[1] == 7
    assert oracles.flood_recursive(cells.tolist(), 4) == 7


# -- coordinate-wise classes -------------------------------------------------


def test_single_component_single_class():
    asg = layouts.mask_classes(np.ones((3, 3), dtype=bool))
    assert asg.class_count == 1
    assert np.array_equal(asg.uc, np.ones((3, 3)))


def test_class_variable_is_a_read_only_int64_table():
    asg = layouts.mask_classes(layouts.seven_block_mask())
    uc = asg.uc
    assert uc is asg.uc
    assert uc.dtype == np.int64 and uc.flags.c_contiguous
    with pytest.raises(ValueError):
        uc[0, 0] = 5


def test_chain_of_overlaps_merges_transitively():
    # components 1 and 3 overlap nothing directly; 2 bridges them
    cells = np.zeros((6, 6), dtype=bool)
    cells[0, 0:2] = True  # rows {0}, cols {0,1}
    cells[2, 1:3] = True  # rows {2}, cols {1,2}  (col 1 shared with comp 1)
    cells[4, 2:4] = True  # rows {4}, cols {2,3}  (col 2 shared with comp 2)
    assert label_support_nd(cells)[1] == 3
    asg = layouts.mask_classes(cells)
    assert asg.class_count == 1


def test_two_diagonal_blocks_stay_separate():
    asg = layouts.mask_classes(layouts.two_block_mask())
    assert asg.class_count == 2
    assert asg.proj_a[1] == (0, 1, 2) and asg.proj_a[2] == (3, 4, 5)


def test_seven_block_layout_classes():
    asg = layouts.mask_classes(layouts.seven_block_mask())
    assert asg.class_count == 3
    # chained class spans blocks 1, 2, 3
    assert asg.proj_a[1] == (0, 1, 4, 5)
    assert asg.proj_b[1] == (0, 1, 4, 5)
    assert asg.proj_a[2] == (2, 3)
    assert asg.proj_b[2] == (2, 3, 7, 8)
    assert asg.proj_a[3] == (7, 8)
    assert asg.proj_b[3] == (6, 9)


def test_classes_against_bipartite_oracle():
    rng = np.random.default_rng(43)
    for _ in range(60):
        cells = random_mask(
            rng, rng.integers(2, 9), rng.integers(2, 9), density=rng.uniform(0.2, 0.7)
        )
        labels, count = label_support_nd(cells)
        ref = oracles.classes_bipartite(labels.tolist(), count)
        if not cells.any():
            # no mass, so no grid to read classes from: none to compare
            assert count == ref == 0
            continue
        assert layouts.mask_classes(cells).class_count == ref


def test_class_projections_are_disjoint():
    rng = np.random.default_rng(47)
    for _ in range(40):
        cells = random_mask(rng, 7, 7)
        asg = layouts.mask_classes(cells)
        for proj in (asg.proj_a, asg.proj_b):
            seen = set()
            for cls, bins in proj.items():
                assert not (seen & set(bins))
                seen |= set(bins)


def test_uc_is_a_function_of_each_coordinate_alone():
    rng = np.random.default_rng(53)
    for _ in range(30):
        cells = random_mask(rng, 6, 8)
        asg = layouts.mask_classes(cells)
        for i in range(6):
            row = asg.uc[i][asg.uc[i] > 0]
            assert len(set(row.tolist())) <= 1
        for j in range(8):
            col = asg.uc[:, j][asg.uc[:, j] > 0]
            assert len(set(col.tolist())) <= 1
        # uc is 0 exactly off support, and on it names the class whose
        # projections hold the cell: uc lies in proj_a x proj_b
        assert np.array_equal(asg.uc > 0, cells)
        for i, j in np.argwhere(cells):
            v = int(asg.uc[i, j])
            assert i in asg.proj_a[v] and j in asg.proj_b[v]


def test_adding_a_cell_merges_or_adds_one_class():
    rng = np.random.default_rng(59)
    for _ in range(40):
        cells = random_mask(rng, 6, 6)
        off = np.argwhere(~cells)
        if len(off) == 0:
            continue
        old = layouts.mask_classes(cells)
        grown = cells.copy()
        i, j = off[rng.integers(len(off))]
        grown[i, j] = True
        new = layouts.mask_classes(grown)
        assert new.class_count <= old.class_count + 1
        # the old partition only coarsens: same-class cells stay together
        for cls in range(1, old.class_count + 1):
            values = {int(v) for v in new.uc[old.uc == cls]}
            assert len(values) == 1


def test_all_3x3_masks_as_conditioning_cells():
    # every 3x3 mask is the support of one C cell of a single (A, B, C) grid,
    # so all of them go through one kernel call with per-cell node offsets;
    # mask 0 is a zero-mass C cell and gets no entry
    rng = np.random.default_rng(67)
    masks = np.array(
        [[(bits >> k) & 1 for k in range(9)] for bits in range(512)], dtype=bool
    ).reshape(512, 3, 3)
    table = np.where(masks, rng.uniform(0.5, 1.5, masks.shape), 0.0)
    table = np.moveaxis(table / table.sum(), 0, -1)
    g = DensityGrid(
        tuple(Axis(n, tuple(float(k) for k in range(s))) for n, s in
              (("A", 3), ("B", 3), ("C", 512))),
        table,
    )
    per = classes_per_c(g, "A", "B")
    dense = oracles.classes_reference(g, "A", "B", ("C",))
    assert list(per) == list(dense) == [(c,) for c in range(1, 512)]
    for (c,), asg in per.items():
        cells = masks[c]
        assert np.array_equal(asg.uc > 0, cells)
        labels, count = label_support_nd(cells)
        assert count == oracles.flood_recursive(cells.tolist())
        assert asg.class_count == oracles.classes_bipartite(labels.tolist(), count)
        alone = dense[(c,)]
        assert np.array_equal(asg.uc, alone.uc)
        assert asg.proj_a == alone.proj_a and asg.proj_b == alone.proj_b


def long_path_masks(n):
    """A one-cell-wide staircase and a serpentine, with flipped copies."""
    stair = np.zeros((n, n), dtype=bool)
    steps = np.arange(n)
    stair[steps, steps] = True
    stair[steps[:-1], steps[:-1] + 1] = True
    snake = np.zeros((n, n), dtype=bool)
    snake[::2, :] = True
    snake[1::4, -1] = True
    snake[3::4, 0] = True
    return {
        "staircase": stair,
        "staircase flipped": stair[::-1].copy(),
        "serpentine": snake,
        "serpentine by columns": snake.T.copy(),
    }


def test_long_paths_against_scipy():
    four = scipy.ndimage.generate_binary_structure(2, 1)
    for name, cells in long_path_masks(500).items():
        ref, count = scipy.ndimage.label(cells, structure=four)
        labels, got = label_support_nd(cells)
        assert count == 1 and got == 1, name
        assert np.array_equal(labels, ref), name
        assert layouts.mask_classes(cells).class_count == 1, name
        # one cell out of the middle of the path leaves two components
        cut = cells.copy()
        cut[tuple(np.argwhere(cells)[cells.sum() // 2])] = False
        ref, count = scipy.ndimage.label(cut, structure=four)
        labels, got = label_support_nd(cut)
        assert count == 2 and np.array_equal(labels, ref), name
        assert layouts.mask_classes(cut).class_count == oracles.classes_bipartite(
            labels.tolist(), got
        ), name


# -- n-dimensional labeling ---------------------------------------------------


def test_nd_labeling_on_separated_blobs():
    support = np.zeros((4, 4, 4), dtype=bool)
    support[:2, :2, :2] = True
    support[3, 3, 3] = True
    labels, count = label_support_nd(support)
    assert count == 2
    assert labels[0, 0, 0] == 1 and labels[3, 3, 3] == 2


def test_nd_labeling_against_scipy():
    rng = np.random.default_rng(61)
    cases = [((4,) * ndim, 0.5) for ndim in (2, 3, 4)]
    # non-cubic lattices with long runs along the last axis
    cases += [(shape, density) for shape in ((3, 41), (2, 5, 23), (4, 3, 2, 19))
              for density in (0.9, 0.97)]
    for shape, density in cases:
        structure = scipy.ndimage.generate_binary_structure(len(shape), 1)
        for _ in range(15):
            support = rng.random(shape) < density
            ref, count = scipy.ndimage.label(support, structure=structure)
            labels, got = label_support_nd(support)
            assert got == count, shape
            assert np.array_equal(labels, ref), shape


def run_edge_masks():
    """Supports at the edges of the run kernel, by name."""
    def mask(rows):
        return np.array(rows, dtype=bool)

    wrap = np.zeros((2, 3, 4), dtype=bool)
    wrap[0, 2] = wrap[1, 0] = True  # rows (0, 2) and (1, 0) are flat neighbors
    deep = np.zeros((2, 2, 3, 2), dtype=bool)
    deep[0, 1, 2] = deep[1, 0, 0] = True  # wraps on axes 1 and 2 at once
    deep[0, 0, 2, 1] = True
    return {
        "row end, next row start": mask([[0, 0, 1, 1], [1, 0, 0, 0]]),
        "row end, next row start, 3-D": mask([[[0, 1], [0, 1]], [[1, 0], [1, 1]]]),
        "last axis of size 1": mask([[1], [1], [0], [1]]),
        "last axis of size 1, 3-D": mask([[[1], [0]], [[1], [1]], [[0], [1]]]),
        "1-D": mask([1, 1, 0, 1, 1, 1, 0, 0, 1]),
        "1-D full": mask([1, 1, 1]),
        "0-d on": mask(True),
        "0-d off": mask(False),
        "one run over many": mask([[1, 1, 1, 1, 1, 1, 1], [1, 0, 1, 0, 1, 0, 1]]),
        "many runs over one": mask([[1, 0, 1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1, 1]]),
        "many over one over many": mask(
            [[1, 0, 1, 0, 1], [0, 1, 1, 1, 0], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1]]
        ),
        "touch at one end bin": mask([[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]]),
        "touch at the other end bin": mask([[0, 0, 1, 1, 1], [1, 1, 1, 0, 0]]),
        "ends meet diagonally": mask([[1, 1, 0, 0], [0, 0, 1, 1]]),
        "leading axis wraps": wrap,
        "two leading axes wrap": deep,
    }


@pytest.mark.parametrize("name", run_edge_masks())
def test_run_kernel_edges_against_scipy(name):
    support = run_edge_masks()[name]
    structure = scipy.ndimage.generate_binary_structure(support.ndim, 1)
    ref, count = scipy.ndimage.label(support, structure=structure)
    labels, got = label_support_nd(support)
    assert got == count
    assert labels.shape == support.shape and np.array_equal(labels, ref)


@pytest.mark.parametrize(
    "model, step", [(example1, 0.01), (example1_alternative, 0.02)],
    ids=["chain-0.01", "fork-0.02"],
)
def test_joint_components_against_csgraph(model, step):
    # the support graph at scale, built from coordinates and labelled by scipy
    grid = propagate(model(step))
    cells, shape = grid._support[0], [ax.size for ax in grid.axes]
    ref, count = oracles.components_csgraph(cells, shape)
    labels, got = _components(cells, shape)
    assert count == got == 2
    assert np.array_equal(labels, ref)


@pytest.mark.parametrize(
    "seed", [None, 1, 2, 3, 4], ids=["chain-0.01", *(f"sliced-{k}" for k in range(1, 5))]
)
def test_classes_against_csgraph(seed):
    # every c-cell's bipartite (A bin, B bin) graph, labelled by scipy
    if seed is None:
        grid, cond = propagate(example1(0.01)), ("X",)
    else:
        grid, cond = layouts.sliced_grid(np.random.default_rng(seed)), ("C1", "C2")
    classes = classes_per_c(grid, "A", "B", cond)
    ref = oracles.classes_csgraph(grid, "A", "B", cond)
    assert list(classes) == list(ref)
    n_a, n_b = grid.axis("A").size, grid.axis("B").size
    for cell, asg in classes.items():
        count, bins = ref[cell]
        assert asg.class_count == count
        # each cell has the class of its A bin and of its B bin
        assert np.array_equal(asg._labels, bins[asg._cells // n_b])
        assert np.array_equal(asg._labels, bins[n_a + asg._cells % n_b])
        for proj, cls in ((asg.proj_a, bins[:n_a]), (asg.proj_b, bins[n_a:])):
            assert proj == {
                k: tuple(np.flatnonzero(cls == k).tolist()) for k in range(1, count + 1)
            }
    # given X each c-cell of the example holds one class; the bands of the
    # sliced grids make several
    most = max(asg.class_count for asg in classes.values())
    assert most == 1 if seed is None else most >= 2


# -- rendering ----------------------------------------------------------------


def test_render_labels():
    cells = np.array([[1, 0], [0, 1]], dtype=bool)
    assert render_labels(label_support_nd(cells)[0]) == "1.\n.2"
