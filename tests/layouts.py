"""Support layouts and seeded grids shared across test modules."""

from __future__ import annotations

import numpy as np


def two_block_mask(n=6):
    """Two diagonal blocks: the archetypal two-class support."""
    cells = np.zeros((n, n), dtype=bool)
    half = n // 2
    cells[:half, :half] = True
    cells[half:, half:] = True
    return cells


def seven_block_mask():
    """10x10 layout with 7 components merging into exactly 3 classes.

    Class 1 chains three blocks through pairwise projection overlaps
    (the outer two share nothing directly, exercising transitivity);
    class 2 shares rows only; class 3 lives on isolated columns.  The
    corner contacts at (1,1)/(2,2), (1,4)/(2,3), and (3,3)/(4,4) join no
    blocks, since cells touching only at a corner are not connected.
    """
    cells = np.zeros((10, 10), dtype=bool)
    cells[0:2, 0:2] = True  # block 1: class 1
    cells[0:2, 4:6] = True  # block 2: class 1 (shares rows with 1)
    cells[4:6, 4:6] = True  # block 3: class 1 (shares cols with 2)
    cells[2:4, 2:4] = True  # block 4: class 2
    cells[2:4, 7:9] = True  # block 5: class 2 (shares rows with 4)
    cells[7:9, 6] = True    # block 6: class 3
    cells[7:9, 9] = True    # block 7: class 3 (shares rows with 6)
    return cells


def mask_grid_uniform(cells, a_name="A", b_name="B"):
    """Uniform-mass grid over the true cells of a boolean mask."""
    from ciprop import Axis, DensityGrid

    cells = np.asarray(cells, dtype=bool)
    table = cells.astype(float)
    table /= table.sum()
    axes = (
        Axis(a_name, tuple(float(k) for k in range(cells.shape[0]))),
        Axis(b_name, tuple(float(k) for k in range(cells.shape[1]))),
    )
    return DensityGrid(axes, table)


def mask_classes(cells):
    """Classes of the support ``cells``, read from its uniform-mass grid."""
    from ciprop import classes_per_c

    return classes_per_c(mask_grid_uniform(cells), "A", "B", ())[()]


def gapped_grid(rng, names_sizes, zero_frac=0.4):
    """Random grid over index axes with whole bins of every axis left empty.

    Besides the empty bins, each cell is empty with probability ``zero_frac``.
    """
    from ciprop import Axis, DensityGrid

    shape = tuple(s for _, s in names_sizes)
    while True:
        table = rng.random(shape) * (rng.random(shape) > zero_frac)
        for axis, size in enumerate(shape):
            index = [slice(None)] * len(shape)
            index[axis] = rng.random(size) < 0.35
            table[tuple(index)] = 0.0
        if table.sum() > 0:
            axes = tuple(
                Axis(n, tuple(float(k) for k in range(s))) for n, s in names_sizes
            )
            return DensityGrid(axes, table / table.sum())


def tiny_cell_grid():
    """(A, B, C) grid whose cell C=1 holds 1e-13 on two diagonal blocks.

    C=0 is uniform, one class; C=1 has two classes.  A positivity cutoff
    above 1e-13 would drop C=1 from the CI checks but not from the classes.
    """
    from ciprop import Axis, DensityGrid

    table = np.zeros((2, 2, 2))
    table[:, :, 0] = (1.0 - 1e-13) / 4.0
    table[0, 0, 1] = table[1, 1, 1] = 0.5e-13
    return DensityGrid(tuple(Axis(n, (0.0, 1.0)) for n in "ABC"), table)
