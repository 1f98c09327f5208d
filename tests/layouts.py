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


def tiny_cell_grid(mass=1e-13):
    """(A, B, C) grid whose cell C=1 holds ``mass`` on two diagonal blocks.

    C=0 is uniform, one class; C=1 has two classes.  A positivity cutoff
    above ``mass`` would drop C=1 from the CI checks but not from the classes.
    """
    from ciprop import Axis, DensityGrid

    table = np.zeros((2, 2, 2))
    table[:, :, 0] = (1.0 - mass) / 4.0
    table[0, 0, 1] = table[1, 1, 1] = mass / 2.0
    return DensityGrid(tuple(Axis(n, (0.0, 1.0)) for n in "ABC"), table)


def sliced_grid(rng, n_c1=3, n_c2=4, n_a=8, n_b=9):
    """(A, B, C1, C2) grid: each c-cell holds 0 to 3 random bands, some none.

    A band is a random rectangle of the (A, B) slice, each of its cells
    with mass with probability 0.7; a c-cell without bands has no mass.
    """
    from ciprop import Axis, DensityGrid

    table = np.zeros((n_a, n_b, n_c1, n_c2))
    for c1, c2 in np.ndindex(n_c1, n_c2):
        for _ in range(int(rng.integers(4))):
            a0, b0 = rng.integers(n_a - 1), rng.integers(n_b - 1)
            a1, b1 = a0 + rng.integers(1, 4), b0 + rng.integers(1, 4)
            block = table[a0:a1, b0:b1, c1, c2]
            block += rng.random(block.shape) * (rng.random(block.shape) < 0.7)
    table[0, 0, 0, 0] += 0.5  # at least one c-cell with mass
    table[:, :, -1, -1] = 0.0  # at least one without
    axes = tuple(
        Axis(n, tuple(float(k) for k in range(size)))
        for n, size in zip(("A", "B", "C1", "C2"), table.shape)
    )
    return DensityGrid(axes, table / table.sum())


def corner_grid():
    """(X, A, C) grid: C=0 is uniform on a 3x3 (X, A) slice without the
    corner (0, 2), C=1 a product.

    In C=0, p(x | c) = (1/4, 3/8, 3/8) and p(a | c) = (3/8, 3/8, 1/4): the
    total-variation residual is 1/8, a quarter of it from the missing
    corner, whose residual 1/16 is the largest; the pointwise residual is
    1/4, from the missing corner too.
    """
    from ciprop import Axis, DensityGrid

    table = np.zeros((3, 3, 2))
    table[:, :, 0] = 1.0 / 16.0
    table[0, 2, 0] = 0.0
    table[:, :, 1] = np.outer([0.2, 0.3, 0.5], [0.1, 0.6, 0.3]) / 2.0
    return DensityGrid(
        tuple(Axis(n, (0.0, 1.0, 2.0)) for n in ("X", "A")) + (Axis("C", (0.0, 1.0)),),
        table,
    )
