"""Hand-drawn support layouts shared across test modules."""

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
