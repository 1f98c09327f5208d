"""Density grids 101: build, marginalize, condition, and test independence.

A DensityGrid is a joint probability mass function over named axes with
real-valued bin points.  Everything downstream (support topology, the
intersection criterion, model pushforwards) consumes this one type.
"""

import numpy as np

from ciprop import (
    Axis,
    DensityGrid,
    condition,
    grid_to_json,
    is_ci,
    marginalize,
)

# A hand-set joint over (X, A, B).  X copies the sign of A; B is fair and
# independent of the pair.
table = np.zeros((2, 2, 2))
table[0, 0, 0] = table[0, 0, 1] = 0.25  # x = low,  a = low
table[1, 1, 0] = table[1, 1, 1] = 0.25  # x = high, a = high

grid = DensityGrid(
    (
        Axis("X", (-1.0, 1.0)),
        Axis("A", (0.0, 1.0)),
        Axis("B", (0.0, 1.0)),
    ),
    table,
)
print("axes:", ", ".join(grid.axis_names))
print("total mass:", grid.prob.sum())

print("\nmarginal over (X, A):")
print(marginalize(grid, ("X", "A")).prob)

print("\nconditional on A = 1 (axes X, B remain):")
sliced = condition(grid, {"A": 1})
print(sliced.prob)

# X determines A, so X vs A is maximally dependent ...
report = is_ci(grid, "X", "A")
print("\ndeviation of X vs A (unconditional):", report.deviation)
print("worst cell (x-bin, a-bin, c-cell):", report.witness)

# ... while X vs B is exactly independent, with or without conditioning.
print("deviation of X vs B:", is_ci(grid, "X", "B").deviation)
report = is_ci(grid, "X", "B", ("A",))
print("X _||_ B | A holds:", report.holds, " pointwise residual:", report.pointwise_deviation)

# Grids serialize to a stable JSON document; axes are written in grid
# order and floats keep 17 significant digits, so loads are exact.
print("\nserialized form starts with:")
print(grid_to_json(grid)[:120], "...")
