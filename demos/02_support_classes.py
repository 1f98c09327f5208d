"""Support topology: path-connected components, then equivalence classes.

Two path-connected components of a joint support belong to the same
coordinate-wise class when their projections onto either axis overlap;
classes are the transitive closure of that relation.  The class structure,
not the component count, is what decides the intersection property.
"""

import numpy as np

from ciprop import (
    Axis,
    DensityGrid,
    classes_per_c,
    label_support_nd,
    render_labels,
)

# Seven blocks, drawn so that projection overlaps chain some of them
# together.  Rows are A bins, columns are B bins.
cells = np.zeros((10, 10), dtype=bool)
cells[0:2, 0:2] = True   # shares rows with the next block
cells[0:2, 4:6] = True   # ... which shares columns with the next
cells[4:6, 4:6] = True
cells[2:4, 2:4] = True   # second chain, rows only
cells[2:4, 7:9] = True
cells[7:9, 6] = True     # third chain, isolated columns
cells[7:9, 9] = True

# Cells that share an edge are connected; blocks touching only at a
# corner, like the first and the fourth, stay apart.
labels, count = label_support_nd(cells)
print(f"components: {count}")
print(render_labels(labels))

# Classes are read from a grid, so spread mass uniformly over the support.
# With no conditioning axes, the one conditioning cell is the empty tuple.
bins = tuple(float(k) for k in range(10))
grid = DensityGrid((Axis("A", bins), Axis("B", bins)), cells / cells.sum())
assignment = classes_per_c(grid, "A", "B", ())[()]
print(f"\nclasses: {assignment.class_count}")
for cls in range(1, assignment.class_count + 1):
    print(f"  class {cls}: A bins {assignment.proj_a[cls]}  B bins {assignment.proj_b[cls]}")

# The induced cell variable: 0 off support, the class index on it.
# Distinct classes never share an A bin or a B bin, so on the support
# the value is a function of the A coordinate alone (and of B alone).
print("\nclass variable over the lattice:")
print(render_labels(assignment.uc))
for a_bin, b_bin in ((0, 0), (5, 5), (9, 0)):
    print(f"value at ({a_bin}, {b_bin}): {assignment.uc[a_bin, b_bin]}")
