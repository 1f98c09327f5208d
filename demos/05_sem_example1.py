"""An additive-noise chain whose pushforward breaks the intersection property.

The model is A -> B -> X.  A draws from a two-band noise (a gap in the
middle), B adds short uniform noise to A, and X is a two-plateau function
of B plus the same short noise.  propagate() enumerates all joint noise
configurations, so the resulting grid is the exact distribution of the
model, not a Monte-Carlo estimate.
"""

import numpy as np

from ciprop import (
    classes_per_c,
    example1,
    intersection_condition,
    is_ci,
    label_support_nd,
    marginalize,
    propagate,
    render_labels,
)

sem = example1(step=0.1)
print("nodes:", sem.dag.nodes)
print("parents:", dict(sem.dag.parents))
print("A noise support:", sem.noises["A"].points[:3], "...", sem.noises["A"].points[-3:])

grid = propagate(sem)
print("\ngrid axes:", {ax.name: ax.size for ax in grid.axes})
print("total mass:", grid.prob.sum())

# The support of (A, B) splits into two blocks tied to A's two bands.
classes = classes_per_c(grid, "A", "B", ())[()]
labels, count = label_support_nd(classes.uc > 0)
print(f"\n(A, B) support: {count} components, {classes.class_count} classes")
print(render_labels(labels[:, ::2]))  # every other B column, for width

# CI profile: both premises hold to machine precision, the conclusion is
# violated by 1/2 -- X remembers which band A came from.
print("\ndeviation X vs A given B:", is_ci(grid, "X", "A", ("B",)).deviation)
print("deviation X vs B given A:", is_ci(grid, "X", "B", ("A",)).deviation)
print("deviation X vs A unconditional:", is_ci(grid, "X", "A").deviation)
print("deviation X vs (A,B):", is_ci(grid, "X", ("A", "B")).deviation)

verdict = intersection_condition(grid, "A", "B", cond=())
print("intersection property:", "holds" if verdict.holds else "FAILS")

# Where the mass actually sits on the X axis: two plateaus, nothing on
# the bridge between them.
x_marginal = marginalize(grid, ("X",))
occupied = np.flatnonzero(x_marginal.prob > 0)
points = x_marginal.axes[0].points
print("\noccupied X range:", points[occupied[0]], "..", points[occupied[-1]])
gap = np.flatnonzero(np.diff(occupied) > 1)
lo_end, hi_start = occupied[gap[0]], occupied[gap[0] + 1]
print("plateau edges:", round(points[lo_end], 6), "|gap|", round(points[hi_start], 6))
