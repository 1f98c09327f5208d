"""Conditional independence on exact probability grids.

The package answers three connected questions about a discretized joint
density: does the intersection property of conditional independence hold
for it, what counterexample variable witnesses a failure, and do the
support-side conditions securing identifiability of an additive-noise
structural model apply.

Layers, bottom up:

- :mod:`ciprop.grids` — immutable pmf grids over named axes with exact
  marginalization, conditioning, and the CI test :func:`is_ci`;
- :mod:`ciprop.topology` — the one components kernel: path-connected
  components of a support (:func:`label_support_nd`) and coordinate-wise
  equivalence classes with the derived class variable;
- :mod:`ciprop.intersection` — the classes of every conditioning cell
  (:func:`classes_per_c`), the one-class decision criterion, direct
  implication checks, the class-conditional weak form, and the
  counterexample construction;
- :mod:`ciprop.sem` — additive-noise structural models, exact pushforward
  to grids, benchmark models, and identifiability diagnostics;
- :mod:`ciprop.cli` — the ``ciprop`` command.
"""

from .errors import (
    AdversaryCheckFailed,
    BinOverflow,
    BudgetExceeded,
    CipropError,
    CycleDetected,
    IndexOutOfRange,
    NegativeMass,
    NotAParent,
    NotNormalized,
    OverlappingRoles,
    PremiseViolated,
    ShapeMismatch,
    SingleClass,
    UnknownAxis,
    UnknownNode,
    ZeroMassCondition,
)
from .grids import (
    DEFAULT_TOL,
    Axis,
    CiReport,
    DensityGrid,
    condition,
    grid_from_json,
    grid_to_json,
    is_ci,
    load_grid,
    marginalize,
    save_grid,
)
from .intersection import (
    IntersectionReport,
    IntersectionVerdict,
    WeakIntersectionReport,
    attach_class_variable,
    classes_per_c,
    construct_adversary,
    intersection_condition,
    verify_intersection,
    verify_weak_intersection,
)
from .sem import (
    AffineMechanism,
    Dag,
    NoiseSpec,
    NonConstancyReport,
    PiecewiseMechanism,
    PiecewisePiece,
    SemSpec,
    TableMechanism,
    example1,
    example1_alternative,
    joint_support_components,
    load_sem,
    noise_support_path_connected,
    non_constancy_check,
    non_descendants,
    propagate,
    save_sem,
    sem_from_json,
    sem_to_json,
    topological_order,
)
from .topology import UcAssignment, label_support_nd, render_labels

__version__ = "0.1.0"
