"""Structural equation models with additive noise, pushed exactly to grids.

A model assigns each DAG node ``X_i = f_i(parents) + N_i`` with a finite
discrete noise ``N_i``.  :func:`propagate` enumerates every joint noise
configuration, evaluates nodes in topological order on raw (unsnapped)
values, snaps each node to its declared output axis at the end, and
accumulates probability mass — an exact pushforward rather than a sampled
estimate, so conditional-independence verdicts on the result carry no
statistical error.

The module ships the two-mechanism benchmark pair :func:`example1` /
:func:`example1_alternative`: structurally different DAGs (a chain and a
fork) whose pushforwards coincide exactly, demonstrating that the DAG is
not identifiable from the joint distribution when noise supports have
gaps.  Identifiability diagnostics live here too: per-node noise-support
connectivity and joint-support component counts (path-connectedness
certificate), and the non-constancy witness search for mechanism/parent
pairs.  That search keys one marginal of the grid once per conditioning
set and evaluates the mechanism once on the cells that hold mass.
"""

from __future__ import annotations

import heapq
import json
import math
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    BinOverflow,
    BudgetExceeded,
    CipropError,
    CycleDetected,
    NotAParent,
    ShapeMismatch,
    UnknownNode,
)
from .grids import (
    MAX_GRID_CELLS,
    Axis,
    DensityGrid,
    _distribution,
    _keyed_support,
    _kept,
    _merged,
    _numbers,
    _runs,
    marginalize,
)
from .jsonio import render_json
from .topology import _components

# Most joint noise configurations propagate enumerates.
DEFAULT_MAX_ENUM = 10_000_000
# Most conditioning candidates non_constancy_check takes (2^k sets).
MAX_CANDIDATES = 12


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph: node names plus ordered parent lists."""

    nodes: tuple[str, ...]
    parents: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        if len(set(nodes)) != len(nodes):
            raise ShapeMismatch(f"duplicate node names in {nodes}")
        parents = {n: tuple(self.parents.get(n, ())) for n in nodes}
        known = set(nodes)
        for n, ps in parents.items():
            bad = [p for p in ps if p not in known]
            if bad:
                raise UnknownNode(f"node {n!r} lists unknown parents {bad}")
            if len(set(ps)) != len(ps) or n in ps:
                raise ShapeMismatch(f"node {n!r} has invalid parent list {ps}")
        stray = set(self.parents) - known
        if stray:
            raise UnknownNode(f"parent map mentions unknown nodes {sorted(stray)}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "parents", parents)
        topological_order(self)  # acyclicity; raises CycleDetected


@dataclass(frozen=True)
class NoiseSpec:
    """Finite pmf of an additive noise term, on increasing real points."""

    points: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        points = tuple(float(p) for p in self.points)
        probs = tuple(float(p) for p in self.probs)
        if not points or len(points) != len(probs):
            raise ShapeMismatch(
                f"{len(points)} points vs {len(probs)} probs; need equal, nonempty"
            )
        if not all(map(math.isfinite, points)):
            raise ShapeMismatch("noise points must be finite")
        if any(not a < b for a, b in zip(points, points[1:])):
            raise ShapeMismatch("noise points must be strictly increasing")
        _distribution(probs)
        mean = math.fsum(p * x for p, x in zip(probs, points))
        if abs(mean) > 1e-9:
            warnings.warn(
                f"noise mean {mean!r} is not zero; additive-noise conventions "
                "assume centered noise",
                RuntimeWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class AffineMechanism:
    """f(parents) = intercept + sum of coeff * parent value."""

    intercept: float
    coeffs: Mapping[str, float]

    def evaluate(
        self,
        values: Mapping[str, np.ndarray],
        bins: Mapping[str, np.ndarray],
        order: tuple[str, ...],
    ) -> np.ndarray:
        out = np.asarray(self.intercept, dtype=float)
        for name, coeff in self.coeffs.items():
            out = out + float(coeff) * values[name]
        return out


@dataclass(frozen=True)
class PiecewisePiece:
    """One half-open region [lo, hi) mapped affinely (slope 0 = constant)."""

    lo: float
    hi: float
    intercept: float
    slope: float = 0.0


@dataclass(frozen=True)
class PiecewiseMechanism:
    """Single-parent piecewise-affine map; pieces must tile the real line."""

    parent: str
    pieces: tuple[PiecewisePiece, ...]

    def __post_init__(self) -> None:
        pieces = tuple(self.pieces)
        if not pieces:
            raise ShapeMismatch("piecewise mechanism needs at least one piece")
        if pieces[0].lo != -math.inf or pieces[-1].hi != math.inf:
            raise ShapeMismatch("pieces must start at -inf and end at +inf")
        for left, right in zip(pieces, pieces[1:]):
            if left.hi != right.lo:
                raise ShapeMismatch(
                    f"pieces must be contiguous; gap between {left.hi!r} "
                    f"and {right.lo!r}"
                )
        object.__setattr__(self, "pieces", pieces)

    def evaluate(
        self,
        values: Mapping[str, np.ndarray],
        bins: Mapping[str, np.ndarray],
        order: tuple[str, ...],
    ) -> np.ndarray:
        v = np.asarray(values[self.parent], dtype=float)
        out = np.zeros(v.shape)
        for piece in self.pieces:
            inside = (v >= piece.lo) & (v < piece.hi)
            out = np.where(inside, piece.intercept + piece.slope * v, out)
        return out


@dataclass(frozen=True)
class TableMechanism:
    """Explicit lookup over parent output-axis bins, row-major parent order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        table = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        table.flags.writeable = False
        object.__setattr__(self, "values", table)

    def evaluate(
        self,
        values: Mapping[str, np.ndarray],
        bins: Mapping[str, np.ndarray],
        order: tuple[str, ...],
    ) -> np.ndarray:
        idx = tuple(bins[name] for name in order)
        return self.values[idx]


Mechanism = AffineMechanism | PiecewiseMechanism | TableMechanism


@dataclass(frozen=True)
class SemSpec:
    """A complete model: DAG, per-node noise, mechanisms, output axes."""

    dag: Dag
    noises: Mapping[str, NoiseSpec]
    mechanisms: Mapping[str, Mechanism]
    axes: Mapping[str, Axis]

    def __post_init__(self) -> None:
        nodes = set(self.dag.nodes)
        for label, keys in (("noise", set(self.noises)), ("axis", set(self.axes))):
            missing = nodes - keys
            if missing:
                raise ShapeMismatch(f"missing {label} for nodes {sorted(missing)}")
            stray = keys - nodes
            if stray:
                raise UnknownNode(f"{label} given for unknown nodes {sorted(stray)}")
        for n in nodes:
            ps = self.dag.parents[n]
            mech = self.mechanisms.get(n)
            if ps and mech is None:
                raise ShapeMismatch(f"non-source node {n!r} has no mechanism")
            if not ps and mech is not None:
                raise ShapeMismatch(f"source node {n!r} must not have a mechanism")
            if isinstance(mech, AffineMechanism):
                stray = set(mech.coeffs) - set(ps)
                if stray:
                    raise NotAParent(
                        f"affine coefficients of {n!r} reference non-parents "
                        f"{sorted(stray)}"
                    )
            if isinstance(mech, PiecewiseMechanism) and mech.parent not in ps:
                raise NotAParent(
                    f"piecewise mechanism of {n!r} uses {mech.parent!r}, "
                    f"not one of its parents {ps}"
                )
            if isinstance(mech, TableMechanism):
                expect = tuple(self.axes[p].size for p in ps)
                if mech.values.shape != expect:
                    raise ShapeMismatch(
                        f"table of {n!r} has shape {mech.values.shape}, parents "
                        f"imply {expect}"
                    )
        stray = set(self.mechanisms) - nodes
        if stray:
            raise UnknownNode(f"mechanisms given for unknown nodes {sorted(stray)}")


def topological_order(dag: Dag) -> list[str]:
    """Causal ordering with PA(node) before node; ties broken by name."""
    indegree = {n: len(dag.parents[n]) for n in dag.nodes}
    children: dict[str, list[str]] = {n: [] for n in dag.nodes}
    for n in dag.nodes:
        for p in dag.parents[n]:
            children[p].append(n)
    ready = [n for n, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for child in children[n]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    if len(order) != len(dag.nodes):
        stuck = sorted(n for n, d in indegree.items() if d > 0)
        raise CycleDetected(f"cycle through {stuck}")
    return order


def non_descendants(dag: Dag, node: str) -> set[str]:
    """All nodes with no directed path from ``node`` (excluding ``node``)."""
    if node not in dag.nodes:
        raise UnknownNode(f"no node named {node!r}")
    children: dict[str, list[str]] = {n: [] for n in dag.nodes}
    for n in dag.nodes:
        for p in dag.parents[n]:
            children[p].append(n)
    reached = {node}
    frontier = [node]
    while frontier:
        current = frontier.pop()
        for child in children[current]:
            if child not in reached:
                reached.add(child)
                frontier.append(child)
    return set(dag.nodes) - reached


def _snap(axis: Axis, values: np.ndarray, node: str) -> np.ndarray:
    """Nearest-bin indices; values may overshoot a point by half a local bin."""
    pts = axis.values()
    flat = np.asarray(values, dtype=float).ravel()
    right = np.searchsorted(pts, flat)
    left = np.clip(right - 1, 0, pts.size - 1)
    right = np.clip(right, 0, pts.size - 1)
    pick_right = np.abs(pts[right] - flat) < np.abs(pts[left] - flat)
    idx = np.where(pick_right, right, left)
    error = np.abs(pts[idx] - flat)
    if pts.size == 1:
        allowance = np.full(flat.shape, 1e-9)
    else:
        gaps = np.diff(pts)
        gap_at = 0.5 * np.maximum(
            gaps[np.clip(idx - 1, 0, gaps.size - 1)],
            gaps[np.clip(idx, 0, gaps.size - 1)],
        )
        allowance = gap_at + 1e-9
    bad = ~(error <= allowance)  # NaN is bad
    if bad.any():
        worst = int(np.argmax(error * bad))
        raise BinOverflow(
            f"node {node!r}: value {float(flat[worst])!r} misses the output axis "
            f"(nearest point {float(pts[idx[worst]])!r})"
        )
    return idx.reshape(np.shape(values))


def propagate(sem: SemSpec) -> DensityGrid:
    """Exact pushforward of the model onto its output axes.

    Every joint noise configuration is enumerated (product over nodes,
    guarded by ``DEFAULT_MAX_ENUM``, 10^7; the output grid is guarded by
    ``MAX_GRID_CELLS``; both are checked before any allocation); node
    values are computed on raw parent values in topological order and
    snapped to output bins only for mass accumulation and table lookups.
    Output axes are ordered alphabetically by node name.  One sort merges
    the configurations that land on one cell, and each cell adds their
    probabilities in enumeration order, the order of an accumulation
    over the dense table, so results are bit-reproducible.  The grid is
    these support cells; no table is built.
    """
    return _merged(*_configurations(sem))


def _configurations(sem: SemSpec) -> tuple[tuple[Axis, ...], np.ndarray, np.ndarray]:
    """The output axes, and the flat output cell and the probability of
    every joint noise configuration, in enumeration order."""
    order = topological_order(sem.dag)
    sizes = [len(sem.noises[n].points) for n in order]
    total = math.prod(sizes)
    if total > DEFAULT_MAX_ENUM:
        raise BudgetExceeded(
            f"{total} noise configurations exceed budget {DEFAULT_MAX_ENUM}"
        )
    alpha = sorted(sem.dag.nodes)
    dims = tuple(sem.axes[n].size for n in alpha)
    cells = math.prod(dims)
    if cells > MAX_GRID_CELLS:
        raise BudgetExceeded(
            f"output grid of {cells} cells exceeds the limit {MAX_GRID_CELLS}"
        )

    def along(node: str, arr: np.ndarray) -> np.ndarray:
        shape = [1] * len(order)
        shape[order.index(node)] = arr.size
        return arr.reshape(shape)

    weights = np.ones((1,) * len(order))
    values: dict[str, np.ndarray] = {}
    bins: dict[str, np.ndarray] = {}
    full = tuple(sizes)
    for node in order:
        noise = sem.noises[node]
        weights = weights * along(node, np.asarray(noise.probs))
        contribution = along(node, np.asarray(noise.points))
        mech = sem.mechanisms.get(node)
        if mech is None:
            value = contribution
        else:
            value = mech.evaluate(values, bins, sem.dag.parents[node]) + contribution
        values[node] = value
        bins[node] = _snap(sem.axes[node], value, node)

    flat_bins = [np.broadcast_to(bins[n], full).ravel() for n in alpha]
    return (
        tuple(sem.axes[n] for n in alpha),
        np.ravel_multi_index(tuple(flat_bins), dims),
        np.broadcast_to(weights, full).ravel(),
    )


def _lattice(lo: float, hi: float, step: float) -> tuple[float, ...]:
    n = int(round((hi - lo) / step))
    if abs(lo + n * step - hi) > 1e-9:
        raise ShapeMismatch(f"step {step!r} does not tile [{lo!r}, {hi!r}]")
    return tuple(lo + k * step for k in range(n + 1))


def _uniform(points: Sequence[float]) -> NoiseSpec:
    return NoiseSpec(tuple(points), (1.0 / len(points),) * len(points))


def example1(step: float = 0.1) -> SemSpec:
    """Chain A -> B -> X whose joint breaks the intersection implication.

    A is pure two-band noise, uniform on the lattice points of
    [-2, -1] union [1, 2]; B = A plus uniform noise on [-0.3, 0.3]; X is a
    two-plateau function of B (0 below -0.5, 10 above 0.5, affine bridge
    in between that carries no mass) plus the same short noise.  The gap
    in A's support splits the (A, B) support into two blocks, so X tracks
    the block index while staying conditionally independent of each of A
    and B given the other.
    """
    if not 0 < step <= 0.1:
        raise ShapeMismatch(f"step must be in (0, 0.1], got {step!r}")
    n_a = _uniform(_lattice(-2.0, -1.0, step) + _lattice(1.0, 2.0, step))
    n_short = _uniform(_lattice(-0.3, 0.3, step))
    dag = Dag(("A", "B", "X"), {"A": (), "B": ("A",), "X": ("B",)})
    bridge = PiecewisePiece(-0.5, 0.5, intercept=5.0, slope=10.0)
    mech_x = PiecewiseMechanism(
        "B",
        (
            PiecewisePiece(-math.inf, -0.5, intercept=0.0),
            bridge,
            PiecewisePiece(0.5, math.inf, intercept=10.0),
        ),
    )
    return SemSpec(
        dag=dag,
        noises={"A": n_a, "B": n_short, "X": n_short},
        mechanisms={"B": AffineMechanism(0.0, {"A": 1.0}), "X": mech_x},
        axes={
            "A": Axis("A", n_a.points),
            "B": Axis("B", _lattice(-2.3, 2.3, step)),
            "X": Axis("X", _lattice(-0.3, 10.3, step)),
        },
    )


def example1_alternative(step: float = 0.1) -> SemSpec:
    """Fork A -> B, A -> X generating exactly the same joint as example1.

    X jumps on the sign of A instead of the plateaus of B; because B's
    short noise never moves A across the sign boundary, the pushforward
    coincides cell-for-cell with the chain model even though the DAGs
    differ — the distribution does not identify the graph.
    """
    chain = example1(step)
    dag = Dag(("A", "B", "X"), {"A": (), "B": ("A",), "X": ("A",)})
    mech_x = PiecewiseMechanism(
        "A",
        (
            PiecewisePiece(-math.inf, 0.0, intercept=0.0),
            PiecewisePiece(0.0, math.inf, intercept=10.0),
        ),
    )
    return SemSpec(
        dag=dag,
        noises=dict(chain.noises),
        mechanisms={"B": AffineMechanism(0.0, {"A": 1.0}), "X": mech_x},
        axes=dict(chain.axes),
    )


def noise_support_path_connected(sem: SemSpec) -> dict[str, bool]:
    """Per node: does the positive-probability noise support form one run?

    True when the supported points are an unbroken arithmetic progression
    (every gap equals the smallest gap, one lattice step); a support with
    a wide gap — like example1's two-band A noise — is disconnected.
    """
    out = {}
    for node in sem.dag.nodes:
        noise = sem.noises[node]
        pts = np.asarray(noise.points)[np.asarray(noise.probs) > 0]
        if pts.size <= 1:
            out[node] = True
            continue
        gaps = np.diff(pts)
        out[node] = bool(gaps.max() <= gaps.min() * (1.0 + 1e-9))
    return out


def joint_support_components(grid: DensityGrid) -> int:
    """Component count of the support lattice; see label_support_nd.

    The support is exact: every cell of positive mass belongs to it, and
    it is read from the grid's support cells.  Count a marginal's
    components on :func:`~ciprop.grids.marginalize` of the grid.
    """
    return _components(grid._support[0], [ax.size for ax in grid.axes])[1]


@dataclass(frozen=True)
class NonConstancyReport:
    """Witness search result for one (node, parent) mechanism pair.

    ``witnesses`` maps each conditioning set (sorted node tuple) to a
    witness ``(x_j, x_j', other-parent values, conditioning values)``
    showing the mechanism takes two values on the support; ``failing_set``
    is the first conditioning set without a witness, if any.
    """

    node: str
    parent: str
    holds: bool
    witnesses: Mapping[tuple[str, ...], tuple]
    failing_set: tuple[str, ...] | None


def non_constancy_check(
    sem: SemSpec,
    node: str,
    parent: str,
    grid: DensityGrid | None = None,
) -> NonConstancyReport:
    """Is the mechanism of ``node`` non-constant in ``parent`` on-support?

    For every conditioning set C drawn from the non-descendants of
    ``node`` minus ``parent`` (at most ``MAX_CANDIDATES`` of them), search
    the propagated support for two parent values that share the same
    other-parent and conditioning values yet map to different mechanism
    outputs.  The overall verdict requires a witness for every C; a single
    failing C (reported) sinks it, which is exactly what happens when the
    mechanism has plateaus and the off-plateau region carries no mass.
    Every set is searched on one marginal of ``grid``; a ``grid`` that lacks
    the parent or a candidate raises :class:`UnknownAxis`, and one whose axis
    is not the model's :class:`ShapeMismatch`, before any search.
    """
    if node not in sem.dag.nodes:
        raise UnknownNode(f"no node named {node!r}")
    if parent not in sem.dag.parents[node]:
        raise NotAParent(f"{parent!r} is not a parent of {node!r}")
    candidates = sorted(non_descendants(sem.dag, node) - {parent})
    if len(candidates) > MAX_CANDIDATES:
        raise BudgetExceeded(
            f"{len(candidates)} conditioning candidates exceed the limit "
            f"{MAX_CANDIDATES}"
        )
    if grid is None:
        grid = propagate(sem)
    others = tuple(p for p in sem.dag.parents[node] if p != parent)
    # the mechanism is evaluated at the model's points of the grid's bins;
    # the other parents are candidates
    for n in (parent, *candidates):
        if grid.axis(n) != sem.axes[n]:
            raise ShapeMismatch(
                f"grid axis {n!r} ({grid.axis(n).size} points) is not the model's "
                f"({sem.axes[n].size} points)"
            )
    # the marginal keeps the grid's axis order: the searches key it alike
    grid = marginalize(grid, (parent, *candidates))

    witnesses: dict[tuple[str, ...], tuple] = {}
    failing: tuple[str, ...] | None = None
    cond_sets = [
        cset
        for size in range(len(candidates) + 1)
        for cset in combinations(candidates, size)
    ]
    for cset in cond_sets:
        found = _first_witness(sem, grid, node, parent, others, cset)
        if found is None:
            failing = cset
            break
        witnesses[cset] = found
    return NonConstancyReport(
        node=node,
        parent=parent,
        holds=failing is None,
        witnesses=witnesses,
        failing_set=failing,
    )


def _first_witness(
    sem: SemSpec,
    grid: DensityGrid,
    node: str,
    parent: str,
    others: tuple[str, ...],
    cset: tuple[str, ...],
) -> tuple | None:
    """The witness of the first group that has one, or None.

    Groups are the cells of the (others, cset) axes of the marginal, in
    row-major order.  A group has a witness when one of its positive
    parent bins maps to an output more than 1e-9 away from the output of
    its first positive parent bin; the mechanism sees those cells only.
    """
    kept = _kept(grid, (parent, *others, *cset))
    j = grid.axis_index(parent)
    roles = [p for p in kept if p != j] + [j]
    keys, _, sizes = _keyed_support(grid, [(p,) for p in roles])
    bins = dict(zip((grid.axes[p].name for p in roles), np.unravel_index(keys, sizes)))
    values = {n: sem.axes[n].values()[b] for n, b in bins.items()}
    out = sem.mechanisms[node].evaluate(values, bins, sem.dag.parents[node])
    out = np.broadcast_to(out, keys.shape)
    start, run = _runs(keys // sizes[-1])
    spread = np.abs(out - out[start][run]) > 1e-9
    if not spread.any():
        return None
    k = int(np.argmax(spread))
    points = grid.axes[j].points
    return (
        float(points[bins[parent][start[run[k]]]]),
        float(points[bins[parent][k]]),
        {n: grid.axis(n).points[bins[n][k]] for n in others},
        {c: grid.axis(c).points[bins[c][k]] for c in cset},
    )


# -- file format ---------------------------------------------------------


def _mechanism_doc(mech: Mechanism) -> dict:
    if isinstance(mech, AffineMechanism):
        return {
            "kind": "affine",
            "intercept": mech.intercept,
            "coeffs": dict(mech.coeffs),
        }
    if isinstance(mech, PiecewiseMechanism):
        pieces = []
        for piece in mech.pieces:
            doc: dict[str, object] = {
                "lo": None if piece.lo == -math.inf else piece.lo,
                "hi": None if piece.hi == math.inf else piece.hi,
            }
            if piece.slope == 0.0:
                doc.update(kind="const", level=piece.intercept)
            else:
                doc.update(kind="affine", intercept=piece.intercept, slope=piece.slope)
            pieces.append(doc)
        return {"kind": "piecewise", "parent": mech.parent, "pieces": pieces}
    return {"kind": "table", "values": [float(v) for v in mech.values.ravel()]}


def _number(value: object, field: str) -> float:
    """``value`` as a float if it is a JSON number; ``ShapeMismatch`` otherwise."""
    return float(_numbers([value], field)[0])


def _names(value: object, field: str) -> tuple[str, ...]:
    """``value`` if it is a list of strings; ``ShapeMismatch`` otherwise."""
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise ShapeMismatch(f"{field!r} must be a list of node names")
    return tuple(value)


def _mechanism_from_doc(doc: Mapping, parents: tuple[str, ...], axes) -> Mechanism:
    kind = doc.get("kind")
    if kind == "affine":
        coeffs = dict(doc["coeffs"])
        values = map(float, _numbers(list(coeffs.values()), "coeffs"))
        intercept = _number(doc.get("intercept", 0.0), "intercept")
        return AffineMechanism(intercept, dict(zip(coeffs, values)))
    if kind == "piecewise":
        pieces = []
        for p in doc["pieces"]:
            lo = -math.inf if p.get("lo") is None else _number(p["lo"], "lo")
            hi = math.inf if p.get("hi") is None else _number(p["hi"], "hi")
            if p.get("kind") == "const":
                pieces.append(PiecewisePiece(lo, hi, _number(p["level"], "level")))
            else:
                level, slope = (_number(p[k], k) for k in ("intercept", "slope"))
                pieces.append(PiecewisePiece(lo, hi, level, slope))
        return PiecewiseMechanism(doc["parent"], tuple(pieces))
    if kind == "table":
        shape = tuple(axes[p].size for p in parents)
        values = np.array(_numbers(doc["values"], "values"), dtype=float)
        return TableMechanism(values.reshape(shape))
    raise ShapeMismatch(f"unknown mechanism kind {kind!r}")


def _axis_doc(axis: Axis) -> dict:
    return {"points": list(axis.points)}


def _axis_from_doc(name: str, doc: Mapping) -> Axis:
    if "points" in doc:
        return Axis(name, tuple(_numbers(doc["points"], "points")))
    lo, hi, step = (_number(doc[k], k) for k in ("min", "max", "step"))
    return Axis(name, _lattice(lo, hi, step))


def sem_to_json(sem: SemSpec) -> str:
    """Serialize a model; floats keep 17 significant digits.

    Output axes are written as explicit point lists for exact round-trips;
    the reader additionally accepts the shorthand {min, max, step} for
    uniform axes.
    """
    doc = {
        "nodes": list(sem.dag.nodes),
        "parents": {n: list(sem.dag.parents[n]) for n in sem.dag.nodes},
        "noise": {
            n: {"points": list(ns.points), "probs": list(ns.probs)}
            for n, ns in sorted(sem.noises.items())
        },
        "mechanism": {
            n: _mechanism_doc(m) for n, m in sorted(sem.mechanisms.items())
        },
        "output_axis": {n: _axis_doc(ax) for n, ax in sorted(sem.axes.items())},
    }
    return render_json(doc)


def sem_from_json(text: str) -> SemSpec:
    """Parse a model document: numbers must be JSON numbers, names strings."""
    doc = json.loads(text)
    try:
        nodes = _names(doc["nodes"], "nodes")
        parents = {n: _names(ps, "parents") for n, ps in doc["parents"].items()}
        dag = Dag(nodes, parents)
        axes = {n: _axis_from_doc(n, d) for n, d in doc["output_axis"].items()}
        noises = {
            n: NoiseSpec(*(tuple(_numbers(d[k], k)) for k in ("points", "probs")))
            for n, d in doc["noise"].items()
        }
        mechanisms = {
            n: _mechanism_from_doc(d, dag.parents[n], axes)
            for n, d in doc.get("mechanism", {}).items()
        }
    except CipropError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed model document: {exc}") from exc
    return SemSpec(dag=dag, noises=noises, mechanisms=mechanisms, axes=axes)


def save_sem(sem: SemSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sem_to_json(sem))


def load_sem(path: str) -> SemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return sem_from_json(fh.read())
