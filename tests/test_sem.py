"""Structural models: validation, exact pushforward, and identifiability checks."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import ciprop.grids as grids_module
import ciprop.sem as sem_module
from ciprop import (
    AffineMechanism,
    Axis,
    BinOverflow,
    BudgetExceeded,
    CycleDetected,
    Dag,
    DensityGrid,
    NegativeMass,
    NoiseSpec,
    NotAParent,
    NotNormalized,
    PiecewiseMechanism,
    PiecewisePiece,
    SemSpec,
    ShapeMismatch,
    TableMechanism,
    UnknownAxis,
    UnknownNode,
    example1,
    example1_alternative,
    intersection_condition,
    is_ci,
    joint_support_components,
    label_support_nd,
    load_sem,
    marginalize,
    noise_support_path_connected,
    non_constancy_check,
    non_descendants,
    propagate,
    save_sem,
    sem_from_json,
    sem_to_json,
    topological_order,
)

import layouts
import oracles


def coin(*points):
    return NoiseSpec(tuple(points), (1.0 / len(points),) * len(points))


def chain_sem():
    """A -> B with two-point noises; small enough to convolve by hand."""
    dag = Dag(("A", "B"), {"B": ("A",)})
    return SemSpec(
        dag=dag,
        noises={"A": coin(-1.0, 1.0), "B": coin(-0.5, 0.5)},
        mechanisms={"B": AffineMechanism(0.0, {"A": 1.0})},
        axes={
            "A": Axis("A", (-1.0, 1.0)),
            "B": Axis("B", (-1.5, -0.5, 0.5, 1.5)),
        },
    )


@pytest.fixture(scope="module")
def ex1():
    sem = example1()
    return sem, propagate(sem)


# -- DAG and model validation ----------------------------------------------------


def test_dag_rejects_cycles_and_bad_parents():
    with pytest.raises(CycleDetected):
        Dag(("A", "B"), {"A": ("B",), "B": ("A",)})
    with pytest.raises(CycleDetected):
        Dag(("A", "B", "C"), {"A": ("C",), "B": ("A",), "C": ("B",)})
    with pytest.raises(UnknownNode):
        Dag(("A",), {"A": ("Z",)})
    with pytest.raises(UnknownNode):
        Dag(("A",), {"Z": ()})
    with pytest.raises(ShapeMismatch):
        Dag(("A", "A"), {})
    with pytest.raises(ShapeMismatch):
        Dag(("A",), {"A": ("A",)})
    with pytest.raises(ShapeMismatch):
        Dag(("A", "B"), {"B": ("A", "A")})


def test_a_model_needs_a_node():
    with pytest.raises(ShapeMismatch, match="a model needs at least one node"):
        Dag((), {})


def test_topological_order_on_fixed_graphs():
    chain = Dag(("X", "B", "A"), {"B": ("A",), "X": ("B",)})
    assert topological_order(chain) == ["A", "B", "X"]
    fork = Dag(("B", "A", "X"), {"B": ("A",), "X": ("A",)})
    assert topological_order(fork) == ["A", "B", "X"]


def random_dag(rng, n):
    names = [f"N{k}" for k in range(n)]
    perm = list(rng.permutation(names))
    parents = {}
    for i, node in enumerate(perm):
        pool = perm[:i]
        parents[node] = tuple(p for p in pool if rng.random() < 0.4)
    order = list(names)
    rng.shuffle(order)
    return Dag(tuple(order), parents)


def test_topological_order_matches_naive_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        dag = random_dag(rng, int(rng.integers(2, 8)))
        got = topological_order(dag)
        ref = oracles.topo_naive(dag.nodes, dag.parents)
        assert got == ref


def test_non_descendants_matches_closure_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        dag = random_dag(rng, int(rng.integers(2, 8)))
        desc = oracles.descendants_closure(dag.nodes, dag.parents)
        for node in dag.nodes:
            assert non_descendants(dag, node) == set(dag.nodes) - {node} - desc[node]
    with pytest.raises(UnknownNode):
        non_descendants(dag, "nope")


def test_noise_validation():
    with pytest.raises(ShapeMismatch):
        NoiseSpec((), ())
    with pytest.raises(ShapeMismatch):
        NoiseSpec((0.0, 1.0), (1.0,))
    with pytest.raises(ShapeMismatch):
        NoiseSpec((1.0, 0.0), (0.5, 0.5))
    with pytest.raises(NegativeMass):
        NoiseSpec((-1.0, 1.0), (-0.1, 1.1))
    with pytest.raises(NotNormalized):
        NoiseSpec((-1.0, 1.0), (0.5, 0.6))
    nan = float("nan")
    for probs in ((nan, 1.0), (0.5, nan), (1e308, 1e308)):
        with pytest.raises(NotNormalized):
            NoiseSpec((-1.0, 1.0), probs)
    for points in ((nan,), (-1.0, nan)):
        with pytest.raises(ShapeMismatch):
            NoiseSpec(points, (1.0 / len(points),) * len(points))
    with pytest.warns(RuntimeWarning):
        NoiseSpec((0.0, 1.0), (0.5, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        NoiseSpec((-1.0, 1.0), (0.5, 0.5))
        NoiseSpec((0.0,), (1.0,))


def test_piecewise_validation():
    with pytest.raises(ShapeMismatch):
        PiecewiseMechanism("A", ())
    with pytest.raises(ShapeMismatch):
        PiecewiseMechanism("A", (PiecewisePiece(0.0, math.inf, 1.0),))
    with pytest.raises(ShapeMismatch):
        PiecewiseMechanism(
            "A",
            (
                PiecewisePiece(-math.inf, 0.0, 1.0),
                PiecewisePiece(0.5, math.inf, 2.0),
            ),
        )


def test_model_validation():
    dag = Dag(("A", "B"), {"B": ("A",)})
    axes = {"A": Axis("A", (-1.0, 1.0)), "B": Axis("B", (-1.5, -0.5, 0.5, 1.5))}
    noises = {"A": coin(-1.0, 1.0), "B": coin(-0.5, 0.5)}
    mech = {"B": AffineMechanism(0.0, {"A": 1.0})}
    with pytest.raises(ShapeMismatch):
        SemSpec(dag, {"A": noises["A"]}, mech, axes)
    with pytest.raises(ShapeMismatch):
        SemSpec(dag, noises, mech, {"A": axes["A"]})
    with pytest.raises(UnknownNode):
        SemSpec(dag, {**noises, "Z": coin(0.0)}, mech, axes)
    with pytest.raises(ShapeMismatch):
        SemSpec(dag, noises, {}, axes)  # non-source node without a mechanism
    with pytest.raises(ShapeMismatch):
        SemSpec(dag, noises, {**mech, "A": AffineMechanism(0.0, {})}, axes)
    with pytest.raises(NotAParent):
        SemSpec(dag, noises, {"B": AffineMechanism(0.0, {"Z": 1.0})}, axes)
    with pytest.raises(NotAParent):
        SemSpec(
            dag,
            noises,
            {"B": PiecewiseMechanism("Z", (PiecewisePiece(-math.inf, math.inf, 0.0),))},
            axes,
        )
    with pytest.raises(ShapeMismatch):
        SemSpec(dag, noises, {"B": TableMechanism(np.zeros(3))}, axes)
    with pytest.raises(UnknownNode):
        SemSpec(dag, noises, {**mech, "Z": AffineMechanism(0.0, {})}, axes)


# -- exact pushforward -------------------------------------------------------------


def test_single_source_reproduces_its_noise():
    noise = NoiseSpec((-1.0, 0.0, 2.0), (0.5, 0.25, 0.25))
    sem = SemSpec(
        Dag(("A",), {}), {"A": noise}, {}, {"A": Axis("A", noise.points)}
    )
    grid = propagate(sem)
    assert grid.axis_names == ("A",)
    assert np.allclose(grid.prob, noise.probs, atol=1e-15)


def test_two_node_hand_convolution():
    grid = propagate(chain_sem())
    assert grid.axis_names == ("A", "B")
    # four equally likely noise configurations, one output cell each
    expect = np.zeros((2, 4))
    expect[0, 0] = expect[0, 1] = 0.25  # a = -1 -> b in {-1.5, -0.5}
    expect[1, 2] = expect[1, 3] = 0.25  # a = +1 -> b in {+0.5, +1.5}
    assert np.allclose(grid.prob, expect, atol=1e-15)


def test_source_marginals_match_their_noises():
    rng = np.random.default_rng(11)
    for _ in range(10):
        probs = rng.dirichlet(np.ones(3))
        pts = np.sort(rng.normal(size=3))
        pts -= float(probs @ pts)  # center so construction stays silent
        noise_a = NoiseSpec(tuple(pts), tuple(probs))
        sem = SemSpec(
            Dag(("A", "B"), {"B": ("A",)}),
            {"A": noise_a, "B": coin(-0.5, 0.5)},
            {"B": AffineMechanism(0.0, {"A": 1.0})},
            {
                "A": Axis("A", noise_a.points),
                "B": Axis("B", tuple(np.sort((pts[:, None] + [-0.5, 0.5]).ravel()))),
            },
        )
        grid = propagate(sem)
        assert grid.prob.sum() == pytest.approx(1.0, abs=1e-12)
        back = marginalize(grid, ("A",))
        assert np.allclose(back.prob, probs, atol=1e-12)


def test_downstream_nodes_see_raw_parent_values():
    # A's values +-0.03 snap onto a one-point-per-sign axis, but B = 100 A
    # must land at +-3: propagating snapped values would pile mass at 0.5
    sem = SemSpec(
        Dag(("A", "B"), {"B": ("A",)}),
        {"A": coin(-0.03, 0.03), "B": NoiseSpec((0.0,), (1.0,))},
        {"B": AffineMechanism(0.0, {"A": 100.0})},
        {
            "A": Axis("A", (0.0, 1.0)),
            "B": Axis("B", (-3.0, 0.5, 3.0)),
        },
    )
    grid = propagate(sem)
    b = marginalize(grid, ("B",)).prob
    assert np.allclose(b, [0.5, 0.0, 0.5], atol=1e-15)


def test_table_lookup_uses_snapped_parent_bins():
    sem = SemSpec(
        Dag(("A", "B"), {"B": ("A",)}),
        {"A": coin(-0.1, 0.1), "B": coin(-0.5, 0.5)},
        {"B": TableMechanism(np.array([5.0, 7.0]))},
        {
            "A": Axis("A", (0.0, 1.0)),
            "B": Axis("B", (4.5, 5.5, 6.5, 7.5)),
        },
    )
    # both A values snap to bin 0, so B = 5 + noise regardless of sign
    b = marginalize(propagate(sem), ("B",)).prob
    assert np.allclose(b, [0.5, 0.5, 0.0, 0.0], atol=1e-15)


def test_snapping_tolerates_up_to_half_a_bin():
    def run(intercept):
        sem = SemSpec(
            Dag(("A", "B"), {"B": ("A",)}),
            {"A": NoiseSpec((0.0,), (1.0,)), "B": NoiseSpec((0.0,), (1.0,))},
            {"B": AffineMechanism(intercept, {"A": 1.0})},
            {"A": Axis("A", (0.0,)), "B": Axis("B", (0.0, 1.0))},
        )
        return marginalize(propagate(sem), ("B",)).prob

    assert np.allclose(run(0.4), [1.0, 0.0])
    assert np.allclose(run(0.6), [0.0, 1.0])
    assert np.allclose(run(0.5), [1.0, 0.0])  # exact tie goes to the left bin


def test_values_off_the_axis_overflow():
    sem = SemSpec(
        Dag(("A", "B"), {"B": ("A",)}),
        {"A": coin(-1.0, 1.0), "B": coin(-0.5, 0.5)},
        {"B": AffineMechanism(0.0, {"A": 1.0})},
        {
            "A": Axis("A", (-1.0, 1.0)),
            "B": Axis("B", (-1.5, -0.5, 0.5)),  # misses b = 1.5
        },
    )
    with pytest.raises(BinOverflow):
        propagate(sem)


@pytest.mark.parametrize(
    "mechanism",
    [
        {"kind": "affine", "intercept": math.nan, "coeffs": {"A": 1}},
        {"kind": "piecewise", "parent": "A", "pieces": [
            {"lo": None, "hi": None, "kind": "affine", "intercept": math.nan, "slope": 0},
        ]},
        {"kind": "table", "values": [0.0] * 21 + [math.nan]},
    ],
)
def test_a_nan_value_overflows(mechanism):
    # NaN compares false with every allowance
    doc = json.loads(sem_to_json(example1(0.1)))
    doc["mechanism"]["B"] = mechanism
    sem = sem_from_json(json.dumps(doc))
    with pytest.raises(BinOverflow, match="node 'B': value nan misses the output axis"):
        propagate(sem)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_inf_times_zero_overflows():
    # inf * 0 is NaN
    sem = SemSpec(
        Dag(("A", "B"), {"B": ("A",)}),
        {"A": coin(0.0), "B": coin(0.0)},
        {"B": AffineMechanism(0.0, {"A": math.inf})},
        {"A": Axis("A", (0.0,)), "B": Axis("B", (0.0, 1.0))},
    )
    with pytest.raises(BinOverflow, match="node 'B': value nan misses the output axis"):
        propagate(sem)


def test_enumeration_budget(monkeypatch):
    sem = chain_sem()
    monkeypatch.setattr(sem_module, "DEFAULT_MAX_ENUM", 3)
    with pytest.raises(BudgetExceeded):
        propagate(sem)
    monkeypatch.setattr(sem_module, "DEFAULT_MAX_ENUM", 4)
    assert propagate(sem).prob.sum() == pytest.approx(1.0)


def test_output_grid_budget(monkeypatch):
    sem = chain_sem()
    cells = math.prod(ax.size for ax in sem.axes.values())
    monkeypatch.setattr(sem_module, "MAX_GRID_CELLS", cells - 1)
    with pytest.raises(BudgetExceeded, match="output grid"):
        propagate(sem)
    monkeypatch.setattr(sem_module, "MAX_GRID_CELLS", cells)
    assert propagate(sem).prob.size == cells


def test_propagate_matches_the_dense_accumulation():
    # each cell adds its configurations in enumeration order, as a bincount
    # over the whole table does, so the grids agree bit for bit
    sems = [example1(0.1), example1_alternative(0.1), example1(0.05)]
    rng = np.random.default_rng(23)
    # Y snapped to the even points of its axis, so odd and even values merge
    coarse = Axis("Y", tuple(float(v) for v in range(-30, 31, 2)))
    sems += [
        dataclasses.replace(sem, axes={**sem.axes, "Y": coarse})
        for kind in ("affine", "piecewise", "table")
        for sem in (random_multi_parent_sem(rng, kind) for _ in range(4))
    ]
    merged = dropped = 0
    for sem in sems:
        grid = propagate(sem)
        ref = oracles.propagate_reference(sem)
        assert grid.axes == ref.axes
        assert grid.prob.tobytes() == ref.prob.tobytes()
        cells = np.unique(sem_module._configurations(sem)[1])
        merged += cells.size < math.prod(len(n.points) for n in sem.noises.values())
        dropped += grid._support[0].size < cells.size
    # several configurations land on one cell, and cells reached only by
    # noise points of probability 0 are off the support
    assert merged >= 3 and dropped >= 6


def test_output_grid_budget_admits_step_001_only():
    # the model is only built here, never propagated
    def cells(step):
        return math.prod(ax.size for ax in example1(step).axes.values())

    assert cells(0.01) == 98_802_442 <= sem_module.MAX_GRID_CELLS
    assert cells(0.005) > sem_module.MAX_GRID_CELLS


def test_propagate_hands_over_its_table():
    # the table, built on first read, is a read-only view of one flat array
    grid = propagate(chain_sem())
    assert grid.prob.base is not None
    assert grid.prob.base.shape == (grid.prob.size,)
    assert not grid.prob.base.flags.writeable


def test_propagate_is_deterministic():
    sem = chain_sem()
    one, two = propagate(sem), propagate(sem)
    assert np.array_equal(one.prob, two.prob)
    assert one.axes == two.axes


# -- the benchmark pair -------------------------------------------------------------


def test_example1_axes_and_support(ex1):
    sem, grid = ex1
    assert {n: ax.size for n, ax in sem.axes.items()} == {"A": 22, "B": 47, "X": 107}
    assert grid.axis_names == ("A", "B", "X")
    assert grid.prob.sum() == pytest.approx(1.0, abs=1e-12)
    assert joint_support_components(marginalize(grid, ("A", "B"))) == 2
    assert joint_support_components(grid) == 2


def test_example1_step_validation():
    with pytest.raises(ShapeMismatch):
        example1(0.2)
    with pytest.raises(ShapeMismatch):
        example1(0.0)
    with pytest.raises(ShapeMismatch):
        example1(0.07)  # does not tile [-0.3, 0.3]


def test_example1_finer_step():
    grid = propagate(example1(0.05))
    assert grid.prob.sum() == pytest.approx(1.0, abs=1e-12)
    assert joint_support_components(marginalize(grid, ("A", "B"))) == 2


def test_alternative_model_matches_exactly(ex1):
    sem, grid = ex1
    alt = example1_alternative()
    assert sem.dag.parents["X"] == ("B",)
    assert alt.dag.parents["X"] == ("A",)
    alt_grid = propagate(alt)
    assert alt_grid.axes == grid.axes
    assert np.array_equal(alt_grid.prob, grid.prob)


def test_example1_breaks_the_conclusion_not_the_premises(ex1):
    _, grid = ex1
    dev_xa = is_ci(grid, "X", "A", ("B",)).deviation
    dev_xb = is_ci(grid, "X", "B", ("A",)).deviation
    assert dev_xa <= 1e-12 and dev_xb <= 1e-12
    conclusion = is_ci(grid, "X", ("A", "B")).deviation
    assert conclusion == pytest.approx(0.5)


# -- identifiability diagnostics ------------------------------------------------------


def test_noise_connectivity():
    assert noise_support_path_connected(example1()) == {
        "A": False,
        "B": True,
        "X": True,
    }
    dag = Dag(("A",), {})
    holed = NoiseSpec((-1.0, -0.5, 0.0, 0.5, 1.0), (0.25, 0.25, 0.0, 0.25, 0.25))
    sem = SemSpec(dag, {"A": holed}, {}, {"A": Axis("A", holed.points)})
    assert noise_support_path_connected(sem) == {"A": False}
    stretched = NoiseSpec((-1.0, -0.5, 1.0), (0.2, 0.4, 0.4))
    sem = SemSpec(dag, {"A": stretched}, {}, {"A": Axis("A", stretched.points)})
    assert noise_support_path_connected(sem) == {"A": False}
    sem = SemSpec(dag, {"A": coin(-1.0, 0.0, 1.0)}, {}, {"A": Axis("A", (-1.0, 0.0, 1.0))})
    assert noise_support_path_connected(sem) == {"A": True}


def test_joint_support_component_counts():
    table = np.zeros((2, 2))
    table[0, 0] = table[1, 1] = 0.5
    g = DensityGrid((Axis("A", (0.0, 1.0)), Axis("B", (0.0, 1.0))), table)
    assert joint_support_components(g) == 2
    assert joint_support_components(marginalize(g, ("A",))) == 1
    # the support cells against the dense labeller of the (marginal) mask
    rng = np.random.default_rng(71)
    counts = set()
    for names_sizes in [[("A", 6), ("B", 7), ("C", 3)], [("X", 4), ("A", 5), ("B", 6)]] * 6:
        g = layouts.gapped_grid(rng, names_sizes)
        count = joint_support_components(g)
        assert count == label_support_nd(g.prob > 0)[1]
        counts.add(count)
        names = g.axis_names
        for keep in (names[:1], names[1:], names[::2], names[::-1]):
            m = marginalize(g, keep)
            assert joint_support_components(m) == label_support_nd(m.prob > 0)[1]
    assert len(counts) >= 3


def test_joint_support_components_reads_only_the_support_cells():
    # a 10^6-cell grid with four support cells, found when it is made:
    # counting allocates no dense mask and no int64 label table (8 MB)
    table = np.zeros((100, 100, 100))
    table[0, 0, 0] = table[0, 0, 1] = table[50, 50, 50] = table[99, 0, 99] = 0.25
    axes = tuple(Axis(n, tuple(float(k) for k in range(100))) for n in "ABC")
    g = DensityGrid(axes, table)
    tracemalloc.start()
    try:
        counts = (
            joint_support_components(g),
            joint_support_components(marginalize(g, ("A", "C"))),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (3, 3)
    assert peak < 10**6


def test_tiny_masses_are_support():
    # the cells A = 0, B = +-1 carry delta^2 = 1e-14 and join the three
    # blocks into one component and one class; a cutoff of 1e-12 would
    # split the support into 3 of each
    delta = 1e-7
    dag = Dag(("A", "B"), {"B": ("A",)})
    sem = SemSpec(
        dag,
        {
            "A": NoiseSpec(
                (-1.0, 0.0, 1.0), (0.5 - delta / 2, delta, 0.5 - delta / 2)
            ),
            "B": NoiseSpec((-1.0, 0.0, 1.0), (delta, 1.0 - 2 * delta, delta)),
        },
        {"B": TableMechanism(np.array([-2.0, 0.0, 2.0]))},
        {
            "A": Axis("A", (-1.0, 0.0, 1.0)),
            "B": Axis("B", tuple(float(v) for v in range(-3, 4))),
        },
    )
    grid = propagate(sem)
    assert 0.0 < grid.prob[1, 2] < 1e-12
    assert joint_support_components(grid) == 1
    verdict = intersection_condition(grid, "A", "B")
    assert verdict.holds and verdict.per_c_class_counts == {(): 1}


def test_affine_mechanism_is_non_constant():
    report = non_constancy_check(chain_sem(), "B", "A")
    assert report.holds
    assert report.failing_set is None
    assert set(report.witnesses) == {()}
    j, j_prime, other_vals, cond_vals = report.witnesses[()]
    assert j != j_prime and other_vals == {} and cond_vals == {}


def test_example1_plateau_fails_non_constancy(ex1):
    sem, grid = ex1
    report = non_constancy_check(sem, "X", "B", grid)
    assert not report.holds
    assert report.failing_set == ("A",)
    assert () in report.witnesses  # unconditionally two plateaus are visible
    assert non_constancy_check(sem, "B", "A", grid).holds


def test_non_constancy_argument_validation(ex1, monkeypatch):
    sem, grid = ex1
    with pytest.raises(UnknownNode):
        non_constancy_check(sem, "Z", "B", grid)
    with pytest.raises(NotAParent):
        non_constancy_check(sem, "X", "A", grid)
    # X constant in B: the set () has no witness, and the grid still lacks A
    flat = dataclasses.replace(
        sem, mechanisms={**sem.mechanisms, "X": AffineMechanism(0.0, {"B": 0.0})}
    )
    assert non_constancy_check(flat, "X", "B", grid).failing_set == ()
    with pytest.raises(UnknownAxis, match="'A'"):
        non_constancy_check(flat, "X", "B", marginalize(grid, ("B", "X")))
    monkeypatch.setattr(sem_module, "MAX_CANDIDATES", 0)
    with pytest.raises(BudgetExceeded):
        non_constancy_check(sem, "X", "B", grid)


def test_non_constancy_refuses_a_grid_coarser_than_the_model(ex1):
    # the model's points at the grid's bins are not the grid's values: on
    # its own grid this model FAILS at {A}, at the coarse bins it holds
    _, grid = ex1
    with pytest.raises(ShapeMismatch, match="grid axis 'B' \\(47 points\\)"):
        non_constancy_check(example1(0.05), "X", "B", grid)


def test_non_constancy_refuses_a_grid_finer_than_the_model(ex1):
    # the fine grid's bins run past the end of the model's points
    sem, _ = ex1
    with pytest.raises(ShapeMismatch, match="grid axis 'B' \\(93 points\\)"):
        non_constancy_check(sem, "X", "B", propagate(example1(0.05)))


def test_non_constancy_keys_the_grid_once(ex1, monkeypatch):
    # every conditioning set is searched on one marginal of the grid
    sem, grid = ex1
    keyed = []
    for module in (grids_module, sem_module):
        kernel = module._keyed_support
        monkeypatch.setattr(
            module,
            "_keyed_support",
            lambda g, roles, kernel=kernel: keyed.append(g) or kernel(g, roles),
        )
    for parent in ("B", "A"):
        node = "X" if parent == "B" else "B"
        keyed.clear()
        report = non_constancy_check(sem, node, parent, grid)
        assert sum(g is grid for g in keyed) == 1
        assert len(keyed) == 1 + len(report.witnesses) + (not report.holds)


def lattice_axis(name, m):
    return Axis(name, tuple(float(v) for v in range(-m, m + 1)))


def random_multi_parent_sem(rng, kind):
    """W -> P -> Y <- Q -> R, and R -> Y when three parents are drawn.

    Integer noises (some with a gap at 0) and integer mechanisms keep every
    value on the integer axes; ``kind`` picks Y's mechanism.
    """
    noises = [
        NoiseSpec((-1.0, 0.0, 1.0), (0.5, 0.0, 0.5)),
        NoiseSpec((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)),
        NoiseSpec((-2.0, 0.0, 2.0), (0.5, 0.0, 0.5)),
        NoiseSpec((0.0,), (1.0,)),
    ]
    y_parents = ("P", "Q", "R") if rng.random() < 0.5 else ("P", "Q")
    dag = Dag(
        ("P", "Q", "R", "W", "Y"),
        {"P": ("W",), "R": ("Q",), "Y": y_parents},
    )
    axes = {
        "W": lattice_axis("W", 2),
        "P": lattice_axis("P", 6),
        "Q": lattice_axis("Q", 2),
        "R": lattice_axis("R", 4),
        "Y": lattice_axis("Y", 30),
    }
    if kind == "affine":
        coeffs = {p: float(rng.integers(-2, 3)) for p in y_parents}
        mech_y = AffineMechanism(float(rng.integers(-2, 3)), coeffs)
    elif kind == "piecewise":
        t = float(rng.integers(-3, 3)) + 0.5
        mech_y = PiecewiseMechanism(
            str(rng.choice(y_parents)),
            (
                PiecewisePiece(-math.inf, t, intercept=float(rng.integers(-2, 3))),
                PiecewisePiece(
                    t, math.inf, intercept=float(rng.integers(-2, 3)),
                    slope=float(rng.integers(0, 2)),
                ),
            ),
        )
    else:
        table = rng.integers(0, 3, tuple(axes[p].size for p in y_parents))
        if rng.random() < 0.5:
            table[:] = table[:1]  # constant in P
        mech_y = TableMechanism(table.astype(float))
    return SemSpec(
        dag=dag,
        noises={n: noises[int(rng.integers(len(noises)))] for n in dag.nodes},
        mechanisms={
            "P": AffineMechanism(0.0, {"W": float(rng.choice([-1, 1, 2]))}),
            "R": AffineMechanism(0.0, {"Q": 1.0}),
            "Y": mech_y,
        },
        axes=axes,
    )


@pytest.mark.parametrize("kind", ["affine", "piecewise", "table"])
def test_non_constancy_matches_per_bin_reference(kind):
    rng = np.random.default_rng({"affine": 3, "piecewise": 5, "table": 7}[kind])
    verdicts, other_parent_sets = set(), 0
    for _ in range(12):
        sem = random_multi_parent_sem(rng, kind)
        grid = propagate(sem)
        for parent in sem.dag.parents["Y"]:
            report = non_constancy_check(sem, "Y", parent, grid)
            assert report == oracles.non_constancy_reference(sem, "Y", parent, grid)
            verdicts.add(report.holds)
            other_parent_sets += sum(
                any(c in sem.dag.parents["Y"] for c in cset)
                for cset in report.witnesses
            )
    assert verdicts == {True, False}
    assert other_parent_sets > 0


def three_bin_sem(outputs):
    """P on three bins of mass 1/3 and Y = outputs[P], with no noise on Y."""
    return SemSpec(
        dag=Dag(("P", "Y"), {"Y": ("P",)}),
        noises={
            "P": NoiseSpec((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3)),
            "Y": NoiseSpec((0.0,), (1.0,)),
        },
        mechanisms={"Y": TableMechanism(np.array(outputs))},
        axes={"P": Axis("P", (-1.0, 0.0, 1.0)), "Y": Axis("Y", (0.0,))},
    )


@pytest.mark.parametrize(
    "outputs, holds", [((0.0, -6e-10, 6e-10), True), ((0.0, -4e-10, 4e-10), False)]
)
def test_non_constancy_does_not_depend_on_bin_order(outputs, holds):
    # a witness is a spread of more than 1e-9 in a group, named by its
    # first least and first greatest output, whichever bins they sit on
    for perm in itertools.permutations(outputs):
        report = non_constancy_check(three_bin_sem(perm), "Y", "P")
        assert report.holds == holds
        if holds:
            lo, hi = report.witnesses[()][:2]
            assert (perm[int(lo) + 1], perm[int(hi) + 1]) == (min(perm), max(perm))
        else:
            assert report.failing_set == ()


def test_non_constancy_holds_when_the_full_set_has_a_witness():
    # W -> P -> Y with P = W + N_P on five bins: a witness for a set is one
    # for each of its subsets, so the search holds exactly when {W} has
    # one.  Outputs 6e-10 apart spread past 1e-9 only in some groups.
    unit = NoiseSpec((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25))
    verdicts = set()
    for outputs in itertools.product((-6e-10, 0.0, 6e-10), repeat=5):
        sem = SemSpec(
            dag=Dag(("P", "W", "Y"), {"P": ("W",), "Y": ("P",)}),
            noises={"W": unit, "P": unit, "Y": NoiseSpec((0.0,), (1.0,))},
            mechanisms={
                "P": AffineMechanism(0.0, {"W": 1.0}),
                "Y": TableMechanism(np.array(outputs)),
            },
            axes={
                "W": lattice_axis("W", 1),
                "P": lattice_axis("P", 2),
                "Y": Axis("Y", (0.0,)),
            },
        )
        grid = propagate(sem)
        report = non_constancy_check(sem, "Y", "P", grid)
        witness = sem_module._first_witness(sem, grid, "Y", "P", (), ("W",))
        assert report.holds == (witness is not None)
        assert report == oracles.non_constancy_reference(sem, "Y", "P", grid)
        verdicts.add(report.holds)
    assert verdicts == {True, False}


def test_dependence_conclusion_on_example1(ex1):
    _, grid = ex1
    assert not is_ci(grid, "X", "B").holds
    # ... but conditioning on A restores independence: the regression of the
    # plateau mechanism is invisible given the source, matching the failed
    # witness search for C = {A}
    assert is_ci(grid, "X", "B", ("A",)).holds


# -- file format ------------------------------------------------------------------


def test_model_roundtrip_through_json(ex1, tmp_path):
    sem, grid = ex1
    text = sem_to_json(sem)
    back = sem_from_json(text)
    assert back.dag == sem.dag
    assert back.axes == sem.axes
    assert back.noises == sem.noises
    assert np.array_equal(propagate(back).prob, grid.prob)
    path = tmp_path / "model.json"
    save_sem(sem, str(path))
    assert np.array_equal(propagate(load_sem(str(path))).prob, grid.prob)


def test_all_mechanism_kinds_roundtrip():
    dag = Dag(("A", "B", "C", "D"), {"B": ("A",), "C": ("A",), "D": ("A",)})
    piece = PiecewiseMechanism(
        "A",
        (
            PiecewisePiece(-math.inf, 0.0, intercept=1.0),
            PiecewisePiece(0.0, math.inf, intercept=0.5, slope=2.0),
        ),
    )
    sem = SemSpec(
        dag,
        {
            "A": coin(-1.0, 1.0),
            "B": coin(-0.25, 0.25),
            "C": coin(-0.25, 0.25),
            "D": coin(-0.25, 0.25),
        },
        {
            "B": AffineMechanism(0.5, {"A": -1.0}),
            "C": piece,
            "D": TableMechanism(np.array([3.0, 4.0])),
        },
        {
            "A": Axis("A", (-1.0, 1.0)),
            "B": Axis("B", (-0.75, -0.25, 0.25, 0.75, 1.25, 1.75)),
            "C": Axis("C", (0.75, 1.25, 1.75, 2.25, 2.75)),
            "D": Axis("D", (2.75, 3.25, 3.75, 4.25)),
        },
    )
    back = sem_from_json(sem_to_json(sem))
    assert back.mechanisms["B"] == sem.mechanisms["B"]
    assert back.mechanisms["C"] == sem.mechanisms["C"]
    assert np.array_equal(back.mechanisms["D"].values, sem.mechanisms["D"].values)
    assert np.array_equal(propagate(back).prob, propagate(sem).prob)


def test_reader_accepts_uniform_axis_shorthand():
    text = """
    {
      "nodes": ["A"],
      "parents": {"A": []},
      "noise": {"A": {"points": [-1.0, 0.0, 1.0],
                      "probs": [0.25, 0.5, 0.25]}},
      "mechanism": {},
      "output_axis": {"A": {"min": -1.0, "max": 1.0, "step": 0.5}}
    }
    """
    sem = sem_from_json(text)
    assert sem.axes["A"].points == (-1.0, -0.5, 0.0, 0.5, 1.0)
    grid = propagate(sem)
    assert np.allclose(
        marginalize(grid, ("A",)).prob, [0.25, 0.0, 0.5, 0.0, 0.25], atol=1e-15
    )


def edgeless_sem():
    """A and B without edges; B's noise is a single point."""
    return SemSpec(
        Dag(("A", "B"), {}),
        {"A": coin(-1.0, 0.0, 1.0), "B": NoiseSpec((0.0,), (1.0,))},
        {},
        {"A": Axis("A", (-1.0, 0.0, 1.0)), "B": Axis("B", (0.0,))},
    )


def test_a_model_without_edges_roundtrips_and_propagates():
    text = sem_to_json(edgeless_sem())
    assert '"mechanism": {}' in text
    back = sem_from_json(text)
    assert back.mechanisms == {}
    assert sem_to_json(back) == text
    grid = propagate(back)
    assert grid.axis_names == ("A", "B")
    assert np.array_equal(grid.prob, np.full((3, 1), 1.0 / 3.0))


def test_a_one_point_noise_counts_as_connected():
    sem = edgeless_sem()
    assert noise_support_path_connected(sem) == {"A": True, "B": True}
    assert joint_support_components(propagate(sem)) == 1


def test_reader_rejects_malformed_documents():
    with pytest.raises(ShapeMismatch):
        sem_from_json('{"parents": {}}')
    with pytest.raises(ShapeMismatch):
        sem_from_json(
            '{"nodes": ["A", "B"], "parents": {"A": [], "B": ["A"]},'
            ' "noise": {"A": {"points": [0.0], "probs": [1.0]},'
            '           "B": {"points": [0.0], "probs": [1.0]}},'
            ' "mechanism": {"B": {"kind": "mystery"}},'
            ' "output_axis": {"A": {"points": [0.0]}, "B": {"points": [0.0]}}}'
        )
