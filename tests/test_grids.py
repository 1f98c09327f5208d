"""Grid primitives: construction, marginals, conditionals, CI residuals."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import ciprop.grids as grids_module
from ciprop import cli
from ciprop import (
    Axis,
    BudgetExceeded,
    DensityGrid,
    IndexOutOfRange,
    NegativeMass,
    NotNormalized,
    OverlappingRoles,
    ShapeMismatch,
    UcAssignment,
    UnknownAxis,
    ZeroMassCondition,
    attach_class_variable,
    classes_per_c,
    condition,
    construct_adversary,
    example1,
    grid_from_json,
    grid_to_json,
    intersection_condition,
    is_ci,
    joint_support_components,
    marginalize,
    non_constancy_check,
    propagate,
    save_grid,
    save_sem,
    verify_intersection,
    verify_weak_intersection,
)

import layouts
import oracles
from oracles import flatten_axes


def make_grid(names_sizes, table):
    axes = tuple(
        Axis(n, tuple(float(k) for k in range(s))) for n, s in names_sizes
    )
    return DensityGrid(axes, np.asarray(table, dtype=float))


def random_grid(rng, names_sizes, zero_frac=0.3):
    shape = tuple(s for _, s in names_sizes)
    table = rng.random(shape) * (rng.random(shape) > zero_frac)
    if table.sum() == 0:
        table.flat[0] = 1.0
    return make_grid(names_sizes, table / table.sum())


# -- construction and validation ------------------------------------------


def test_axis_rejects_bad_points():
    with pytest.raises(ShapeMismatch):
        Axis("A", ())
    with pytest.raises(ShapeMismatch):
        Axis("A", (0.0, 0.0))
    with pytest.raises(ShapeMismatch):
        Axis("A", (1.0, 0.5))
    for name in ("", 1, ("A",)):
        with pytest.raises(ShapeMismatch):
            Axis(name, (0.0, 1.0))
    # NaN compares false both ways, so an ordering check alone passes it
    for points in ((0.0, float("nan"), 2.0), (float("nan"),), (0.0, float("inf"))):
        with pytest.raises(ShapeMismatch):
            Axis("A", points)


def test_grid_accepts_flat_table_and_is_readonly():
    g = make_grid([("A", 2), ("B", 3)], [0.1, 0.1, 0.1, 0.2, 0.2, 0.3])
    assert g.prob.shape == (2, 3)
    assert not g.prob.flags.writeable
    with pytest.raises(ValueError):
        g.prob[0, 0] = 1.0
    # a grid is equal only to itself
    assert g == g and g != make_grid([("A", 2), ("B", 3)], g.prob)


def test_grid_owns_its_table():
    axes = (Axis("A", (0.0, 1.0)), Axis("B", (0.0, 1.0)))
    # the caller's array stays writeable, and later writes do not reach the grid
    for table in (np.array([0.5, 0.0, 0.0, 0.5]), np.array([[0.5, 0.0], [0.0, 0.5]])):
        g = DensityGrid(axes, table)
        table[...] = 0.25
        assert table.flags.writeable
        assert np.array_equal(g.prob, [[0.5, 0.0], [0.0, 0.5]])
        assert not np.shares_memory(g.prob, table)
    # nor does a view of writeable memory, or the table of another grid
    owner = np.array([[0.5, 0.0], [0.0, 0.5], [9.0, 9.0]])
    g = DensityGrid(axes, owner[:2])
    owner[:] = 0.25
    assert np.array_equal(g.prob, [[0.5, 0.0], [0.0, 0.5]])
    assert not np.shares_memory(DensityGrid(axes, g.prob).prob, g.prob)


def test_signed_and_nan_tables_are_refused_when_made():
    # C=1 holds +0.1 and -0.1, which cancel; a density is never negative
    table = np.zeros((2, 2, 2))
    table[:, :, 0] = [[0.4, 0.1], [0.2, 0.3]]
    table[0, 0, 1], table[1, 1, 1] = 0.1, -0.1
    names_sizes = [("X", 2), ("A", 2), ("C", 2)]
    with pytest.raises(NegativeMass, match=r"^entry \(1, 1, 1\) is -0.1$"):
        make_grid(names_sizes, table)
    table[1, 1, 1] = np.nan
    with pytest.raises(NotNormalized, match=r"^entry \(1, 1, 1\) is nan$"):
        make_grid(names_sizes, table)
    # the cells handed to the library's constructor pass the same checks
    axes = make_grid(names_sizes, np.ones((2, 2, 2)) / 8).axes
    with pytest.raises(NegativeMass, match=r"^entry \(1, 1, 1\) is -0.1$"):
        grids_module._from_support(axes, np.array([0, 7]), np.array([1.1, -0.1]))


def test_grid_shape_checks():
    axes = (Axis("A", (0.0, 1.0)),)
    with pytest.raises(ShapeMismatch):
        DensityGrid(axes, np.zeros((3,)))
    with pytest.raises(ShapeMismatch):
        DensityGrid(axes, np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        DensityGrid((Axis("A", (0.0,)), Axis("A", (0.0,))), np.zeros((1, 1)))


def test_validate_flags_negative_and_unnormalized():
    # a negative entry and a table off 1 by more than 1e-9 are refused
    # when the grid is made
    with pytest.raises(NegativeMass, match=r"^entry \(1, 0\) is -0.1$"):
        make_grid([("A", 2), ("B", 2)], [[0.6, 0.5], [-0.1, 0.0]])
    with pytest.raises(NotNormalized, match=r"^entries sum to 1.2, not 1$"):
        make_grid([("A", 2)], [0.6, 0.6])
    with pytest.raises(NotNormalized):
        make_grid([("A", 2)], [0.5, 0.5 + 2e-9])
    make_grid([("A", 2)], [0.5, 0.5 + 5e-10])


def test_axis_lookup():
    g = make_grid([("B", 2), ("A", 2)], np.full((2, 2), 0.25))
    assert g.axis_index("A") == 1
    assert g.axis("B").name == "B"
    with pytest.raises(UnknownAxis):
        g.axis_index("C")


# -- marginalize / condition ----------------------------------------------


def test_marginalize_keeps_grid_axis_order():
    g = make_grid([("C", 2), ("A", 2), ("B", 2)], np.full((2, 2, 2), 0.125))
    m = marginalize(g, {"A", "C"})
    assert m.axis_names == ("C", "A")


def test_marginalize_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_grid(rng, [("A", 3), ("B", 2), ("C", 4)])
        names, shape, mass = oracles.dict_grid(g.axis_names, g.prob.tolist())
        for keep in ({"A"}, {"B", "C"}, {"A", "C"}, {"A", "B", "C"}):
            m = marginalize(g, keep)
            onames, oshape, omass = oracles.o_marginal(names, shape, mass, keep)
            assert m.axis_names == onames
            for idx in np.ndindex(*oshape):
                assert abs(m.prob[idx] - omass.get(idx, 0.0)) <= 1e-12


def test_marginalize_errors():
    g = make_grid([("A", 2), ("B", 2)], np.full((2, 2), 0.25))
    with pytest.raises(UnknownAxis):
        marginalize(g, {"A", "Z"})
    with pytest.raises(ShapeMismatch):
        marginalize(g, set())


def test_condition_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_grid(rng, [("A", 3), ("B", 3), ("C", 2)], zero_frac=0.2)
        names, shape, mass = oracles.dict_grid(g.axis_names, g.prob.tolist())
        for fixed in ({"A": 1}, {"C": 0}, {"A": 2, "C": 1}):
            try:
                c = condition(g, fixed)
            except ZeroMassCondition:
                with pytest.raises(ZeroDivisionError):
                    oracles.o_condition(names, shape, mass, fixed)
                continue
            onames, oshape, omass = oracles.o_condition(names, shape, mass, fixed)
            assert c.axis_names == onames
            for idx in np.ndindex(*oshape):
                assert abs(c.prob[idx] - omass.get(idx, 0.0)) <= 1e-12


def test_condition_errors_and_identity():
    g = make_grid([("A", 2), ("B", 2)], [[0.5, 0.5], [0.0, 0.0]])
    assert condition(g, {}) is g
    with pytest.raises(ZeroMassCondition):
        condition(g, {"A": 1})
    with pytest.raises(IndexOutOfRange):
        condition(g, {"A": 2})
    with pytest.raises(ShapeMismatch):
        condition(g, {"A": 0, "B": 0})


# -- CI deviation -----------------------------------------------------------


def test_product_grid_has_zero_deviation():
    px = np.array([0.2, 0.8])
    pa = np.array([0.5, 0.3, 0.2])
    g = make_grid([("X", 2), ("A", 3)], np.outer(px, pa))
    dev = is_ci(g, "X", "A").deviation
    assert dev <= 1e-15
    assert is_ci(g, "X", "A").holds


def test_perfectly_coupled_pair_has_half_deviation():
    # p(x,a) = diag(1/2, 1/2): every cell misses the product by 1/4
    g = make_grid([("X", 2), ("A", 2)], [[0.5, 0.0], [0.0, 0.5]])
    report = is_ci(g, "X", "A")
    assert report.deviation == pytest.approx(0.5, abs=1e-15)
    assert report.witness == ((0,), (0,), ())


def test_deviation_is_symmetric_in_roles():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_grid(rng, [("X", 3), ("A", 4), ("B", 2)])
        d1 = is_ci(g, "X", "A", ("B",)).deviation
        d2 = is_ci(g, "A", "X", ("B",)).deviation
        assert d1 == pytest.approx(d2, abs=1e-14)


def test_deviation_against_oracle():
    rng = np.random.default_rng(19)
    for _ in range(25):
        g = random_grid(rng, [("A", 3), ("B", 2), ("C", 3), ("X", 2)])
        names, shape, mass = oracles.dict_grid(g.axis_names, g.prob.tolist())
        for x, a, cond in [
            ("X", "A", ()),
            ("X", "A", ("B",)),
            ("X", "B", ("A", "C")),
            ("X", ("A", "B"), ("C",)),
        ]:
            dev = is_ci(g, x, a, cond).deviation
            ref = oracles.o_ci_tv(names, shape, mass, x, a, cond)
            assert dev == pytest.approx(ref, abs=1e-12)


def test_witness_points_at_largest_residual():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_grid(rng, [("X", 3), ("A", 3)])
        (xi,), (ai,), () = is_ci(g, "X", "A").witness
        px = g.prob.sum(axis=1)
        pa = g.prob.sum(axis=0)
        resid = np.abs(g.prob - np.outer(px, pa))
        assert resid[xi, ai] == pytest.approx(resid.max(), abs=1e-15)


def test_role_validation():
    g = make_grid([("X", 2), ("A", 2)], np.full((2, 2), 0.25))
    with pytest.raises(OverlappingRoles):
        is_ci(g, "X", "X")
    with pytest.raises(OverlappingRoles):
        is_ci(g, "X", "A", ("A",))
    with pytest.raises(UnknownAxis):
        is_ci(g, "X", "Z")
    for tol in (0.0, float("nan")):
        with pytest.raises(ShapeMismatch):
            is_ci(g, "X", "A", tol=tol)


def test_zero_mass_conditioning_rejected():
    # a grid without mass, whose conditioning cells are all empty, is
    # refused when it is made, before any query
    with pytest.raises(NotNormalized, match=r"^entries sum to 0.0, not 1$"):
        make_grid([("X", 2), ("A", 2), ("C", 2)], np.zeros((2, 2, 2)))


def test_is_ci_counts_a_tiny_conditioning_cell():
    # C=1 holds 1e-13 on two diagonal blocks: A and B are dependent there
    report = is_ci(layouts.tiny_cell_grid(), "A", "B", ("C",))
    assert not report.holds
    assert report.deviation == pytest.approx(0.5)
    assert report.pointwise_deviation == pytest.approx(0.5)
    assert report.witness[2] == (1,)


def test_condition_slices_a_tiny_cell():
    sliced = condition(layouts.tiny_cell_grid(), {"C": 1})
    assert np.array_equal(sliced.prob, [[0.5, 0.0], [0.0, 0.5]])


def test_pointwise_residual_tracks_tv_verdict():
    # both residuals vanish on conditionally independent grids and are
    # macroscopic on strongly coupled ones
    rng = np.random.default_rng(23)
    for _ in range(10):
        px = rng.random((3, 2)) + 0.1  # p(x|b)
        pa = rng.random((4, 2)) + 0.1  # p(a|b)
        px /= px.sum(axis=0)
        pa /= pa.sum(axis=0)
        pb = np.array([0.4, 0.6])
        joint = np.einsum("xb,ab,b->xab", px, pa, pb)
        g = make_grid([("X", 3), ("A", 4), ("B", 2)], joint)
        report = is_ci(g, "X", "A", ("B",))
        assert report.pointwise_deviation <= 1e-12
        assert report.deviation <= 1e-12
    coupled = make_grid([("X", 2), ("A", 2)], [[0.5, 0.0], [0.0, 0.5]])
    assert is_ci(coupled, "X", "A").pointwise_deviation == pytest.approx(0.5)


def test_exhaustive_dyadic_suite_matches_exact_verdicts():
    # every 2x2x2 table with entries in {0, 1/8, 1/4}: the float verdict at
    # tol 1e-9 must equal the Fraction-exact factorization check
    levels = (Fraction(0), Fraction(1, 8), Fraction(1, 4))
    mismatches = 0
    checked = 0
    for combo in product(range(3), repeat=8):
        cells = [levels[c] for c in combo]
        total = sum(cells)
        if total == 0:
            continue
        norm = [c / total for c in cells]
        table = [
            [[norm[0], norm[1]], [norm[2], norm[3]]],
            [[norm[4], norm[5]], [norm[6], norm[7]]],
        ]
        exact = oracles.o_ci_exact(table)
        g = make_grid(
            [("X", 2), ("A", 2), ("B", 2)],
            np.asarray([float(v) for v in norm]).reshape(2, 2, 2),
        )
        report = is_ci(g, "X", "A", ("B",))
        checked += 1
        if report.holds != exact:
            mismatches += 1
        # the pointwise residual must reach the same verdict as the TV one
        assert (report.pointwise_deviation <= 1e-9) == report.holds
    assert checked == 3**8 - 1
    assert mismatches == 0


# -- multi-axis roles and flattening ----------------------------------------


def test_grouped_role_equals_flattened_axis():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_grid(rng, [("X", 2), ("A", 3), ("B", 2), ("C", 2)])
        dev_group = is_ci(g, "X", ("A", "B"), ("C",)).deviation
        flat = flatten_axes(g, ("A", "B"), "AB")
        dev_flat = is_ci(flat, "X", "AB", ("C",)).deviation
        assert dev_group == pytest.approx(dev_flat, abs=1e-14)


def test_flatten_axes_preserves_mass_and_marginals():
    rng = np.random.default_rng(37)
    g = random_grid(rng, [("A", 3), ("B", 4), ("C", 2)])
    flat = flatten_axes(g, ("A", "B"), "AB")
    assert flat.axis_names == ("AB", "C")
    assert flat.axis("AB").size == 12
    assert flat.prob.sum() == pytest.approx(1.0, abs=1e-12)
    # row-major: AB bin k corresponds to (a, b) = divmod(k, |B|)
    for k in range(12):
        a, b = divmod(k, 4)
        np.testing.assert_allclose(flat.prob[k], g.prob[a, b], atol=0)
    with pytest.raises(ShapeMismatch):
        flatten_axes(g, ("A",), "A2")
    with pytest.raises(OverlappingRoles):
        flatten_axes(g, ("A", "A"), "AA")
    with pytest.raises(ShapeMismatch):
        flatten_axes(g, ("A", "B"), "C")


# -- file format -------------------------------------------------------------


SPARSE_AXES = (
    '[{"name": "A", "points": [0.0, 1.0]}, {"name": "B", "points": [0.0, 1.0]}]'
)


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(41)
    grids = [random_grid(rng, [("A", 3), ("B", 2)]), propagate(example1(0.1))]
    grids += [
        layouts.gapped_grid(rng, [("A", 4), ("B", 5), ("C", 3), ("X", 6)])
        for _ in range(10)
    ]
    for g in grids:
        text = grid_to_json(g)
        back = grid_from_json(text)
        assert back.axes == g.axes
        assert np.array_equal(back.prob, g.prob)
        # files are byte-stable
        assert grid_to_json(back) == text


def test_json_loader_sorts_axes_alphabetically():
    table = np.array([[0.1, 0.2, 0.3], [0.15, 0.05, 0.2]])
    g = DensityGrid((Axis("X", (0.0, 1.0)), Axis("A", (0.0, 1.0, 2.0))), table)
    back = grid_from_json(grid_to_json(g))
    assert back.axis_names == ("A", "X")
    assert np.array_equal(back.prob, table.T)
    # three axes: the flat indices of the cells with mass are remapped
    rng = np.random.default_rng(53)
    g = layouts.gapped_grid(rng, [("X", 4), ("C", 3), ("A", 5)])
    alphabetical = DensityGrid(
        tuple(g.axes[i] for i in (2, 1, 0)), np.transpose(g.prob, (2, 1, 0))
    )
    for doc in (grid_to_json(g), grid_to_json(alphabetical)):
        back = grid_from_json(doc)
        assert back.axes == alphabetical.axes
        assert np.array_equal(back.prob, alphabetical.prob)


def test_json_loader_validates():
    bad = '{"axes": [{"name": "A", "points": [0.0, 1.0]}], "prob": [0.5, -0.1]}'
    with pytest.raises(NegativeMass):
        grid_from_json(bad)
    bad = '{"axes": [{"name": "A", "points": [0.0, 1.0]}], "prob": [0.9, 0.2]}'
    with pytest.raises(NotNormalized):
        grid_from_json(bad)
    bad = '{"axes": [{"name": "A", "points": [0.0, 1.0]}], "prob": [NaN, 1.0]}'
    with pytest.raises(NotNormalized):
        grid_from_json(bad)
    for mass, error in (
        ("[1.5, -0.5]", NegativeMass),
        ("[0.5, 0.4]", NotNormalized),
        ("[NaN, 1.0]", NotNormalized),
    ):
        with pytest.raises(error):
            grid_from_json(
                f'{{"axes": {SPARSE_AXES}, "index": [0, 3], "mass": {mass}}}'
            )
    with pytest.raises(ShapeMismatch):
        grid_from_json('{"axes": [], "prob": []}')
    with pytest.raises(ShapeMismatch):
        grid_from_json('{"prob": [1.0]}')


def test_non_finite_mass_is_named_in_the_alphabetical_axis_order():
    axes = (
        '[{"name": "B", "points": [0.0, 1.0, 2.0]},'
        ' {"name": "A", "points": [-1.0, 1.0]}]'
    )
    # document cells 1 and 4 are (A, B) = (1, 0) and (0, 2); the second
    # comes first in the loaded grid
    dense = f'{{"axes": {axes}, "prob": [0.0, NaN, 0.0, 0.0, NaN, 0.375]}}'
    sparse = f'{{"axes": {axes}, "index": [1, 4, 5], "mass": [NaN, NaN, 0.375]}}'
    for doc in (dense, sparse):
        with pytest.raises(NotNormalized, match=r"^entry \(0, 2\) is nan$"):
            grid_from_json(doc)


def test_json_preserves_awkward_floats():
    pts = (0.1, 0.1 + 0.2, 1.0 / 3.0)
    g = DensityGrid((Axis("A", pts),), np.array([0.1, 0.2, 0.7]))
    back = grid_from_json(grid_to_json(g))
    assert back.axes[0].points == pts


def test_json_holds_only_the_support_cells():
    table = np.zeros((2, 3))
    table[0, 2], table[1, 0] = 0.25, 0.75
    g = make_grid([("A", 2), ("B", 3)], table)
    doc = json.loads(grid_to_json(g))
    assert list(doc) == ["axes", "index", "mass"]
    assert doc["index"] == [2, 3]
    assert doc["mass"] == [0.25, 0.75]


def test_json_of_a_million_cells_with_three_support_cells_is_small():
    table = np.zeros((10,) * 6)
    table[0, 1, 2, 3, 4, 5] = table[5, 5, 5, 5, 5, 5] = 0.25
    table[9, 9, 9, 9, 9, 9] = 0.5
    g = make_grid([(f"V{k}", 10) for k in range(6)], table)
    assert g.prob.size == 10**6
    text = grid_to_json(g)
    assert len(text.encode("utf-8")) < 1024
    assert np.array_equal(grid_from_json(text).prob, table)


def test_dense_and_sparse_documents_load_the_same_grid():
    axes = (
        '[{"name": "B", "points": [0.0, 1.0, 2.0]},'
        ' {"name": "A", "points": [-1.0, 1.0]}]'
    )
    dense = f'{{"axes": {axes}, "prob": [0.0, 0.5, 0.0, 0.0, 0.125, 0.375]}}'
    sparse = f'{{"axes": {axes}, "index": [1, 4, 5], "mass": [0.5, 0.125, 0.375]}}'
    grid = grid_from_json(dense)
    assert grid.axis_names == ("A", "B")
    assert np.array_equal(grid.prob, [[0.0, 0.0, 0.125], [0.5, 0.0, 0.375]])
    back = grid_from_json(sparse)
    assert back.axes == grid.axes
    assert np.array_equal(back.prob, grid.prob)


@pytest.mark.parametrize(
    "body",
    [
        '"prob": [0.5, 0.5, 0.0, 0.0], "index": [0, 1], "mass": [0.5, 0.5]',
        '"mass": [0.5, 0.5]',
        '"index": [1, 0], "mass": [0.5, 0.5]',
        '"index": [1, 1], "mass": [0.5, 0.5]',
        '"index": [-1, 0], "mass": [0.5, 0.5]',
        '"index": [0, 4], "mass": [0.5, 0.5]',
        '"index": [0, 1.5], "mass": [0.5, 0.5]',
        '"index": [0, true], "mass": [0.5, 0.5]',
        '"index": [0, "3"], "mass": [0.5, 0.5]',
        '"index": [0, 9223372036854775808], "mass": [0.5, 0.5]',
        '"index": [0, 1, 2], "mass": [0.5, 0.5]',
        '"index": [0, 1], "mass": [1.0]',
        '"index": [0, 1]',
        '"index": {"0": 1}, "mass": [1.0]',
        '"index": [0, 1], "mass": [[0.5], [0.5]]',
        '"index": [0, 1], "mass": ["x", 1.0]',
    ],
)
def test_malformed_sparse_documents_raise(body):
    with pytest.raises(ShapeMismatch):
        grid_from_json(f'{{"axes": {SPARSE_AXES}, {body}}}')


def test_loader_refuses_huge_grids_before_allocating():
    points = json.dumps([float(k) for k in range(1024)])
    axes = ", ".join(f'{{"name": "{n}", "points": {points}}}' for n in "ABC")
    with pytest.raises(BudgetExceeded, match="exceeds the limit"):
        grid_from_json(f'{{"axes": [{axes}], "index": [0], "mass": [1.0]}}')


def test_nan_table_raises_not_normalized():
    # built in code, so no reader has validated it: refused when it is made
    with pytest.raises(NotNormalized, match=r"entry \(0, 0, 0\) is nan"):
        make_grid([("A", 2), ("B", 2), ("C", 2)], np.full((2, 2, 2), np.nan))


# -- residuals over the support cells against the full grid -------------------


GAPPED_QUERIES = [
    ("X", "A", ("B", "C")),
    ("X", ("A", "B"), ("C",)),
    (("X", "C"), "B", ("A",)),
    ("X", "A", ("C",)),
    ("B", ("X", "C"), ()),
    ("A", "X", ()),
]


def check_kernel(g, x, a, cond, bound):
    """``is_ci`` against the dense residuals over every bin of the full grid.

    The witness must name a worst slice, within ``bound``, and a largest
    residual of that slice, within 1e-15: witnesses differ only at ties.
    """
    report = is_ci(g, x, a, cond)
    ref_dev, ref_witness, ref_point, residuals = oracles.ci_reference(g, x, a, cond)
    assert report.holds == (ref_dev <= report.tol)
    assert abs(report.deviation - ref_dev) <= bound
    assert abs(report.pointwise_deviation - ref_point) <= bound
    x_bins, a_bins, c_cell = report.witness
    worst = residuals[c_cell]
    assert abs(0.5 * worst.sum() - ref_dev) <= bound
    assert abs(worst[x_bins + a_bins] - worst.max()) <= 1e-15
    if report.deviation == 0.0:
        assert x_bins + a_bins == (0,) * worst.ndim
    return report, ref_witness, worst


def check_against_full_grid(g, x, a, cond):
    report, ref_witness, worst = check_kernel(g, x, a, cond, 1e-15)
    if worst.max() == 0.0:
        assert report.witness[0] + report.witness[1] == (0,) * worst.ndim
    return report.witness, ref_witness


def test_gapped_grids_match_the_full_grid_residuals():
    rng = np.random.default_rng(41)
    names_sizes = [("A", 4), ("B", 5), ("C", 3), ("X", 6)]
    for _ in range(30):
        g = layouts.gapped_grid(rng, names_sizes)
        for x, a, cond in GAPPED_QUERIES:
            check_against_full_grid(g, x, a, cond)


def test_all_zero_residuals_name_the_first_bin():
    # one support cell per conditioning cell, never on bin 0 of x or a:
    # every slice factorizes exactly, and the witness is the first cell
    # of the full slice, which holds no mass
    table = np.zeros((4, 3, 5, 3))
    table[2, 1, 3, 0] = table[3, 2, 4, 2] = table[1, 2, 1, 1] = 1.0 / 3.0
    g = make_grid([("X", 4), ("A", 3), ("B", 5), ("C", 3)], table)
    for x, a, cond in (
        ("X", "A", ("C",)),
        ("X", ("A", "B"), ("C",)),
        ("X", "A", ("B", "C")),
    ):
        witness, ref_witness = check_against_full_grid(g, x, a, cond)
        assert is_ci(g, x, a, cond).deviation == 0.0
        assert witness == ref_witness


SLICED_QUERIES = [
    ("A", "B", ("C1", "C2")),
    ("A", ("B", "C2"), ("C1",)),
    (("A", "C1"), "B", ("C2",)),
    ("C1", "A", ()),
]
ADVERSARY_QUERIES = [
    ("X", "A", ("B",)),
    ("X", "B", ("A",)),
    ("X", ("A", "B"), ()),
    ("X", "B", ()),
]


def with_cond(queries, cond):
    return [(x, a, (*c, *cond)) for x, a, c in queries]


def test_sliced_grids_match_the_full_grid_residuals():
    # zero-mass c-cells, and c-cells of zero to three bands
    rng = np.random.default_rng(59)
    adversaries = 0
    for _ in range(8):
        g = layouts.sliced_grid(rng)
        for query in SLICED_QUERIES:
            check_kernel(g, *query, 1e-12)
        if not intersection_condition(g, "A", "B", ("C1", "C2")).holds:
            adv = construct_adversary(g)
            for query in with_cond(ADVERSARY_QUERIES, ("C1", "C2")):
                check_kernel(adv, *query, 1e-12)
            adversaries += 1
    assert adversaries >= 3


def test_example1_and_its_adversary_match_the_full_grid_residuals():
    g = propagate(example1(0.1))
    for query in ADVERSARY_QUERIES + [
        ("A", "B", ("X",)),
        ("A", "B", ()),
        (("A", "X"), "B", ()),
    ]:
        check_kernel(g, *query, 1e-12)
    adv = construct_adversary(marginalize(g, ("A", "B")))
    for query in ADVERSARY_QUERIES:
        check_kernel(adv, *query, 1e-12)


def test_example1_at_step_001_matches_the_per_slice_residuals():
    # no full table: each c-cell's dense block is scored on its own
    g = propagate(example1(0.01))
    queries = [("X", "A", ("B",)), ("X", "B", ("A",)), ("X", "A", ()), ("X", "B", ())]
    for query in queries:
        report = is_ci(g, *query)
        dev, pointwise, c_cell, residuals = oracles.ci_by_slice(g, *query)
        assert abs(report.deviation - dev) <= 1e-12
        assert abs(report.pointwise_deviation - pointwise) <= 1e-12
        if not query[2]:  # one failing slice: the witness is its largest residual
            assert not report.holds and report.witness[2] == c_cell == ()
            at = residuals[report.witness[0] + report.witness[1]]
            assert abs(at - residuals.max()) <= 1e-12


@pytest.mark.parametrize("mass", [1e-13, 1e-300])
def test_tiny_cells_match_the_full_grid_residuals(mass):
    g = layouts.tiny_cell_grid(mass)
    report, _, _ = check_kernel(g, "A", "B", ("C",), 1e-15)
    assert report.witness[2] == (1,) and report.deviation == pytest.approx(0.5)
    check_kernel(g, "A", ("B", "C"), (), 1e-15)
    adv = construct_adversary(g)
    for query in with_cond(ADVERSARY_QUERIES, ("C",)):
        check_kernel(adv, *query, 1e-15)


def test_a_missing_corner_adds_its_off_support_residuals():
    # the support of C=0 is not a product: row x=0 misses the bin a=2
    g = layouts.corner_grid()
    report, _, _ = check_kernel(g, "X", "A", ("C",), 1e-15)
    assert report.deviation == pytest.approx(1 / 8, abs=1e-15)
    assert report.pointwise_deviation == pytest.approx(1 / 4, abs=1e-15)
    assert report.witness == ((0,), (2,), (0,))
    names, shape, mass = oracles.dict_grid(g.axis_names, g.prob.tolist())
    for x, a, cond in [("X", "A", ("C",)), ("A", "X", ("C",)), ("X", ("A", "C"), ())]:
        report, _, _ = check_kernel(g, x, a, cond, 1e-15)
        ref = oracles.o_ci_tv(names, shape, mass, x, a, cond)
        assert report.deviation == pytest.approx(ref, abs=1e-15)


# -- one answer per question -----------------------------------------------------


# each question with its role names reordered; sorted, the roles are the same
REORDERED_QUERIES = [
    (("X", ("A", "B"), ("C1", "C2")), ("X", ("B", "A"), ("C2", "C1"))),
    (("X", "A", ("B", "C1", "C2")), ("X", "A", ("C2", "B", "C1"))),
    ((("X", "C1"), "B", ("C2",)), (("C1", "X"), "B", ("C2",))),
]


def answer(report):
    return report.deviation, report.pointwise_deviation, report.witness


def test_a_grid_answers_each_question_once():
    adv = construct_adversary(layouts.sliced_grid(np.random.default_rng(3)))
    fresh = grids_module._from_support(adv.axes, *adv._support)
    for query, reordered in REORDERED_QUERIES:
        first = answer(check_kernel(adv, *query, 1e-12)[0])
        asked = len(adv._answers)
        assert answer(is_ci(adv, *query)) == first
        assert answer(is_ci(adv, *reordered)) == first
        assert len(adv._answers) == asked
        assert answer(is_ci(fresh, *query)) == first


def test_a_kept_answer_is_judged_at_each_tolerance():
    g = layouts.corner_grid()
    strict = is_ci(g, "X", "A", ("C",))
    loose = is_ci(g, "X", "A", ("C",), tol=0.2)
    assert not strict.holds and loose.holds and loose.tol == 0.2
    assert answer(loose) == answer(strict) and strict.deviation == pytest.approx(1 / 8)
    assert not is_ci(g, "X", "A", ("C",), tol=0.1).holds
    assert len(g._answers) == 1
    # the roles and the tolerance are still checked on every call
    with pytest.raises(UnknownAxis):
        is_ci(g, "X", "Z", ("C",))
    with pytest.raises(OverlappingRoles):
        is_ci(g, "X", ("A", "X"), ("C",))
    with pytest.raises(ShapeMismatch):
        is_ci(g, "X", "A", ("C",), tol=float("nan"))
    assert len(g._answers) == 1


# -- grids built from their support cells -------------------------------------


def check_holds_its_support(grid):
    """The grid holds the ascending cells of finite, positive mass of its table."""
    index, mass = grid._support
    assert index.dtype == np.intp and np.array_equal(index, np.flatnonzero(grid.prob))
    assert bool(np.all(np.isfinite(mass))) and bool(np.all(mass > 0))
    assert mass.tobytes() == grid.prob.ravel()[index].tobytes()


def test_marginals_match_the_dense_sums():
    rng = np.random.default_rng(17)
    names_sizes = [("A", 4), ("B", 5), ("C", 3), ("D", 4)]
    for _ in range(6):
        g = layouts.gapped_grid(rng, names_sizes)
        for size in range(1, len(names_sizes) + 1):
            for keep in combinations(g.axis_names, size):
                m = marginalize(g, keep)
                ref = oracles.marginalize_reference(g, keep)
                assert m.axes == ref.axes
                assert np.array_equal(m._support[0], np.flatnonzero(ref.prob))
                assert np.abs(m.prob - ref.prob).max() <= 1e-15


def test_built_grids_hold_the_support_of_their_table():
    grid = propagate(example1(0.1))
    built = [grid, marginalize(grid, ("A", "B")), marginalize(grid, ("X",))]
    built.append(construct_adversary(built[1]))
    rng = np.random.default_rng(59)
    for _ in range(4):
        g = layouts.sliced_grid(rng)
        built.append(marginalize(g, ("A", "B", "C1")))
        if not intersection_condition(g, "A", "B", ("C1", "C2")).holds:
            built.append(construct_adversary(g))
    # the zero-probability offset adds no cells
    base = layouts.mask_grid_uniform(layouts.two_block_mask())
    def level(c_cell, uc):
        return float(uc)

    built.append(attach_class_variable(base, level, (-0.5, 0.0, 0.5), (0.5, 0.0, 0.5)))
    built.append(condition(grid, {"X": 3}))
    # a sparse document over non-alphabetical axes, re-keyed on reading
    g = layouts.gapped_grid(rng, [("X", 4), ("C", 3), ("A", 5)])
    built.append(grid_from_json(grid_to_json(g)))
    assert len(built) >= 12
    for g in built:
        check_holds_its_support(g)


def test_from_support_refuses_non_finite_masses_and_huge_grids(monkeypatch):
    axes = tuple(Axis(n, (0.0, 1.0)) for n in "AB")
    with pytest.raises(NotNormalized, match=r"entry \(1, 0\) is nan"):
        grids_module._from_support(axes, np.array([0, 2]), np.array([0.5, np.nan]))
    g = grids_module._from_support(axes, np.array([0, 3]), np.array([1.0, 0.0]))
    assert np.array_equal(g._support[0], [0])
    monkeypatch.setattr(grids_module, "MAX_GRID_CELLS", 3)
    with pytest.raises(BudgetExceeded, match="exceeds the limit 3"):
        grids_module._from_support(axes, np.array([0]), np.array([1.0]))


def test_queries_on_built_grids_never_build_the_class_table(monkeypatch, tmp_path):
    builds, projections = [], []
    build = UcAssignment.uc.func

    def counted(assignment):
        builds.append(assignment)
        return build(assignment)

    monkeypatch.setattr(UcAssignment, "uc", property(counted))
    for name in ("proj_a", "proj_b"):
        view = getattr(UcAssignment, name).func

        def read(assignment, view=view):
            projections.append(assignment)
            return view(assignment)

        monkeypatch.setattr(UcAssignment, name, property(read))
    grid = propagate(example1(0.1))
    base = marginalize(grid, ("A", "B"))
    intersection_condition(grid, "A", "B", ("X",))
    intersection_condition(grid, "A", "B", ())
    construct_adversary(base)
    attached = attach_class_variable(
        base, lambda c_cell, uc: float(uc), (-0.1, 0.1), name="C"
    )
    verify_weak_intersection(grid, "X", "A", "B")
    path, attached_path = str(tmp_path / "grid.json"), str(tmp_path / "attached.json")
    save_grid(grid, path)
    save_grid(attached, attached_path)
    assert cli.run(["report", path, "--deterministic"]) == 0
    assert projections == []
    # the classes command prints the projections, and draws each slice
    # from a table it drops
    for argv in (["classes", path], ["classes", attached_path]):
        assert cli.run(argv) == 0
    assert projections and builds == []
    assignment = classes_per_c(grid, "A", "B", ())[()]
    assert assignment.uc.shape == grid.prob.shape[:2]
    assert builds == [assignment]


def test_queries_on_built_grids_never_build_their_table(monkeypatch, tmp_path):
    reads = []
    build = DensityGrid.prob.func

    def counted(grid):
        reads.append(grid)
        return build(grid)

    # every grid here is built from its support cells, so none holds a table
    monkeypatch.setattr(DensityGrid, "prob", property(counted))
    sem = example1(0.1)
    grid = propagate(sem)
    intersection_condition(grid, "A", "B", ("X",))
    intersection_condition(grid, "A", "B", ())
    for x, a, cond in (("X", "A", ("B",)), ("X", "B", ("A",)), ("X", ("A", "B"), ())):
        is_ci(grid, x, a, cond)
    verify_weak_intersection(grid, "X", "A", "B")
    joint_support_components(grid)
    joint_support_components(marginalize(grid, ("A", "B")))
    non_constancy_check(sem, "X", "B", grid)
    adversary = construct_adversary(marginalize(grid, ("A", "B")))
    verify_intersection(adversary, "X", "A", "B", ())
    condition(grid, {"X": 3})
    repr(grid)
    model, path, ab, out = (
        str(tmp_path / n) for n in ("m.json", "g.json", "ab.json", "o.json")
    )
    save_sem(sem, model)
    save_grid(marginalize(grid, ("A", "B")), ab)
    for argv in (
        ["sem", "propagate", model, "-o", path],
        ["report", path, "--deterministic"],
        ["classes", path],
        ["classes", path, "--c", "X=3"],
        ["intersection", path, "-o", out],
        ["weak-intersection", path],
        ["adversary", ab, "-o", out],
        ["sem", "check-prop3", model],
        ["sem", "check-prop4", model, "--node", "X", "--parent", "B"],
    ):
        assert cli.run(argv) == 0
    assert reads == []
    assert grid.prob.shape == (22, 47, 107)
    assert reads == [grid]


def widest_keys(rng, n):
    """``n`` scrambled keys of which the largest, at 5, just packs with
    the positions: key bits plus position bits make 63."""
    top = 2 ** (63 - (n - 1).bit_length())
    keys = rng.integers(0, top, n)
    keys[5] = top - 1
    return keys


def sort_cases():
    """Keys in each regime of ``grids._sort``, with the regime's name."""
    rng = np.random.default_rng(61)
    small = grids_module._SMALL_SORT
    n = 8 * small
    runs = [np.sort(rng.integers(0, 1000, n // 4)) for _ in range(4)]
    return [
        ("empty", np.zeros(0, dtype=np.int64)),
        ("single", np.array([5])),
        ("small", rng.integers(0, 40, small - 1)),
        ("sorted", np.sort(rng.integers(0, 1000, n))),
        ("all equal", np.full(n, 7)),
        ("few descents", np.concatenate(runs)),
        ("scrambled", rng.integers(0, 10**9, n)),
        ("many ties", rng.integers(0, 3, n)),
        ("at the packing limit", widest_keys(rng, n)),
    ]


@pytest.mark.parametrize("name,keys", sort_cases())
def test_sort_kernel_is_the_stable_argsort(name, keys):
    n = keys.size
    descents = int(np.count_nonzero(keys[1:] < keys[:-1]))
    packs = n >= grids_module._SMALL_SORT and descents * grids_module._RUN_LENGTH > n
    assert packs == (name in ("scrambled", "many ties", "at the packing limit"))
    order, ordered = grids_module._sort(keys)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype and np.array_equal(order, expected)
    assert ordered.dtype == keys.dtype and np.array_equal(ordered, keys[expected])


def test_sort_kernel_refuses_keys_too_wide_to_pack():
    # a packed value would wrap, not raise
    keys = widest_keys(np.random.default_rng(67), 2 * grids_module._SMALL_SORT)
    keys[5] += 1
    with pytest.raises(BudgetExceeded, match="exceed 63 bits"):
        grids_module._sort(keys)


def test_runs_match_unique():
    rng = np.random.default_rng(71)
    for keys in (np.zeros(0, dtype=np.int64), np.array([3]), np.full(9, 2),
                 np.sort(rng.integers(0, 5, 40)), np.arange(30)):
        start, run = grids_module._runs(keys)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        assert np.array_equal(start, first) and np.array_equal(run, inverse)
        assert run.dtype == np.intp
