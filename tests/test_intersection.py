"""Intersection-property decision, adversary construction, and the weak form."""

from __future__ import annotations

import dataclasses
from itertools import combinations

import numpy as np
import pytest

import ciprop.grids as grids_module
import ciprop.intersection as intersection_module
from ciprop import (
    AdversaryCheckFailed,
    Axis,
    BudgetExceeded,
    DensityGrid,
    NegativeMass,
    NotNormalized,
    PremiseViolated,
    ShapeMismatch,
    SingleClass,
    attach_class_variable,
    classes_per_c,
    construct_adversary,
    intersection_condition,
    is_ci,
    example1,
    marginalize,
    propagate,
    verify_intersection,
    verify_weak_intersection,
)

import layouts
import oracles


def index_axis(name, n):
    return Axis(name, tuple(float(k) for k in range(n)))


def mask_grid(cells, masses=None):
    """Grid over (A, B) with the given mass on each true cell."""
    cells = np.asarray(cells, dtype=bool)
    table = cells.astype(float) if masses is None else np.where(cells, masses, 0.0)
    table = table / table.sum()
    return DensityGrid(
        (index_axis("A", cells.shape[0]), index_axis("B", cells.shape[1])), table
    )


def class_mixture_grid(cells, n_x, rng):
    """Joint over (X, A, B) with p(x | a, b) constant on each support class.

    This is the exact shape forced by the two premises, so they hold by
    construction; the conclusion holds only when all classes share one law.
    """
    cells = np.asarray(cells, dtype=bool)
    assignment = layouts.mask_classes(cells)
    mass = np.where(cells, rng.uniform(0.2, 1.0, cells.shape), 0.0)
    mass /= mass.sum()
    laws = rng.dirichlet(np.ones(n_x), size=max(assignment.class_count, 1))
    table = np.zeros((n_x,) + cells.shape)
    for cls in range(1, assignment.class_count + 1):
        on = assignment.uc == cls
        table[:, on] = laws[cls - 1][:, None] * mass[on]
    axes = (
        index_axis("X", n_x),
        index_axis("A", cells.shape[0]),
        index_axis("B", cells.shape[1]),
    )
    return DensityGrid(axes, table), assignment


def random_multiclass_mask(rng, rows, cols):
    while True:
        cells = rng.random((rows, cols)) < rng.uniform(0.3, 0.7)
        if not cells.any():
            continue
        asg = layouts.mask_classes(cells)
        if asg.class_count >= 2:
            return cells, asg


# -- the topological criterion -------------------------------------------------


def test_full_support_holds():
    verdict = intersection_condition(mask_grid(np.ones((4, 4), dtype=bool)))
    assert verdict.holds
    assert verdict.failing_c is None
    assert verdict.per_c_class_counts == {(): 1}


def test_two_blocks_fail():
    verdict = intersection_condition(mask_grid(layouts.two_block_mask()))
    assert not verdict.holds
    assert verdict.failing_c == ()
    assert verdict.per_c_class_counts == {(): 2}


def test_per_conditioning_cell_counts():
    # C = 0 slice has the two-block support, C = 1 is fully supported
    blocks = layouts.two_block_mask(4).astype(float)
    table = np.stack([blocks / blocks.sum(), np.full((4, 4), 1.0 / 16)], axis=-1)
    table /= 2.0
    g = DensityGrid(
        (index_axis("A", 4), index_axis("B", 4), index_axis("C", 2)), table
    )
    verdict = intersection_condition(g, "A", "B")
    assert verdict.per_c_class_counts == {(0,): 2, (1,): 1}
    assert not verdict.holds and verdict.failing_c == (0,)
    # merging the slices fills the support: one class, so the criterion flips
    assert intersection_condition(g, "A", "B", cond=()).holds


def test_failing_cell_is_first_in_row_major_order():
    blocks = layouts.two_block_mask(4).astype(float)
    full = np.full((4, 4), 1.0)
    table = np.stack([full, blocks, blocks], axis=-1)
    table /= table.sum()
    g = DensityGrid(
        (index_axis("A", 4), index_axis("B", 4), index_axis("C", 3)), table
    )
    verdict = intersection_condition(g, "A", "B")
    assert verdict.failing_c == (1,)


def test_classes_per_c_returns_assignments():
    g = mask_grid(layouts.two_block_mask())
    per = classes_per_c(g, "A", "B")
    assert set(per) == {()}
    assert per[()].class_count == 2


# -- direct verification of the implication ------------------------------------


GAPPED_LAYOUTS = [
    [("A", 5), ("B", 6), ("C", 3)],
    [("B", 5), ("X", 3), ("A", 6)],
    [("C1", 3), ("B", 5), ("A", 4), ("C2", 2)],
    [("X", 4), ("C", 3), ("B", 4), ("A", 5)],
]


def check_classes(g, cond):
    """The (A, B) classes given ``cond`` against the dense per-cell kernel."""
    classes = classes_per_c(g, "A", "B", cond)
    ref = oracles.classes_reference(g, "A", "B", cond)
    assert list(classes) == list(ref)
    for cell, asg in classes.items():
        assert asg.class_count == ref[cell].class_count
        assert np.array_equal(asg.uc, ref[cell].uc)
        assert asg.proj_a == ref[cell].proj_a
        assert asg.proj_b == ref[cell].proj_b
    assert intersection_condition(g, "A", "B", cond).per_c_class_counts == {
        cell: asg.class_count for cell, asg in ref.items()
    }
    return classes


def single_cell_grid():
    """(X, A, B, C) grid whose cell C=1 holds a single (a, b) cell."""
    table = np.zeros((2, 3, 3, 2))
    table[:, :, :, 0] = np.random.default_rng(5).random((2, 3, 3))
    table[:, 1, 1, 0] = 0.0
    table[:, 0, 2, 1] = (0.25, 0.75)
    table[:, :, :, 0] *= 0.5 / table[:, :, :, 0].sum()
    table[:, 0, 2, 1] *= 0.5
    axes = tuple(index_axis(n, s) for n, s in zip("XABC", table.shape))
    return DensityGrid(axes, table)


def test_classes_and_weak_form_match_the_dense_layout():
    # empty bins on every axis, and every subset of the conditioning axes,
    # so summed-out axes merge support cells onto one (c, a, b) key
    rng = np.random.default_rng(53)
    grids = [
        layouts.gapped_grid(rng, GAPPED_LAYOUTS[trial % len(GAPPED_LAYOUTS)], 0.75)
        for trial in range(30)
    ]
    # 5-D adversaries: the classes sum X out
    grids += [construct_adversary(layouts.sliced_grid(rng)) for _ in range(3)]
    grids.append(single_cell_grid())
    multi_class_cells = 0
    for g in grids:
        others = tuple(n for n in g.axis_names if n not in ("X", "A", "B"))
        for size in range(len(others) + 1):
            for cond in combinations(others, size):
                classes = check_classes(g, cond)
                multi_class_cells += sum(asg.class_count >= 2 for asg in classes.values())
                if "X" in g.axis_names:
                    # tol=1 admits any premises, so the residuals are not all 0
                    check_weak(g, "A", "B", cond, 1e-15)
    assert multi_class_cells >= 10
    cells = classes_per_c(single_cell_grid(), "A", "B", ("C",))
    assert cells[(1,)].class_count == 1
    assert cells[(1,)].proj_a == {1: (0,)} and cells[(1,)].proj_b == {1: (2,)}


def check_weak(g, a, b, cond, bound):
    """The weak form per (c-cell, class) against the dense per-class loop."""
    weak = verify_weak_intersection(g, "X", a, b, cond, tol=1.0)
    ref = oracles.weak_reference(g, "X", a, b, cond)
    assert list(weak.per_class) == list(ref)
    for key, residual in weak.per_class.items():
        assert abs(residual - ref[key]) <= bound
    return weak


def test_weak_form_matches_the_dense_reference():
    rng = np.random.default_rng(61)
    for _ in range(6):
        g = layouts.sliced_grid(rng)
        if not intersection_condition(g, "A", "B", ("C1", "C2")).holds:
            check_weak(construct_adversary(g), "A", "B", ("C1", "C2"), 1e-15)
    for mass in (1e-13, 1e-300):
        adv = construct_adversary(layouts.tiny_cell_grid(mass))
        check_weak(adv, "A", "B", ("C",), 1e-15)
    g = propagate(example1(0.1))
    check_weak(g, "A", "B", (), 1e-12)
    check_weak(construct_adversary(marginalize(g, ("A", "B"))), "A", "B", (), 1e-12)


def test_weak_form_adds_the_mixture_where_an_on_class_cell_lacks_x():
    # one class over the (A, C) support; x=0 has no mass at (a=2, c=0), so
    # that cell's residual there is the mixture's p(x=0) = 0.225
    weak = check_weak(layouts.corner_grid(), "A", "C", (), 1e-15)
    assert weak.per_class == {((), 1): pytest.approx(0.225, abs=1e-15)}


def test_product_grid_satisfies_implication():
    rng = np.random.default_rng(3)
    px = rng.dirichlet(np.ones(3))
    pab = rng.dirichlet(np.ones(8)).reshape(2, 4)
    table = px[:, None, None] * pab[None]
    g = DensityGrid(
        (index_axis("X", 3), index_axis("A", 2), index_axis("B", 4)), table
    )
    report = verify_intersection(g)
    assert report.premises_hold
    assert report.conclusion.holds
    assert report.implication_holds and not report.vacuous


def test_diagonal_coupling_violates_implication():
    # X = A = B uniform on {0, 1}: given B both X and A are constants, so the
    # premises hold exactly, yet X determines (A, B)
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = table[1, 1, 1] = 0.5
    g = DensityGrid(
        (index_axis("X", 2), index_axis("A", 2), index_axis("B", 2)), table
    )
    report = verify_intersection(g)
    assert report.premise_xa.deviation <= 1e-15
    assert report.premise_xb.deviation <= 1e-15
    assert not report.conclusion.holds
    assert report.conclusion.deviation == pytest.approx(0.5)
    assert not report.implication_holds and not report.vacuous


def test_failed_premise_makes_the_implication_vacuous():
    # X = A with full (A, B) support: the first premise fails outright
    table = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            table[a, a, b] = 0.25
    g = DensityGrid(
        (index_axis("X", 2), index_axis("A", 2), index_axis("B", 2)), table
    )
    report = verify_intersection(g)
    assert not report.premise_xa.holds
    assert not report.conclusion.holds
    assert report.implication_holds and report.vacuous


def test_class_mixture_premises_hold_by_construction():
    rng = np.random.default_rng(11)
    for _ in range(25):
        cells, asg = random_multiclass_mask(rng, 4, 5)
        g, _ = class_mixture_grid(cells, 3, rng)
        report = verify_intersection(g)
        assert report.premise_xa.deviation <= 1e-12
        assert report.premise_xb.deviation <= 1e-12
        names, shape, mass = oracles.dict_grid(g.axis_names, g.prob.tolist())
        ref = oracles.o_ci_tv(names, shape, mass, "X", ("A", "B"), ())
        assert report.conclusion.deviation == pytest.approx(ref, abs=1e-12)


def test_single_class_mixture_forces_the_conclusion():
    rng = np.random.default_rng(19)
    for _ in range(25):
        cells = rng.random((4, 4)) < 0.6
        if not cells.any():
            continue
        asg = layouts.mask_classes(cells)
        if asg.class_count != 1:
            continue
        g, _ = class_mixture_grid(cells, 3, rng)
        report = verify_intersection(g)
        assert report.premises_hold
        assert report.conclusion.deviation <= 1e-12
        assert report.implication_holds and not report.vacuous


# -- the weak form --------------------------------------------------------------


def test_weak_form_survives_on_mixture_grids():
    rng = np.random.default_rng(23)
    for _ in range(25):
        cells, asg = random_multiclass_mask(rng, 4, 5)
        g, _ = class_mixture_grid(cells, 3, rng)
        weak = verify_weak_intersection(g)
        assert weak.holds
        assert weak.residual <= 1e-12
        assert set(weak.per_class) == {
            ((), cls) for cls in range(1, asg.class_count + 1)
        }


def test_weak_form_requires_the_premises():
    table = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            table[a, a, b] = 0.25
    g = DensityGrid(
        (index_axis("X", 2), index_axis("A", 2), index_axis("B", 2)), table
    )
    with pytest.raises(PremiseViolated):
        verify_weak_intersection(g)


# -- attaching a class-driven variable ------------------------------------------


def test_attach_matches_hand_construction():
    base = mask_grid(layouts.two_block_mask(4))
    noise = (-0.1, 0.0, 0.1)
    probs = (0.25, 0.5, 0.25)
    out = attach_class_variable(
        base, lambda c, uc: 10.0 if uc == 1 else 0.0, noise, probs
    )
    assert out.axis_names == ("X", "A", "B")
    assert out.axes[0].points == (-0.1, 0.0, 0.1, 9.9, 10.0, 10.1)
    # block 1 (uc = 1) carries the 10-band, block 2 the 0-band
    expect = np.zeros((6, 4, 4))
    for i, j in np.argwhere(layouts.two_block_mask(4)):
        shift = 3 if i < 2 else 0
        for k, p in enumerate(probs):
            expect[shift + k, i, j] = 0.125 * p
    assert np.allclose(out.prob, expect, atol=1e-15)


def test_attach_conserves_the_base_margin():
    rng = np.random.default_rng(29)
    cells, _ = random_multiclass_mask(rng, 5, 5)
    base = mask_grid(cells, rng.uniform(0.1, 1.0, (5, 5)))
    out = attach_class_variable(base, lambda c, uc: float(3 * uc), (-0.05, 0.05))
    back = marginalize(out, ("A", "B"))
    assert np.allclose(back.prob, base.prob, atol=1e-15)
    assert out.prob.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "names", [("A", "B"), ("A", "B", "C"), ("C1", "A", "C2", "B")]
)
def test_attach_matches_per_cell_reference(names):
    rng = np.random.default_rng(len(names))
    most_classes = 0
    for _ in range(5):
        shape = tuple(
            int(rng.integers(4, 9) if n in ("A", "B") else rng.integers(2, 5))
            for n in names
        )
        table = np.where(rng.random(shape) < 0.2, rng.uniform(0.1, 1.0, shape), 0.0)
        table[(0,) * len(names)] = 1.0
        cond_axes = [k for k, n in enumerate(names) if n not in ("A", "B")]
        if cond_axes:  # empty conditioning cells: bin 1 of the first C axis
            empty = [slice(None)] * len(names)
            empty[cond_axes[0]] = 1
            table[tuple(empty)] = 0.0
        base = DensityGrid(
            tuple(index_axis(n, k) for n, k in zip(names, shape)), table / table.sum()
        )
        calls = []

        def g(c_cell, uc):
            calls.append((c_cell, uc))
            return float(uc) + sum(10.0 ** (k + 1) * v for k, v in enumerate(c_cell))

        out = attach_class_variable(base, g, (-0.1, 0.0, 0.1), (0.25, 0.5, 0.25))
        assignments = classes_per_c(base, "A", "B")
        assert sorted(calls) == [
            (cell, cls)
            for cell, asg in sorted(assignments.items())
            for cls in range(1, asg.class_count + 1)
        ]
        ref = oracles.attach_reference(
            base, assignments, g, (-0.1, 0.0, 0.1), (0.25, 0.5, 0.25), "A", "B", "X"
        )
        assert out.axes == ref.axes
        assert np.array_equal(out.prob, ref.prob)
        most_classes = max(
            most_classes, *(asg.class_count for asg in assignments.values())
        )
    assert most_classes >= 2


def test_attach_rejects_name_collisions_and_bad_noise():
    base = mask_grid(layouts.two_block_mask(4))
    with pytest.raises(ShapeMismatch):
        attach_class_variable(base, lambda c, uc: 0.0, (0.0,), name="A")
    with pytest.raises(ShapeMismatch):
        attach_class_variable(base, lambda c, uc: 0.0, ())
    with pytest.raises(ShapeMismatch):
        attach_class_variable(base, lambda c, uc: 0.0, (0.0, 0.1), (1.0,))
    # the probabilities are a distribution, as a NoiseSpec's are; the points
    # need not increase or be centred
    for probs, error in [
        ((1.5, -0.5), NegativeMass),
        ((float("nan"), 1.0), NotNormalized),
        ((0.5, 0.6), NotNormalized),
        ((1e308, 1e308), NotNormalized),
    ]:
        with pytest.raises(error, match="noise probabilit"):
            attach_class_variable(base, lambda c, uc: float(uc), (0.0, 0.0), probs)


def test_existing_axis_is_refused_before_classes(monkeypatch):
    # conditioning on X leaves one class per cell, so computing classes
    # first would report SingleClass instead of the clash
    rng = np.random.default_rng(7)
    base, _ = class_mixture_grid(np.ones((3, 3), dtype=bool), 2, rng)

    def no_classes(*args, **kwargs):
        raise AssertionError("classes computed before the name check")

    monkeypatch.setattr(intersection_module, "_class_assignments", no_classes)
    with pytest.raises(ShapeMismatch, match="axis 'X' already exists"):
        construct_adversary(base)
    with pytest.raises(ShapeMismatch, match="axis 'X' already exists"):
        attach_class_variable(base, lambda c, uc: 0.0, (0.0,))


# -- the adversary ---------------------------------------------------------------


def test_adversary_on_the_two_block_grid():
    base = mask_grid(layouts.two_block_mask())
    adv = construct_adversary(base)
    assert adv.axis_names == ("X", "A", "B")
    report = verify_intersection(adv)
    assert report.premises_hold
    assert report.premise_xa.deviation <= 1e-12
    assert report.premise_xb.deviation <= 1e-12
    assert not report.implication_holds
    # equal block masses: w = 1/2, so the conclusion deviation is 2w(1-w)
    assert report.conclusion.deviation == pytest.approx(0.5)


def test_adversary_conclusion_matches_the_mass_split():
    rng = np.random.default_rng(31)
    for _ in range(15):
        cells, asg = random_multiclass_mask(rng, 4, 4)
        masses = rng.uniform(0.1, 1.0, (4, 4))
        base = mask_grid(cells, masses)
        adv = construct_adversary(base)
        w = float(base.prob[asg.uc == 1].sum())
        dev = is_ci(adv, "X", ("A", "B")).deviation
        assert dev == pytest.approx(2.0 * w * (1.0 - w), abs=1e-12)
        assert is_ci(adv, "X", "B").pointwise_deviation >= max(w, 1.0 - w) / 5.0 - 1e-12


def test_adversary_with_skewed_masses_still_violates():
    # nearly all mass on class 1: the summed deviation shrinks to 2w(1-w)
    # but the pointwise residual stays >= max(w, 1-w)/5
    masses = np.where(layouts.two_block_mask(4), 0.0, 0.0)
    masses[:2, :2] = 0.99 / 4
    masses[2:, 2:] = 0.01 / 4
    base = mask_grid(layouts.two_block_mask(4), masses)
    adv = construct_adversary(base)
    dev = is_ci(adv, "X", ("A", "B")).deviation
    assert dev == pytest.approx(2.0 * 0.99 * 0.01, abs=1e-12)
    assert dev < 0.1
    assert is_ci(adv, "X", "B").pointwise_deviation >= 0.99 / 5.0 - 1e-12
    assert not is_ci(adv, "X", ("A", "B")).holds


def test_adversary_targets_a_specific_conditioning_cell():
    blocks = layouts.two_block_mask(4).astype(float)
    table = np.stack([np.full((4, 4), 1.0), blocks], axis=-1)
    table /= table.sum()
    base = DensityGrid(
        (index_axis("A", 4), index_axis("B", 4), index_axis("C", 2)), table
    )
    adv = construct_adversary(base, target_c={"C": 1})
    report = verify_intersection(adv, cond=("C",))
    assert report.premises_hold and not report.implication_holds
    with pytest.raises(SingleClass):
        construct_adversary(base, target_c={"C": 0})
    with pytest.raises(ShapeMismatch):
        construct_adversary(base, target_c={})
    with pytest.raises(ShapeMismatch):
        construct_adversary(base, target_c={"C": 1, "B": 0})


def test_adversary_requires_two_classes():
    with pytest.raises(SingleClass):
        construct_adversary(mask_grid(np.ones((3, 3), dtype=bool)))


def test_adversary_rejects_zero_mass_target():
    blocks = layouts.two_block_mask(4).astype(float)
    table = np.stack([blocks, np.zeros((4, 4))], axis=-1)
    table /= table.sum()
    base = DensityGrid(
        (index_axis("A", 4), index_axis("B", 4), index_axis("C", 2)), table
    )
    with pytest.raises(SingleClass):
        construct_adversary(base, target_c={"C": 1})


def test_adversary_on_a_tiny_conditioning_cell():
    # C=1 holds 1e-13: the classes see two of them there, and the CI checks
    # of the adversary must see the same cell
    base = layouts.tiny_cell_grid()
    assert intersection_condition(base).failing_c == (1,)
    adv = construct_adversary(base)
    report = verify_intersection(adv, cond=("C",))
    assert report.premises_hold and not report.conclusion.holds
    assert max(report.premise_xa.deviation, report.premise_xb.deviation) <= 1e-9
    assert report.conclusion.witness[2] == (1,)
    assert is_ci(adv, "X", "B", ("C",)).pointwise_deviation >= 0.1 * (1.0 - 1e-9)


def test_adversary_refuses_an_output_over_the_grid_budget(monkeypatch):
    base = mask_grid(layouts.two_block_mask())
    # below either output, which adds an X axis to the base
    monkeypatch.setattr(grids_module, "MAX_GRID_CELLS", base.prob.size)
    with pytest.raises(BudgetExceeded, match="exceeds the limit"):
        construct_adversary(base)
    with pytest.raises(BudgetExceeded, match="exceeds the limit"):
        attach_class_variable(base, lambda c_cell, uc: float(uc), (-0.1, 0.1))
    monkeypatch.setattr(grids_module, "MAX_GRID_CELLS", 10 * base.prob.size)
    assert construct_adversary(base).prob.size == 10 * base.prob.size


def test_adversary_is_deterministic():
    base = mask_grid(layouts.two_block_mask())
    one = construct_adversary(base)
    two = construct_adversary(base)
    assert one.axes == two.axes
    assert np.array_equal(one.prob, two.prob)


def test_adversary_postconditions_raise(monkeypatch):
    # a margin below the guaranteed 0.1 is reported with the measured values,
    # also under python -O
    ask = intersection_module.is_ci
    monkeypatch.setattr(
        intersection_module,
        "is_ci",
        lambda *args: dataclasses.replace(ask(*args), pointwise_deviation=0.0),
    )
    with pytest.raises(AdversaryCheckFailed) as info:
        construct_adversary(mask_grid(layouts.two_block_mask()))
    assert info.value.margin == 0.0
    assert info.value.dev_xa <= 1e-12 and info.value.dev_xb <= 1e-12
    assert not isinstance(info.value, AssertionError)


def test_adversary_satisfies_the_weak_form():
    rng = np.random.default_rng(37)
    for _ in range(10):
        cells, _ = random_multiclass_mask(rng, 4, 4)
        adv = construct_adversary(mask_grid(cells))
        weak = verify_weak_intersection(adv)
        assert weak.holds and weak.residual <= 1e-12


def test_adversary_verify_and_weak_form_ask_four_questions(monkeypatch):
    # the adversary checks both premises, the margin and the conclusion;
    # verifying it and its weak form ask three of them again, and get the
    # kept answers
    passes = []
    kernel = grids_module._ci_pass
    monkeypatch.setattr(
        grids_module, "_ci_pass", lambda *args: passes.append(args[1:]) or kernel(*args)
    )
    adv = construct_adversary(layouts.sliced_grid(np.random.default_rng(3)))
    report = verify_intersection(adv, cond=("C1", "C2"))
    weak = verify_weak_intersection(adv)
    assert report.premises_hold and not report.implication_holds and weak.holds
    assert len(passes) == len(set(passes)) == 4


# -- verdict vs. adversary: the two sides of the criterion -----------------------


def test_verdict_decides_adversary_existence_on_small_masks():
    """On every nonempty 3x3 support: multi-class <=> an adversary exists."""
    for bits in range(1, 512):
        cells = np.array(
            [(bits >> k) & 1 for k in range(9)], dtype=bool
        ).reshape(3, 3)
        g = mask_grid(cells)
        verdict = intersection_condition(g)
        if verdict.holds:
            with pytest.raises(SingleClass):
                construct_adversary(g)
        else:
            adv = construct_adversary(g)
            names, shape, mass = oracles.dict_grid(adv.axis_names, adv.prob.tolist())
            assert oracles.o_ci_tv(names, shape, mass, "X", "A", ("B",)) <= 1e-12
            assert oracles.o_ci_tv(names, shape, mass, "X", "B", ("A",)) <= 1e-12
            assert oracles.o_ci_tv(names, shape, mass, "X", ("A", "B"), ()) > 1e-6


# -- one class table per question ------------------------------------------------


def counted_class_kernel(monkeypatch):
    """The slice count of each class-kernel call from now on, as a growing list."""
    calls = []
    kernel = intersection_module._class_assignments

    def counted(k, i, j, n_c, shape):
        calls.append(n_c)
        return kernel(k, i, j, n_c, shape)

    monkeypatch.setattr(intersection_module, "_class_assignments", counted)
    return calls


def class_table(grid, cond):
    found = intersection_module._class_table(grid, "A", "B", cond)
    return found.cells, *(a.tolist() for a in found[1:5]), found.shape


def test_a_grid_computes_its_classes_once(monkeypatch):
    grid = layouts.sliced_grid(np.random.default_rng(3))
    calls = counted_class_kernel(monkeypatch)
    verdict = intersection_condition(grid)
    construct_adversary(grid)
    per_c = classes_per_c(grid, "A", "B")
    assert len(calls) == 1
    assert {c: asg.class_count for c, asg in per_c.items()} == dict(
        verdict.per_c_class_counts
    )


def test_the_order_of_the_names_adds_no_class_table():
    grid = layouts.sliced_grid(np.random.default_rng(5))
    first = class_table(grid, ("C1", "C2"))
    assert len(grid._answers) == 1
    assert class_table(grid, ("C2", "C1")) == first
    assert class_table(grid, None) == first
    intersection_condition(grid, "A", "B", ("C2", "C1"))
    assert len(grid._answers) == 1
    # the CI question with the same roles is another question
    is_ci(grid, "A", "B", ("C1", "C2"))
    assert len(grid._answers) == 2
    assert class_table(grid, None) == first
    # the kept table is read-only
    with pytest.raises(ValueError):
        next(iter(classes_per_c(grid, "A", "B").values()))._classes[0] = 7


def test_the_weak_form_of_an_adversary_reads_its_classes(monkeypatch):
    adv = construct_adversary(layouts.sliced_grid(np.random.default_rng(11)))
    fresh = grids_module._from_support(adv.axes, *adv._support)
    assert "_answers" not in vars(fresh)
    calls = counted_class_kernel(monkeypatch)
    kept = verify_weak_intersection(adv)
    assert calls == []
    rebuilt = verify_weak_intersection(fresh)
    assert len(calls) == 1

    def hexes(report):
        return {key: value.hex() for key, value in report.per_class.items()}

    assert hexes(kept) == hexes(rebuilt)


@pytest.mark.parametrize("probs, kernel_calls", [(None, 0), ((0.25, 0.0, 0.75), 1)])
def test_an_attached_variable_has_the_classes_of_its_base(
    probs, kernel_calls, monkeypatch
):
    # with a zero weight a base cell could lose its mass, so the result
    # computes its own classes
    base = layouts.sliced_grid(np.random.default_rng(0))
    result = attach_class_variable(
        base, lambda c, k: float(k + sum(c)), (0.0, 0.5, 3.0), probs
    )
    fresh = grids_module._from_support(result.axes, *result._support)
    calls = counted_class_kernel(monkeypatch)
    assert class_table(result, ("C1", "C2")) == class_table(base, None)
    assert len(calls) == kernel_calls
    assert class_table(fresh, ("C1", "C2")) == class_table(base, None)


def test_an_attached_variable_that_loses_a_cell_has_its_own_classes():
    # 5e-324 * 0.2 rounds to 0, so the tiny cell drops out of the result,
    # and with it the class it alone makes
    table = np.zeros((3, 3))
    table[0, 0], table[2, 2] = 5e-324, 1.0
    base = DensityGrid((index_axis("A", 3), index_axis("B", 3)), table)
    assert intersection_condition(base).per_c_class_counts == {(): 2}
    result = attach_class_variable(base, lambda c, k: 0.0, np.linspace(-0.1, 0.1, 5))
    assert result._support[0].size == 5
    assert intersection_condition(result, "A", "B", ()).per_c_class_counts == {(): 1}


# -- one way to name a role ----------------------------------------------------


def answers(grid, a, b):
    """Every answer the class and intersection entries give for roles a, b."""
    adv = construct_adversary(grid, None, a, b)
    attached = attach_class_variable(grid, lambda c, uc: float(uc), (0.0,), None, a, b)
    per_c = classes_per_c(grid, a, b)
    return (
        intersection_condition(grid, a, b),
        {c: (asg.class_count, asg.proj_a, asg.proj_b) for c, asg in per_c.items()},
        [arr.tolist() for arr in (*adv._support, *attached._support)],
        verify_intersection(adv, "X", a, b, ("C1", "C2")),
        verify_weak_intersection(adv, "X", a, b),
    )


def test_a_role_of_one_name_is_the_name():
    grid = layouts.sliced_grid(np.random.default_rng(3))
    assert answers(grid, ("A",), ["B"]) == answers(grid, "A", "B")
    assert answers(grid, ["B"], ("A",)) == answers(grid, "B", "A")


def test_a_class_role_names_one_axis():
    adv = construct_adversary(layouts.sliced_grid(np.random.default_rng(3)))
    asks = [
        lambda: intersection_condition(adv, ("A", "X"), "B"),
        lambda: classes_per_c(adv, "B", ("A", "X")),
        lambda: attach_class_variable(
            adv, lambda c, uc: 0.0, (0.0,), None, ("A", "X"), "B", "Y"
        ),
        lambda: construct_adversary(adv, None, ("A", "X"), "B", "Y"),
    ]
    for ask in asks:
        with pytest.raises(ShapeMismatch, match="must each name one axis"):
            ask()
