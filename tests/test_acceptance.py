"""Acceptance gate: one test per published behavioral guarantee.

Each test prints a single ``[acceptance] criterion N (label): PASS/FAIL``
line (run with ``pytest -s`` to see them live); a FAIL line is always
followed by the underlying assertion error.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

from ciprop import (
    AffineMechanism,
    Axis,
    Dag,
    DensityGrid,
    NoiseSpec,
    SemSpec,
    attach_class_variable,
    classes_per_c,
    condition,
    construct_adversary,
    example1,
    example1_alternative,
    intersection_condition,
    is_ci,
    joint_support_components,
    label_support_nd,
    marginalize,
    non_constancy_check,
    propagate,
    verify_weak_intersection,
)

import layouts
import oracles


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {n} ({label}): PASS")


@pytest.fixture(scope="module")
def ex1():
    sem = example1()
    return sem, propagate(sem)


def index_axis(name, n):
    return Axis(name, tuple(float(k) for k in range(n)))


def mask_grid(cells):
    cells = np.asarray(cells, dtype=bool)
    table = cells / cells.sum()
    return DensityGrid(
        (index_axis("A", cells.shape[0]), index_axis("B", cells.shape[1])), table
    )


def all_3x3_masks():
    """All 512 boolean 3x3 tables with their support class counts."""
    out = []
    for bits in range(512):
        cells = np.array([(bits >> k) & 1 for k in range(9)], dtype=bool)
        cells = cells.reshape(3, 3)
        if cells.any():
            classes = layouts.mask_classes(cells).class_count
        else:
            classes = 0
        out.append((cells, classes))
    return out


def test_criterion_1_benchmark_chain_ci_profile():
    with criterion(1, "benchmark chain CI profile"):
        start = time.perf_counter()
        grid = propagate(example1(step=0.1))
        assert is_ci(grid, "X", "A", ("B",)).deviation <= 1e-9
        assert is_ci(grid, "X", "B", ("A",)).deviation <= 1e-9
        assert is_ci(grid, "X", "A").deviation >= 0.1
        assert is_ci(grid, "X", "B").deviation >= 0.1
        assert time.perf_counter() - start < 5.0


def test_criterion_2_benchmark_support_topology(ex1):
    with criterion(2, "benchmark support topology"):
        _, grid = ex1
        classes = classes_per_c(grid, "A", "B", ())[()]
        assert label_support_nd(classes.uc > 0)[1] == 2
        assert classes.class_count == 2
        assert not intersection_condition(grid, "A", "B", cond=()).holds


def test_criterion_3_block_layout_classes():
    with criterion(3, "block-layout classes"):
        cells = layouts.seven_block_mask()
        assert layouts.mask_classes(cells).class_count == 3
        assert label_support_nd(cells)[1] == oracles.flood_recursive(cells.tolist())


def test_criterion_4_exhaustive_adversary_construction():
    with criterion(4, "exhaustive adversary construction"):
        start = time.perf_counter()
        built = 0
        for cells, classes in all_3x3_masks():
            if classes < 2:
                continue
            adv = construct_adversary(mask_grid(cells))
            assert is_ci(adv, "X", "A", ("B",)).deviation <= 1e-9
            assert is_ci(adv, "X", "B", ("A",)).deviation <= 1e-9
            conclusion = is_ci(adv, "X", ("A", "B"))
            assert conclusion.deviation >= 0.1
            assert not conclusion.holds
            built += 1
        assert built == 114  # 108 two-class + 6 three-class supports
        assert time.perf_counter() - start < 60.0


def test_criterion_5_holding_direction_and_weak_form():
    with criterion(5, "holding direction and weak form"):
        rng = np.random.default_rng(2024)
        masks = all_3x3_masks()
        one_class = [cells for cells, classes in masks if classes == 1]
        multi = [cells for cells, classes in masks if classes >= 2]
        assert len(one_class) == 397 and len(multi) == 114

        noise = tuple(np.linspace(-0.1, 0.1, 5))
        levels = (-2.0, -1.0, 0.0, 1.0, 3.0)
        for cells in one_class:
            base = mask_grid(cells)
            for _ in range(20):
                level = float(rng.choice(levels))
                probs = tuple(rng.dirichlet(np.ones(5)) * 0.9 + 0.02)
                joint = attach_class_variable(
                    base, lambda c, uc: level, noise, probs
                )
                assert is_ci(joint, "X", "A", ("B",)).deviation <= 1e-9
                assert is_ci(joint, "X", "B", ("A",)).deviation <= 1e-9
                assert is_ci(joint, "X", ("A", "B")).deviation <= 1e-9

        # a two-valued conditioning variable pairing one-class supports:
        # the attached level may vary with C yet every verdict must hold
        for k in range(0, len(one_class), 8):
            first = one_class[k]
            second = one_class[int(rng.integers(len(one_class)))]
            table = np.stack(
                [first / (2.0 * first.sum()), second / (2.0 * second.sum())],
                axis=-1,
            )
            base = DensityGrid(
                (index_axis("A", 3), index_axis("B", 3), index_axis("C", 2)),
                table,
            )
            chosen = rng.choice(levels, size=2)
            joint = attach_class_variable(
                base, lambda c, uc: float(chosen[c[0]]), noise
            )
            assert is_ci(joint, "X", "A", ("B", "C")).deviation <= 1e-9
            assert is_ci(joint, "X", "B", ("A", "C")).deviation <= 1e-9
            assert is_ci(joint, "X", ("A", "B"), ("C",)).deviation <= 1e-9

        for cells in multi:
            adv = construct_adversary(mask_grid(cells))
            weak = verify_weak_intersection(adv)
            assert weak.holds
            assert not is_ci(adv, "X", ("A", "B")).holds


def random_progression_sem(rng):
    """Random model whose noises are single runs on a shared lattice step.

    Affine mechanisms with total slope below 0.9 keep each one-noise-step
    perturbation inside one output bin, so the pushforward support stays
    face-connected; output axes tile a conservative interval bound.
    """
    step = 0.1
    n_nodes = int(rng.integers(1, 4))
    names = [f"V{k}" for k in range(n_nodes)]
    parents = {
        node: tuple(p for p in names[:i] if rng.random() < 0.6)
        for i, node in enumerate(names)
    }
    noises, axes, mechanisms, bounds = {}, {}, {}, {}
    for node in names:
        k = int(rng.integers(3, 6))
        pts = np.arange(k) * step
        probs = rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k
        pts = pts - float(probs @ pts)
        noises[node] = NoiseSpec(tuple(pts), tuple(probs))
        lo, hi = pts[0], pts[-1]
        if parents[node]:
            raw = rng.uniform(-1.0, 1.0, len(parents[node]))
            scale = 0.9 * rng.uniform(0.3, 1.0) / np.abs(raw).sum()
            coeffs = {p: float(w * scale) for p, w in zip(parents[node], raw)}
            intercept = float(rng.uniform(-1.0, 1.0))
            mechanisms[node] = AffineMechanism(intercept, coeffs)
            lo = lo + intercept
            hi = hi + intercept
            for p, c in coeffs.items():
                lo += min(c * bounds[p][0], c * bounds[p][1])
                hi += max(c * bounds[p][0], c * bounds[p][1])
        bounds[node] = (lo, hi)
        first = (np.floor(lo / step) - 1.0) * step
        count = int(np.ceil(hi / step) + 1.0 - (np.floor(lo / step) - 1.0))
        axes[node] = Axis(node, tuple(first + t * step for t in range(count + 1)))
    return SemSpec(Dag(tuple(names), parents), noises, mechanisms, axes)


def test_criterion_6_connected_support_models(ex1):
    with criterion(6, "connected-support models"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(100):
            sem = random_progression_sem(rng)
            assert joint_support_components(propagate(sem)) == 1
        _, grid = ex1
        assert joint_support_components(grid) >= 2
        assert time.perf_counter() - start < 60.0


def test_criterion_7_non_constancy_and_dependence(ex1):
    with criterion(7, "non-constancy and dependence"):
        sem, grid = ex1
        monotone = SemSpec(
            sem.dag,
            sem.noises,
            {**sem.mechanisms, "X": AffineMechanism(0.0, {"B": 1.0})},
            {
                **sem.axes,
                "X": Axis("X", tuple(-2.6 + 0.1 * k for k in range(53))),
            },
        )
        pushed = propagate(monotone)
        assert non_constancy_check(monotone, "X", "B", pushed).holds
        verdict = is_ci(pushed, "X", "B", ("A",))
        assert not verdict.holds and verdict.deviation > 0.01
        assert not non_constancy_check(sem, "X", "B", grid).holds


def test_criterion_8_equivalent_model_pushforwards(ex1):
    with criterion(8, "equivalent-model pushforwards"):
        sem, grid = ex1
        alt = example1_alternative()
        assert alt.dag.parents != sem.dag.parents
        alt_grid = propagate(alt)
        assert alt_grid.axes == grid.axes  # equal binning
        assert 0.5 * float(np.abs(alt_grid.prob - grid.prob).sum()) <= 1e-9


def hand_fixtures():
    """Small three-variable tables with literal entries."""
    product = np.zeros((2, 2, 2))
    for x in range(2):
        for a in range(2):
            for b in range(2):
                product[x, a, b] = (0.3, 0.7)[x] * (0.4, 0.6)[a] * (0.5, 0.5)[b]
    diagonal = np.zeros((2, 2, 2))
    diagonal[0, 0, 0] = diagonal[1, 1, 1] = 0.5
    copy_of_a = np.zeros((2, 2, 2))
    copy_of_a[0, 0, 0] = copy_of_a[0, 0, 1] = 0.25
    copy_of_a[1, 1, 0] = copy_of_a[1, 1, 1] = 0.25
    lopsided = np.array(
        [0.05, 0.1, 0.15, 0.2, 0.05, 0.15, 0.1, 0.2]
    ).reshape(2, 2, 2)
    return (product, diagonal, copy_of_a, lopsided)


def test_criterion_9_brute_force_oracle_agreement():
    with criterion(9, "brute-force oracle agreement"):
        worst = 0.0
        for table in hand_fixtures():
            g = DensityGrid(
                (index_axis("X", 2), index_axis("A", 2), index_axis("B", 2)),
                table,
            )
            names, shape, mass = oracles.dict_grid(g.axis_names, table.tolist())
            for keep in (("X",), ("A",), ("B",), ("X", "A"), ("A", "B"), ("X", "B")):
                got = marginalize(g, keep)
                _, _, ref = oracles.o_marginal(names, shape, mass, keep)
                for idx in np.ndindex(*got.prob.shape):
                    worst = max(worst, abs(got.prob[idx] - ref.get(idx, 0.0)))
            for axis in names:
                for b in range(2):
                    block = marginalize(g, (axis,)).prob
                    if block[b] <= 1e-12:
                        continue
                    got = condition(g, {axis: b})
                    _, _, ref = oracles.o_condition(names, shape, mass, {axis: b})
                    for idx in np.ndindex(*got.prob.shape):
                        worst = max(worst, abs(got.prob[idx] - ref.get(idx, 0.0)))
            for x, a, c in permutations(names):
                got = is_ci(g, x, a, (c,)).deviation
                worst = max(worst, abs(got - oracles.o_ci_tv(names, shape, mass, x, a, (c,))))
                got = is_ci(g, x, a).deviation
                worst = max(worst, abs(got - oracles.o_ci_tv(names, shape, mass, x, a, ())))
        assert worst <= 1e-12
