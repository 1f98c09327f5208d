"""The three benchmark workloads and the checks behind ``fail_ratio``.

Each workload is built once from the seed (set-up) and then runs whole
iterations through a :class:`Runner`.  One op is one top-level call: a
public ``ciprop`` library call, or one ``ciprop.cli.run(argv)`` command.
Every op's output is checked against a verdict fixed in advance; an op
that raises, returns a wrong exit code or gives a wrong verdict counts as
failed.  Outputs that must not change between iterations (or between the
traced and the untraced iterations) are compared with the first value
seen.

Library calls always go through the module attribute (``cp.propagate``),
never through a name bound here, so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import ciprop as cp
import ciprop.cli

import hostspeed

PREMISE_TOL = 1e-9
VALUE_TOL = 1e-9


class OpAborted(Exception):
    """An op raised; the rest of the iteration depends on its output."""


class Runner:
    """Times ops, runs their checks and counts failures.

    Each op's time is also scaled to the reference host (``hostspeed``),
    by a probe run right after the op; probe and check times are left out
    of the iteration's wall time.
    """

    def __init__(self) -> None:
        self.timing = False
        self.latencies_ms: list[float] = []
        self.scaled_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.check_s = 0.0
        self.probe_s = 0.0
        self._op_s = 0.0
        self._scaled_s = 0.0
        self.tracer = None
        self._reference: dict[str, object] = {}

    def op(self, name, fn, *args, check=None):
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.span("bench." + name):
                    result = fn(*args)
            else:
                result = fn(*args)
        except Exception as exc:  # an op failure is counted, not fatal
            self._fail(name, f"raised {type(exc).__name__}: {exc}")
            raise OpAborted(name) from exc
        elapsed = perf_counter() - t0
        slowdown, probe_s = hostspeed.slowdown(hostspeed.SHARE * elapsed)
        self.probe_s += probe_s
        self._op_s += elapsed
        self._scaled_s += elapsed / slowdown
        if self.timing:
            self.latencies_ms.append(elapsed * 1e3)
            self.scaled_ms.append(elapsed * 1e3 / slowdown)
        if check is not None:
            c0 = perf_counter()
            problem = check(result)
            self.check_s += perf_counter() - c0
            if problem:
                self._fail(name, problem)
        return result

    def iterate(self, workload) -> tuple[float, float]:
        """Wall time of one iteration, raw and scaled to the reference host.

        The time spent checking outputs and probing the host is left out;
        the scaled time is the raw one times the iteration's scaled over
        raw op time.
        """
        excluded = self.check_s + self.probe_s
        self._op_s = self._scaled_s = 0.0
        t0 = perf_counter()
        try:
            workload.iteration(self)
        except OpAborted:
            pass
        wall = perf_counter() - t0 - (self.check_s + self.probe_s - excluded)
        return wall, wall * (self._scaled_s / self._op_s if self._op_s else 1.0)

    def same(self, key: str, value) -> str | None:
        """None if ``value`` equals the first value recorded under ``key``."""
        first = self._reference.setdefault(key, value)
        if first == value:
            return None
        return f"{key} differs from its first value"

    def _fail(self, name: str, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {problem}")


def _problems(*pairs) -> str | None:
    """First message whose condition is false, or None."""
    for ok, message in pairs:
        if not ok:
            return message
    return None


def _grid_print(grid) -> tuple:
    prob = grid.prob
    return (grid.axis_names, prob.shape, int(np.count_nonzero(prob)), float(prob.sum()))


# -- example1_fine -------------------------------------------------------------


def _adversary_of_ab_marginal(grid):
    """One op: the adversary built on the (A, B) marginal of ``grid``."""
    return cp.construct_adversary(cp.marginalize(grid, ("A", "B")))


class Example1Fine:
    """The paper's chain/fork pair through the library API."""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        step = 0.1 if smoke else 0.02
        self.chain = cp.example1(step)
        self.fork = cp.example1_alternative(step)
        self.x_cells = 2 * len(self.chain.noises["X"].points)

    def close(self) -> None:
        pass

    def iteration(self, run: Runner) -> None:
        chain, fork = self.chain, self.fork
        sizes = tuple(chain.axes[n].size for n in ("A", "B", "X"))
        grid = run.op(
            "propagate_chain", cp.propagate, chain,
            check=lambda g: _problems(
                (g.axis_names == ("A", "B", "X") and g.prob.shape == sizes,
                 f"unexpected grid {g.axis_names} {g.prob.shape}"),
                (abs(float(g.prob.sum()) - 1.0) <= VALUE_TOL, "mass is not 1"),
            ) or run.same("chain grid", _grid_print(g)),
        )
        run.op(
            "propagate_fork", cp.propagate, fork,
            check=lambda g: None
            if g.axes == grid.axes and np.array_equal(g.prob, grid.prob)
            else "fork pushforward differs from the chain's",
        )
        run.op(
            "intersection_given_x", cp.intersection_condition, grid, "A", "B", ("X",),
            check=lambda v: _problems(
                (v.holds, "A,B | X should hold"),
                (len(v.per_c_class_counts) == self.x_cells,
                 f"{len(v.per_c_class_counts)} c-cells, expected {self.x_cells}"),
                (set(v.per_c_class_counts.values()) == {1}, "a c-cell has != 1 class"),
            ),
        )
        run.op(
            "intersection_marginal", cp.intersection_condition, grid, "A", "B", (),
            check=lambda v: _problems(
                (not v.holds and v.failing_c == (), "A,B | () should fail"),
                (dict(v.per_c_class_counts) == {(): 2}, "expected 2 classes"),
            ),
        )
        run.op(
            "noise_connected", cp.noise_support_path_connected, chain,
            check=lambda c: None
            if c == {"A": False, "B": True, "X": True}
            else f"noise connectivity {c}",
        )
        run.op(
            "joint_components", cp.joint_support_components, grid,
            check=lambda n: None if n == 2 else f"{n} joint components, expected 2",
        )
        for name, sem, node, parent, failing in (
            ("nonconst_chain_x_b", chain, "X", "B", ("A",)),
            ("nonconst_fork_x_a", fork, "X", "A", ("B",)),
            ("nonconst_chain_b_a", chain, "B", "A", None),
        ):
            run.op(
                name, cp.non_constancy_check, sem, node, parent, grid,
                check=lambda r, failing=failing: None
                if r.holds == (failing is None) and r.failing_set == failing
                else f"holds={r.holds} failing_set={r.failing_set}, expected {failing}",
            )
        for name, x, a, cond, holds in (
            ("is_ci_x_a_given_b", "X", "A", ("B",), True),
            ("is_ci_x_b_given_a", "X", "B", ("A",), True),
            ("is_ci_x_ab", "X", ("A", "B"), (), False),
        ):
            run.op(
                name, cp.is_ci, grid, x, a, cond,
                check=lambda r, holds=holds: None
                if r.holds == holds
                else f"holds={r.holds} deviation={r.deviation!r}",
            )
        run.op(
            "weak_intersection", cp.verify_weak_intersection, grid, "X", "A", "B",
            check=lambda r: None if r.holds else f"residual {r.residual!r}",
        )
        adversary = run.op(
            "construct_adversary", _adversary_of_ab_marginal, grid,
            check=lambda g: None
            if g.axis_names == ("X", "A", "B")
            else f"adversary axes {g.axis_names}",
        )
        run.op(
            "verify_adversary", cp.verify_intersection, adversary, "X", "A", "B", (),
            check=lambda r: _problems(
                (r.premise_xa.deviation <= PREMISE_TOL
                 and r.premise_xb.deviation <= PREMISE_TOL,
                 f"premises {r.premise_xa.deviation!r} {r.premise_xb.deviation!r}"),
                (not r.conclusion.holds
                 and abs(r.conclusion.deviation - 0.5) <= VALUE_TOL,
                 f"conclusion deviation {r.conclusion.deviation!r}, expected 0.5"),
            ),
        )


# -- sliced_supports -----------------------------------------------------------

# (C1, C2, A, B) bins of each grid in the batch: 48 to 160 c-cells, a
# quarter of them zero-mass, 32 to 64 bins per slice side, 1.0-1.3 MB each.
SLICED_SHAPES = ((8, 12, 36, 36), (10, 16, 32, 32), (6, 8, 64, 48), (8, 10, 40, 40))
SLICED_SMOKE_SHAPES = ((2, 2, 12, 12), (2, 3, 9, 12))


def _band_ranges(rng, n: int, k: int) -> list[tuple[int, int]]:
    """k disjoint (start, length) ranges, one per equal segment of [0, n)."""
    seg = n // k
    length = max(3, (3 * seg) // 4)
    return [(j * seg + int(rng.integers(0, seg - length + 1)), length) for j in range(k)]


def _band_mask(rng, rows: int, cols: int) -> np.ndarray:
    """One full row, one full column and a dashed diagonal.

    The full row meets every column and the full column every row, so all
    components of the block form one class; the dashes off the cross are
    components of their own.
    """
    mask = np.zeros((rows, cols), dtype=bool)
    mask[rng.integers(rows), :] = True
    mask[:, rng.integers(cols)] = True
    for i in range(rows):
        if (i // 3) % 2 == 0:
            j = round(i * (cols - 1) / (rows - 1))
            mask[i, max(0, j - 1) : j + 2] = True
    return mask


class SlicedCase:
    """One synthetic (A, B | C1, C2) grid with its known answers."""

    def __init__(self, rng, n_c1: int, n_c2: int, n_a: int, n_b: int) -> None:
        ks = np.resize(np.arange(4), n_c1 * n_c2)
        rng.shuffle(ks)
        table = np.zeros((n_a, n_b, n_c1 * n_c2))
        self.counts: dict[tuple[int, int], int] = {}
        first_share = {}
        for c, k in enumerate(ks):
            if k == 0:
                continue
            cell = divmod(c, n_c2)
            self.counts[cell] = int(k)
            shares = rng.uniform(0.5, 1.5, k)
            shares = shares / shares.sum() * rng.uniform(0.5, 1.5)
            for share, (r0, lr), (s0, ls) in zip(
                shares, _band_ranges(rng, n_a, k), _band_ranges(rng, n_b, k)
            ):
                mask = _band_mask(rng, lr, ls)
                weights = np.where(mask, rng.uniform(0.5, 1.5, mask.shape), 0.0)
                table[r0 : r0 + lr, s0 : s0 + ls, c] = weights / weights.sum() * share
            first_share[cell] = float(shares[0] / shares.sum())
        table /= table.sum()
        axes = tuple(
            cp.Axis(name, tuple(float(v) for v in range(size)))
            for name, size in (("A", n_a), ("B", n_b), ("C1", n_c1), ("C2", n_c2))
        )
        self.grid = cp.DensityGrid(axes, table.reshape(n_a, n_b, n_c1, n_c2))
        # the adversary targets the first multi-class c-cell; its class 1 is
        # the band holding the first support cell, the lowest one
        self.target = min(cell for cell, k in self.counts.items() if k >= 2)
        self.w = first_share[self.target]
        self.classes = sum(self.counts.values())


class SlicedSupports:
    """A seeded batch of sliced grids with known class counts."""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        shapes = SLICED_SMOKE_SHAPES if smoke else SLICED_SHAPES
        self.cases = [SlicedCase(rng, *shape) for shape in shapes]

    def close(self) -> None:
        pass

    def iteration(self, run: Runner) -> None:
        cond = ("C1", "C2")
        for i, case in enumerate(self.cases):
            w = case.w
            run.op(
                f"intersection_{i}", cp.intersection_condition, case.grid, "A", "B", cond,
                check=lambda v, case=case: _problems(
                    (dict(v.per_c_class_counts) == case.counts,
                     "per-c class counts differ from the bands laid out"),
                    (not v.holds and v.failing_c == case.target,
                     f"verdict holds={v.holds} failing_c={v.failing_c}"),
                ),
            )
            adversary = run.op(
                f"adversary_{i}", cp.construct_adversary, case.grid,
                check=lambda g: None
                if g.axis_names == ("X", "A", "B", "C1", "C2")
                else f"adversary axes {g.axis_names}",
            )
            run.op(
                f"verify_{i}", cp.verify_intersection, adversary, "X", "A", "B", cond,
                check=lambda r, w=w: _problems(
                    (r.premises_hold
                     and max(r.premise_xa.deviation, r.premise_xb.deviation) <= PREMISE_TOL,
                     "premises fail"),
                    (not r.conclusion.holds
                     and abs(r.conclusion.deviation - 2 * w * (1 - w)) <= VALUE_TOL,
                     f"conclusion deviation {r.conclusion.deviation!r}, "
                     f"expected 2w(1-w) = {2 * w * (1 - w)!r}"),
                    (r.conclusion.pointwise_deviation >= 0.1 * (1 - VALUE_TOL)
                     and abs(r.conclusion.pointwise_deviation - max(w, 1 - w) / 5)
                     <= VALUE_TOL,
                     f"margin {r.conclusion.pointwise_deviation!r}, "
                     f"expected max(w, 1-w)/5 = {max(w, 1 - w) / 5!r}"),
                ),
            )
            run.op(
                f"weak_{i}", cp.verify_weak_intersection, adversary, "X", "A", "B",
                check=lambda r, case=case: _problems(
                    (r.holds, f"weak form residual {r.residual!r}"),
                    (len(r.per_class) == case.classes,
                     f"{len(r.per_class)} classes checked, expected {case.classes}"),
                ),
            )


# -- cli_example1 --------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ciprop.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliExample1:
    """The user-facing command sequence on files in a work directory."""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.step = "0.1" if smoke else "0.05"
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def iteration(self, run: Runner) -> None:
        d = self.dir
        chain, fork = str(d / "chain.json"), str(d / "fork.json")
        grid_chain, grid_fork = d / "grid_chain.json", d / "grid_fork.json"
        adv = str(d / "adversary.json")

        def cmd(name, argv, expect_lines=(), extra=None):
            def check(result):
                code, out, err = result
                if code != 0:
                    return f"exit code {code}: {err.strip()[:200]}"
                lines = out.splitlines()
                for want in expect_lines:
                    if not any(line.startswith(want) for line in lines):
                        return f"no line starting {want!r}"
                return extra(out) if extra else None

            run.op(name, _cli, argv, check=check)

        cmd("sem_example1", ["sem", "example1", "--step", self.step, "-o", chain])
        cmd("sem_example1_alt", ["sem", "example1-alt", "--step", self.step, "-o", fork])
        cmd(
            "sem_propagate_chain", ["sem", "propagate", chain, "-o", str(grid_chain)],
            extra=lambda out: run.same("chain grid file", _sha(grid_chain)),
        )
        cmd(
            "sem_propagate_fork", ["sem", "propagate", fork, "-o", str(grid_fork)],
            extra=lambda out: run.same("fork grid file", _sha(grid_fork))
            or (None if grid_fork.read_bytes() == grid_chain.read_bytes()
                else "fork grid file differs from the chain's"),
        )
        ci_rows = ("X _||_ A | B: holds ", "X _||_ B | A: holds ", "X _||_ (A,B): FAILS ")
        cmd(
            "report_deterministic", ["report", "--deterministic", str(grid_chain)],
            expect_lines=("c-cell (-): components=2 classes=2", *ci_rows,
                          "intersection: FAILS"),
            extra=lambda out: run.same("report --deterministic", out),
        )
        cmd(
            "intersection_adversary", ["intersection", str(grid_chain), "-o", adv],
            expect_lines=("intersection: FAILS", "adversary grid written"),
        )
        cmd(
            "classes", ["classes", str(grid_chain)],
            expect_lines=("c-cell (-): components=2 classes=2",),
        )
        cmd(
            "weak_intersection", ["weak-intersection", adv],
            expect_lines=("weak intersection: holds",),
        )
        cmd(
            "report_adversary", ["report", adv],
            expect_lines=(*ci_rows, "intersection: FAILS", "wall clock:"),
        )
        cmd(
            "check_ci",
            ["check-ci", str(grid_chain), "--x", "X", "--a", "A", "--cond", "B",
             "--assert", "holds"],
            expect_lines=("X _||_ A | B: holds ",),
        )
        cmd(
            "check_prop3", ["sem", "check-prop3", chain],
            expect_lines=("joint support components: 2",
                          "path-connected joint support: no"),
        )
        cmd(
            "check_prop4_chain",
            ["sem", "check-prop4", chain, "--node", "X", "--parent", "B"],
            expect_lines=("no witness for C={A}", "non-constancy: FAILS"),
        )
        cmd(
            "check_prop4_fork",
            ["sem", "check-prop4", fork, "--node", "X", "--parent", "A"],
            expect_lines=("no witness for C={B}", "non-constancy: FAILS"),
        )


WORKLOADS = {
    "example1_fine": Example1Fine,
    "sliced_supports": SlicedSupports,
    "cli_example1": CliExample1,
}
