"""Command-line front end: load files, run analyses, print stable reports.

Exit codes: 0 success, 1 a ``--assert`` expectation failed, 2 usage error,
3 data error (unreadable or invalid input).  Reports are deterministic
given the same inputs and flags; the one wall-clock line in ``report`` is
suppressed under ``--deterministic``.

The topology subcommands (``components``, ``classes``, ``intersection``,
``adversary``, ``weak-intersection`` and ``report``) read the support as
the cells of positive mass and find the classes of all conditioning cells
in one pass over the grid's support cells, as one class table, and label
the components of all slices at once; ``--c`` finds those of its slice
alone, by ``condition``.  A grid keeps its class tables, so a command
computes its grid's classes once (``intersection -o`` once more, for its
marginal), and ``report`` takes its three CI rows from one
``verify_intersection``.  A given ``--x`` must name an axis; the default
``X`` may be absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from .errors import CipropError
from .grids import (
    DEFAULT_TOL,
    CiReport,
    DensityGrid,
    _roles,
    condition,
    grid_from_json,
    is_ci,
    load_grid,
    marginalize,
    save_grid,
)
from .intersection import (
    classes_per_c,
    construct_adversary,
    intersection_condition,
    verify_intersection,
    verify_weak_intersection,
)
from .sem import (
    example1,
    example1_alternative,
    joint_support_components,
    load_sem,
    non_constancy_check,
    noise_support_path_connected,
    propagate,
    save_sem,
)
from .topology import UcAssignment, _components, render_labels


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _parse_fixed(pairs: list[str] | None) -> dict[str, int]:
    fixed = {}
    for pair in pairs or []:
        name, eq, idx = pair.partition("=")
        if not eq or not name:
            raise _UsageError(f"expected axis=bin, got {pair!r}")
        if name in fixed:
            raise _UsageError(f"axis {name!r} given twice")
        try:
            fixed[name] = int(idx)
        except ValueError:
            raise _UsageError(f"bin index in {pair!r} is not an integer") from None
    return fixed


def _runs(bins: tuple[int, ...]) -> str:
    """Ascending bins, at least one, as runs: (0, 1, 2, 5) as '0-2,5'."""
    cuts = [k for k in range(1, len(bins)) if bins[k] != bins[k - 1] + 1]
    spans = zip([0, *cuts], [*cuts, len(bins)])
    return ",".join(
        f"{bins[lo]}-{bins[hi - 1]}" if hi - lo > 1 else f"{bins[lo]}"
        for lo, hi in spans
    )


def _cell_name(cell: tuple[int, ...]) -> str:
    return "(" + ",".join(str(v) for v in cell) + ")" if cell else "(-)"


def _ci_line(label: str, report: CiReport) -> str:
    status = "holds" if report.holds else "FAILS"
    return (
        f"{label}: {status} deviation={report.deviation:.6e} "
        f"pointwise_residual={report.pointwise_deviation:.6e} tol={report.tol:.1e}"
    )


def _finish(args: argparse.Namespace, holds: bool) -> int:
    expect = getattr(args, "assert_", None)
    if expect is None:
        return 0
    return 0 if holds == (expect == "holds") else 1


# -- subcommand handlers ---------------------------------------------------


def _cmd_check_ci(args: argparse.Namespace) -> int:
    grid = load_grid(args.grid)
    x = args.x if len(args.x) > 1 else args.x[0]
    a = args.a if len(args.a) > 1 else args.a[0]
    report = is_ci(grid, x, a, tuple(args.cond), args.tol)
    label = f"{'+'.join(args.x)} _||_ {'+'.join(args.a)} | {','.join(args.cond) or '-'}"
    print(_ci_line(label, report))
    print(f"witness: x={report.witness[0]} a={report.witness[1]} c={report.witness[2]}")
    return _finish(args, report.holds)


def _x_cond(args: argparse.Namespace, grid: DensityGrid) -> tuple[str, tuple[str, ...]]:
    """``--x``, X by default, and the conditioning axes; a given ``--x`` must exist."""
    x = "X" if args.x is None else grid.axis(args.x).name
    return x, tuple(n for n in grid.axis_names if n not in (args.a, args.b, x))


def _classes_by_cell(
    args: argparse.Namespace, grid: DensityGrid
) -> dict[tuple[int, ...], UcAssignment]:
    """Classes of every positive conditioning cell, or of the ``--c`` slice alone."""
    fixed = _parse_fixed(args.c)
    cond = _x_cond(args, grid)[1]
    if not fixed:
        return classes_per_c(grid, args.a, args.b, cond)
    _roles(grid, args.a, args.b, tuple(fixed))
    cell = tuple(fixed[n] for n in grid.axis_names if n in fixed)
    return {cell: classes_per_c(condition(grid, fixed), args.a, args.b, ())[()]}


def _component_labels(
    assignments: dict[tuple[int, ...], UcAssignment],
) -> tuple[list[np.ndarray], list[int]]:
    """Each slice's component labels of its support cells and its count of
    components, by one labelling of the slices stacked along A with an empty
    row after each, so that no face joins two; numbered by first cell, a
    slice's labels run on from the largest label before it."""
    slices = list(assignments.values())
    n_a, n_b = slices[0]._shape
    stride = (n_a + 1) * n_b
    cells = np.concatenate([asg._cells + k * stride for k, asg in enumerate(slices)])
    labels = _components(cells, (len(slices) * (n_a + 1), n_b))[0]
    ends = np.cumsum([asg._cells.size for asg in slices])
    top = np.maximum.accumulate(labels)[ends - 1]
    before = np.append(0, top[:-1])
    parts = zip(np.split(labels, ends[:-1]), before)
    return [p - b for p, b in parts], (top - before).tolist()


def _cmd_components(args: argparse.Namespace) -> int:
    grid = load_grid(args.grid)
    assignments = _classes_by_cell(args, grid)
    labels, counts = _component_labels(assignments)
    for (cell, asg), cell_labels, count in zip(assignments.items(), labels, counts):
        table = np.zeros(asg._shape, dtype=np.int64)
        table.flat[asg._cells] = cell_labels
        print(f"c-cell {_cell_name(cell)}: components={count}")
        print(render_labels(table))
    return 0


def _cmd_classes(args: argparse.Namespace) -> int:
    grid = load_grid(args.grid)
    assignments = _classes_by_cell(args, grid)
    counts = _component_labels(assignments)[1]
    single_class = True
    for (cell, assignment), count in zip(assignments.items(), counts):
        single_class = single_class and assignment.class_count <= 1
        print(
            f"c-cell {_cell_name(cell)}: components={count} "
            f"classes={assignment.class_count}"
        )
        for cls in range(1, assignment.class_count + 1):
            print(
                f"  class {cls}: {args.a} bins {_runs(assignment.proj_a[cls])} "
                f"| {args.b} bins {_runs(assignment.proj_b[cls])}"
            )
        print(render_labels(assignment._uc()))
    return _finish(args, single_class)


def _cmd_intersection(args: argparse.Namespace) -> int:
    grid = load_grid(args.grid)
    x, cond = _x_cond(args, grid)
    verdict = intersection_condition(grid, args.a, args.b, cond)
    for cell in sorted(verdict.per_c_class_counts):
        print(f"c-cell {_cell_name(cell)}: classes={verdict.per_c_class_counts[cell]}")
    print(f"intersection: {'HOLDS' if verdict.holds else 'FAILS'}")
    if not verdict.holds:
        print(f"failing c-cell: {_cell_name(verdict.failing_c)}")
        if args.out:
            base = marginalize(grid, (args.a, args.b, *cond))
            adversary = construct_adversary(base, None, args.a, args.b, x)
            save_grid(adversary, args.out)
            print(f"adversary grid written to {args.out}")
    return _finish(args, verdict.holds)


def _cmd_adversary(args: argparse.Namespace) -> int:
    grid = load_grid(args.grid)
    target = _parse_fixed(args.target) or None
    adversary = construct_adversary(grid, target, args.a, args.b, args.x)
    cond = tuple(n for n in grid.axis_names if n not in (args.a, args.b))
    report = verify_intersection(adversary, args.x, args.a, args.b, cond, args.tol)
    save_grid(adversary, args.out)
    print(f"adversary grid written to {args.out}")
    print(_ci_line(f"{args.x} _||_ {args.a} | {args.b}", report.premise_xa))
    print(_ci_line(f"{args.x} _||_ {args.b} | {args.a}", report.premise_xb))
    print(_ci_line(f"{args.x} _||_ ({args.a},{args.b})", report.conclusion))
    print(f"implication violated: {not report.implication_holds}")
    return 0


def _cmd_weak_intersection(args: argparse.Namespace) -> int:
    grid = load_grid(args.grid)
    report = verify_weak_intersection(grid, args.x, args.a, args.b, None, args.tol)
    for (cell, cls), residual in sorted(report.per_class.items()):
        print(f"c-cell {_cell_name(cell)} class {cls}: residual={residual:.6e}")
    status = "holds" if report.holds else "FAILS"
    print(f"weak intersection: {status} worst_residual={report.residual:.6e}")
    return _finish(args, report.holds)


def _cmd_sem_propagate(args: argparse.Namespace) -> int:
    sem = load_sem(args.sem)
    grid = propagate(sem)
    save_grid(grid, args.out)
    shape = " x ".join(f"{ax.name}({ax.size})" for ax in grid.axes)
    print(f"propagated grid over {shape} written to {args.out}")
    print(f"support cells: {grid._support[0].size}")
    return 0


def _cmd_sem_example(args: argparse.Namespace, alt: bool) -> int:
    sem = example1_alternative(args.step) if alt else example1(args.step)
    save_sem(sem, args.out)
    print(f"model written to {args.out}")
    return 0


def _cmd_sem_prop3(args: argparse.Namespace) -> int:
    sem = load_sem(args.sem)
    connected = noise_support_path_connected(sem)
    for node in sorted(connected):
        print(f"noise[{node}]: {'connected' if connected[node] else 'DISCONNECTED'}")
    components = joint_support_components(propagate(sem))
    print(f"joint support components: {components}")
    holds = all(connected.values()) and components == 1
    print(f"path-connected joint support: {'yes' if holds else 'no'}")
    return _finish(args, holds)


def _cmd_sem_prop4(args: argparse.Namespace) -> int:
    sem = load_sem(args.sem)
    report = non_constancy_check(sem, args.node, args.parent)
    for cset in sorted(report.witnesses, key=lambda c: (len(c), c)):
        xj, xj2, others, cond_vals = report.witnesses[cset]
        print(
            f"C={{{','.join(cset) or ''}}}: witness {args.parent}={xj:g} vs "
            f"{xj2:g}, others={ {k: round(v, 6) for k, v in sorted(others.items())} }, "
            f"cond={ {k: round(v, 6) for k, v in sorted(cond_vals.items())} }"
        )
    if report.failing_set is not None:
        print(f"no witness for C={{{','.join(report.failing_set)}}}")
    print(f"non-constancy: {'holds' if report.holds else 'FAILS'}")
    return _finish(args, report.holds)


def _cmd_report(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    # one read: the digest names the bytes that are analysed
    with open(args.grid, "rb") as fh:
        data = fh.read()
    grid = grid_from_json(data.decode("utf-8"))
    x, cond = _x_cond(args, grid)
    assignments = classes_per_c(grid, args.a, args.b, cond)
    counts = _component_labels(assignments)[1]
    lines = [
        f"input sha256: {hashlib.sha256(data).hexdigest()[:16]}",
        f"axes: {', '.join(f'{ax.name}({ax.size})' for ax in grid.axes)}",
        *(
            f"c-cell {_cell_name(cell)}: components={n} classes={asg.class_count}"
            for (cell, asg), n in zip(assignments.items(), counts)
        ),
    ]
    if x in grid.axis_names:
        checks = verify_intersection(grid, x, args.a, args.b, cond, args.tol)
        lines += [
            _ci_line(f"{x} _||_ {args.a} | {args.b}", checks.premise_xa),
            _ci_line(f"{x} _||_ {args.b} | {args.a}", checks.premise_xb),
            _ci_line(f"{x} _||_ ({args.a},{args.b})", checks.conclusion),
        ]
    holds = all(asg.class_count <= 1 for asg in assignments.values())
    lines.append(f"intersection: {'HOLDS' if holds else 'FAILS'}")
    if not args.deterministic:
        lines.append(f"wall clock: {time.perf_counter() - started:.3f}s")
    print("\n".join(lines))
    return _finish(args, holds)


# -- parser wiring ---------------------------------------------------------


def _add_topology_flags(p: argparse.ArgumentParser, x: str | None = None) -> None:
    p.add_argument("--a", default="A", help="first support axis (default A)")
    p.add_argument("--b", default="B", help="second support axis (default B)")
    p.add_argument(
        "--x", default=x,
        help="dependent-variable axis, kept out of the conditioning set (default X)",
    )


def _add_assert_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--assert", dest="assert_", choices=("holds", "fails"), default=None,
        help="exit 1 unless the main verdict matches",
    )


def _add_tol_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="CI tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ciprop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-ci", help="test one conditional independence")
    p.add_argument("grid")
    p.add_argument("--x", nargs="+", default=["X"])
    p.add_argument("--a", nargs="+", default=["A"])
    p.add_argument("--cond", nargs="*", default=[])
    _add_tol_flag(p)
    _add_assert_flag(p)
    p.set_defaults(func=_cmd_check_ci)

    p = sub.add_parser("components", help="label support components")
    p.add_argument("grid")
    p.add_argument("--c", action="append", help="fix a conditioning axis, axis=bin")
    _add_topology_flags(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("classes", help="merge components into classes")
    p.add_argument("grid")
    p.add_argument("--c", action="append", help="fix a conditioning axis, axis=bin")
    _add_topology_flags(p)
    _add_assert_flag(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("intersection", help="decide the intersection property")
    p.add_argument("grid")
    p.add_argument("-o", dest="out", help="write adversary grid here on failure")
    _add_topology_flags(p)
    _add_assert_flag(p)
    p.set_defaults(func=_cmd_intersection)

    p = sub.add_parser("adversary", help="construct a violating variable")
    p.add_argument("grid")
    p.add_argument("-o", dest="out", required=True)
    p.add_argument("--target", action="append", help="target c-cell, axis=bin")
    _add_topology_flags(p, "X")
    _add_tol_flag(p)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("weak-intersection", help="check the class-conditional form")
    p.add_argument("grid")
    _add_topology_flags(p, "X")
    _add_tol_flag(p)
    _add_assert_flag(p)
    p.set_defaults(func=_cmd_weak_intersection)

    p = sub.add_parser("report", help="one-stop analysis of a grid file")
    p.add_argument("grid")
    _add_topology_flags(p)
    _add_tol_flag(p)
    p.add_argument(
        "--deterministic", action="store_true",
        help="suppress timing output for byte-identical reports",
    )
    _add_assert_flag(p)
    p.set_defaults(func=_cmd_report)

    sem_parser = sub.add_parser("sem", help="structural equation model tools")
    sem_sub = sem_parser.add_subparsers(dest="sem_command", required=True)

    p = sem_sub.add_parser("propagate", help="push a model to a grid file")
    p.add_argument("sem")
    p.add_argument("-o", dest="out", required=True)
    p.set_defaults(func=_cmd_sem_propagate)

    p = sem_sub.add_parser("example1", help="write the two-block chain benchmark")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("-o", dest="out", required=True)
    p.set_defaults(func=lambda a: _cmd_sem_example(a, alt=False))

    p = sem_sub.add_parser(
        "example1-alt", help="write the equivalent fork-shaped model"
    )
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("-o", dest="out", required=True)
    p.set_defaults(func=lambda a: _cmd_sem_example(a, alt=True))

    p = sem_sub.add_parser("check-prop3", help="path-connected support certificate")
    p.add_argument("sem")
    _add_assert_flag(p)
    p.set_defaults(func=_cmd_sem_prop3)

    p = sem_sub.add_parser("check-prop4", help="mechanism non-constancy witnesses")
    p.add_argument("sem")
    p.add_argument("--node", required=True)
    p.add_argument("--parent", required=True)
    _add_assert_flag(p)
    p.set_defaults(func=_cmd_sem_prop4)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CipropError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error[BadJson]: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"error[BadEncoding]: input is not UTF-8: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
