"""Checks on the package source itself."""

from __future__ import annotations

import argparse
import ast
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ciprop"


def test_package_has_no_assert_statements():
    # python -O strips assert statements; postconditions must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py"))
    assert found == []


# One entry point per question: changing the public API is a deliberate
# edit of this list.
PUBLIC_NAMES = [
    "AdversaryCheckFailed", "AffineMechanism", "Axis", "BinOverflow",
    "BudgetExceeded", "CiReport", "CipropError", "CycleDetected", "DEFAULT_TOL",
    "Dag", "DensityGrid", "IndexOutOfRange", "IntersectionReport",
    "IntersectionVerdict", "NegativeMass", "NoiseSpec", "NonConstancyReport",
    "NotAParent", "NotNormalized", "OverlappingRoles", "PiecewiseMechanism",
    "PiecewisePiece", "PremiseViolated", "SemSpec", "ShapeMismatch",
    "SingleClass", "TableMechanism", "UcAssignment", "UnknownAxis",
    "UnknownNode", "WeakIntersectionReport", "ZeroMassCondition",
    "attach_class_variable", "classes_per_c", "condition",
    "construct_adversary", "example1", "example1_alternative",
    "grid_from_json", "grid_to_json", "intersection_condition", "is_ci",
    "joint_support_components", "label_support_nd", "load_grid", "load_sem",
    "marginalize", "noise_support_path_connected", "non_constancy_check",
    "non_descendants", "propagate", "render_labels", "save_grid", "save_sem",
    "sem_from_json", "sem_to_json", "topological_order",
    "verify_intersection", "verify_weak_intersection",
]


def test_public_names():
    import ciprop

    names = sorted(
        name
        for name, value in vars(ciprop).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(PUBLIC_NAMES) == 59
    assert names == PUBLIC_NAMES


# Every subcommand's options: adding a flag is a deliberate edit of this map.
CLI_OPTIONS = {
    "adversary": ["--a", "--b", "--target", "--tol", "--x", "-o"],
    "check-ci": ["--a", "--assert", "--cond", "--tol", "--x"],
    "classes": ["--a", "--assert", "--b", "--c", "--x"],
    "components": ["--a", "--b", "--c", "--x"],
    "intersection": ["--a", "--assert", "--b", "--x", "-o"],
    "report": ["--a", "--assert", "--b", "--deterministic", "--tol", "--x"],
    "sem check-prop3": ["--assert"],
    "sem check-prop4": ["--assert", "--node", "--parent"],
    "sem example1": ["--step", "-o"],
    "sem example1-alt": ["--step", "-o"],
    "sem propagate": ["-o"],
    "weak-intersection": ["--a", "--assert", "--b", "--tol", "--x"],
}


def test_cli_options():
    from ciprop.cli import build_parser

    found = {}

    def visit(parser, command):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for action in subs:
            for name, sub in action.choices.items():
                visit(sub, f"{command} {name}".strip())
        if not subs:
            found[command] = sorted(
                s for a in parser._actions for s in a.option_strings
                if s not in ("-h", "--help")
            )

    visit(build_parser(), "")
    assert found == CLI_OPTIONS


def scopes_where(matches):
    """The dotted scopes (module, class, function) of the matching source nodes."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if matches(child):
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    return sorted(found)


# The functions that read a grid's dense table.  Every other function
# works from the axes and the support cells; adding a reader is a
# deliberate edit of this list.
PROB_READERS: list[str] = []


def test_dense_table_readers():
    found = scopes_where(lambda n: isinstance(n, ast.Attribute) and n.attr == "prob")
    assert found == PROB_READERS


def test_only_the_reader_builds_grids_from_tables():
    # every grid the library makes is handed its support cells
    # (grids._from_support); only a dense grid document is a table
    def builds(node):
        return isinstance(node, ast.Call) and "DensityGrid" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert scopes_where(builds) == ["grids.grid_from_json"]


# The functions that run a CI residual pass.  Every other function asks
# grids.is_ci, which keeps each grid's answers; adding a caller of the
# pass is a deliberate edit of this list.
CI_PASS_CALLERS = ["grids.is_ci"]


def names(ident):
    """Matches a source node that names ``ident``, bare or as an attribute."""
    return lambda node: (isinstance(node, ast.Name) and node.id == ident) or (
        isinstance(node, ast.Attribute) and node.attr == ident
    )


def test_ci_residual_pass_callers():
    assert scopes_where(names("_ci_pass")) == CI_PASS_CALLERS


# The functions that name the class pass.  Every other function asks
# intersection._class_table, which keeps each grid's classes;
# attach_class_variable runs the pass through the same memo and hands its
# result the base's classes.  Adding a caller is a deliberate edit of this list.
CLASS_PASS_CALLERS = ["intersection._class_table", "intersection.attach_class_variable"]


def test_class_pass_callers():
    assert scopes_where(names("_class_pass")) == CLASS_PASS_CALLERS
    assert scopes_where(names("_class_assignments")) == ["intersection._class_pass"]


def test_the_cli_imports_public_intersection_names_only():
    # the CLI asks the library's questions; the memo hands tables around
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "intersection"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# The functions that run the hooking kernel.  Support components and
# classes are both graphs handed to topology._roots; adding a caller is a
# deliberate edit of this list.
ROOTS_CALLERS = ["topology._class_assignments", "topology._components"]


def test_hooking_kernel_callers():
    assert scopes_where(names("_roots")) == ROOTS_CALLERS


# The functions that read a slice's layout: a UcAssignment's support cells,
# their classes and the slice's shape.  Every other function asks topology
# for projections, tables or component labels; adding a reader is a
# deliberate edit of this list.
SLICE_READERS = [
    "topology.UcAssignment._table", "topology.UcAssignment._uc",
    "topology.UcAssignment.proj_a", "topology.UcAssignment.proj_b",
    "topology._slice_components",
]
# The functions that label face-neighbor components of support cells.
COMPONENTS_CALLERS = [
    "sem.joint_support_components", "topology._slice_components",
    "topology.label_support_nd",
]


def test_slice_layout_readers():
    def reads(node):
        return isinstance(node, ast.Attribute) and node.attr in (
            "_cells", "_labels", "_shape"
        )

    assert scopes_where(reads) == SLICE_READERS
    assert scopes_where(names("_components")) == COMPONENTS_CALLERS


# The functions that build the per-slice class objects.  Every query reads
# the class of each support cell from topology._class_assignments;
# classes_per_c, the public view, is the only function that turns each
# c-cell's cells into a UcAssignment, and adding a builder is a deliberate
# edit of this list.
UC_BUILDERS = ["intersection.classes_per_c"]


def test_class_object_builders():
    def builds(node):
        return isinstance(node, ast.Call) and names("UcAssignment")(node.func)

    assert scopes_where(builds) == UC_BUILDERS


# The functions that sort.  Every ordering of support cells goes through
# the one kernel, grids._sort; topology._projection sorts the bins of one
# slice and intersection.attach_class_variable the levels of the new axis.
# Adding a caller is a deliberate edit of this list.
SORT_CALLERS = [
    "grids._sort", "intersection.attach_class_variable", "topology._projection"
]


def test_sort_callers():
    def sorts(node):
        return any(names(f)(node) for f in ("argsort", "sort", "unique", "lexsort"))

    assert scopes_where(sorts) == SORT_CALLERS


def test_keys_have_one_builder():
    # grids._keys builds every row-major key and refuses a lattice whose
    # keys would wrap int64; ravel_multi_index elsewhere would bypass it
    assert scopes_where(names("ravel_multi_index")) == []
