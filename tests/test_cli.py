"""End-to-end command-line behavior: outputs, files, and exit codes."""

from __future__ import annotations

import hashlib
import json
import re
import types

import numpy as np
import pytest

from ciprop import (
    AffineMechanism,
    Axis,
    Dag,
    DensityGrid,
    IndexOutOfRange,
    NoiseSpec,
    SemSpec,
    ShapeMismatch,
    condition,
    construct_adversary,
    example1,
    grid_to_json,
    is_ci,
    label_support_nd,
    load_grid,
    marginalize,
    render_labels,
    save_grid,
    save_sem,
    sem_to_json,
)
from ciprop import cli
from ciprop import intersection as intersection_module
from ciprop.cli import build_parser, run

import layouts


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Model and grid files produced by the CLI itself, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    model = root / "model.json"
    grid = root / "grid.json"
    assert run(["sem", "example1", "-o", str(model)]) == 0
    assert run(["sem", "propagate", str(model), "-o", str(grid)]) == 0
    return root, model, grid


@pytest.fixture()
def abx_path(tmp_path):
    """4x4x2 (A, B, X) grid with two diagonal blocks in each X cell."""
    path = tmp_path / "abx.json"
    table = np.repeat(layouts.two_block_mask(4)[:, :, None], 2, axis=2) / 16.0
    axes = tuple(
        Axis(n, tuple(float(k) for k in range(size)))
        for n, size in zip("ABX", table.shape)
    )
    save_grid(DensityGrid(axes, table), str(path))
    return path


@pytest.fixture()
def blocks_path(tmp_path):
    path = tmp_path / "blocks.json"
    cells = layouts.two_block_mask()
    save_grid(layouts.mask_grid_uniform(cells), str(path))
    return path


# -- exit codes -------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["components"]) == 2  # missing grid argument
    assert "usage error" in capsys.readouterr().err


def test_help_exits_0():
    assert run(["--help"]) == 0


def test_the_parser_keeps_no_state_between_commands(workdir, capsys):
    commands = (["components"], ["classes", str(workdir[2])], ["--help"])
    alone = []
    for argv in commands:
        cli._parser.cache_clear()
        alone.append((run(argv), *capsys.readouterr()))
    cli._parser.cache_clear()
    in_turn = [(run(argv), *capsys.readouterr()) for argv in commands]
    assert cli._parser.cache_info().misses == 1
    assert in_turn == alone
    assert [code for code, _, _ in alone] == [2, 0, 0]
    assert build_parser() is not build_parser()


def test_written_files_keep_their_bytes(tmp_path):
    """The files written at step 0.1 are byte-identical across versions."""
    model, grid, adversary = (tmp_path / f"{n}.json" for n in ("m", "g", "a"))
    assert run(["sem", "example1", "--step", "0.1", "-o", str(model)]) == 0
    assert run(["sem", "propagate", str(model), "-o", str(grid)]) == 0
    assert run(["intersection", str(grid), "-o", str(adversary)]) == 0
    files = (model, grid, adversary)
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in files] == [
        "e05fa63de067c5043aedc355c762df6f5c065a41cf9167bcba1d5dbf62c1a4f2",
        "e2ebd3ab1ff3ac05b1a7846118c98c443413b87b77ee3c5c10c1236c1e152e69",
        "193f43fb40f6db32f08063d4e97b97a5f9ec20adbeb5fe063477afe42d30fde2",
    ]


def test_missing_file_exits_3(capsys):
    assert run(["report", "/nonexistent/grid.json"]) == 3
    assert "error[IO]" in capsys.readouterr().err


def test_invalid_json_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["report", str(path)]) == 3
    assert "error[BadJson]" in capsys.readouterr().err


def test_invalid_grid_exits_3(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(
        '{"axes": [{"name": "A", "points": [0.0, 1.0]}], "prob": [1.5, -0.5]}'
    )
    assert run(["check-ci", str(path), "--x", "A", "--a", "A"]) == 3
    assert "error[NegativeMass]" in capsys.readouterr().err
    # a NaN mass is named as such, not as a conditioning cell without mass
    path.write_text(
        '{"axes": [{"name": "A", "points": [0.0, 1.0]},'
        ' {"name": "B", "points": [0.0]}], "prob": [NaN, 1.0]}'
    )
    assert run(["classes", str(path)]) == 3
    assert "error[NotNormalized]" in capsys.readouterr().err


def test_malformed_number_in_grid_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for axes, prob in (
        ('[{"name": "A", "points": [0.0, 1.0]}, {"name": "B", "points": [0.0]}]',
         '["x", 1.0]'),
        ('[{"name": "A", "points": ["a", 1]}, {"name": "B", "points": [0.0]}]',
         '[0.0, 1.0]'),
    ):
        path.write_text(f'{{"axes": {axes}, "prob": {prob}}}')
        assert run(["classes", str(path)]) == 3
        assert "error[ShapeMismatch]" in capsys.readouterr().err


def test_a_negative_mass_is_named_in_plain_numbers(tmp_path, capsys):
    path = tmp_path / "negative.json"
    axes = [{"name": n, "points": list(range(k))} for n, k in zip("ABCD", (3, 6, 1, 4))]
    # flat index 71 is the cell (2, 5, 0, 3)
    doc = {"axes": axes, "index": [0, 71], "mass": [1.25, -0.25]}
    path.write_text(json.dumps(doc))
    assert run(["report", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error[NegativeMass]: entry (2, 5, 0, 3) is -0.25\n"
    )


@pytest.mark.parametrize(
    "axes, body",
    [
        pytest.param("[0.0]", '"index": [0], "mass": [true]', id="mass-boolean"),
        pytest.param(
            "[0.0, 1.0]", '"index": [0, 1], "mass": ["0.5", "0.5"]', id="mass-string"
        ),
        pytest.param("[0.0, 1.0]", '"prob": [true, false]', id="prob-boolean"),
        pytest.param('["0", "1"]', '"prob": [0.5, 0.5]', id="points-string"),
    ],
)
def test_strings_and_booleans_are_not_numbers(tmp_path, capsys, axes, body):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"axes": [{{"name": "A", "points": {axes}}}], {body}}}')
    assert run(["report", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error[ShapeMismatch]: ")


def test_malformed_sparse_grid_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    axes = '[{"name": "A", "points": [0.0, 1.0]}, {"name": "B", "points": [0.0]}]'
    for body in (
        '"index": [1, 0], "mass": [0.5, 0.5]',
        '"index": [0, 2], "mass": [0.5, 0.5]',
        '"index": [0], "mass": [0.5, 0.5]',
        '"prob": [0.5, 0.5], "index": [0, 1], "mass": [0.5, 0.5]',
    ):
        path.write_text(f'{{"axes": {axes}, {body}}}')
        assert run(["report", str(path)]) == 3
        assert "error[ShapeMismatch]" in capsys.readouterr().err


def test_files_that_are_not_utf8_exit_3(tmp_path, capsys):
    # a UTF-16 byte-order mark cannot start a UTF-8 document
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"axes": []}'.encode("utf-16-le"))
    for argv in (
        ["classes", str(path)],
        ["report", str(path)],
        ["sem", "propagate", str(path), "-o", str(tmp_path / "out.json")],
    ):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[BadEncoding]") and err.count("\n") == 1


def test_malformed_number_in_model_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"nodes": ["A"], "parents": {"A": []},'
        ' "noise": {"A": {"points": ["a", 1], "probs": [0.5, 0.5]}},'
        ' "output_axis": {"A": {"points": [0.0, 1.0]}}}'
    )
    assert run(["sem", "check-prop3", str(path)]) == 3
    assert "error[ShapeMismatch]" in capsys.readouterr().err


def test_a_model_without_nodes_exits_3(tmp_path, capsys):
    path, out = tmp_path / "empty.json", tmp_path / "grid.json"
    path.write_text(
        '{"nodes": [], "parents": {}, "noise": {}, "mechanism": {}, "output_axis": {}}'
    )
    for argv in (["sem", "propagate", str(path), "-o", str(out)],
                 ["sem", "check-prop3", str(path)]):
        assert run(argv) == 3
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == "error[ShapeMismatch]: a model needs at least one node\n"
    assert not out.exists()


BIG =10**400  # a JSON integer too large for a float


def grid_doc(points=(0, 1), name="A", **fields):
    """A one-axis grid document as JSON text."""
    return json.dumps({"axes": [{"name": name, "points": list(points)}], **fields})


def model_doc(*path_value):
    """The example1 model as JSON text, with the last argument set at the
    path of keys and list positions given before it."""
    *path, value = path_value
    doc = json.loads(sem_to_json(example1()))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


NOT_NUMBERS_OR_NAMES = {
    "grid-points-huge": ("grid", grid_doc(points=[0, BIG], prob=[0.5, 0.5])),
    "prob-huge": ("grid", grid_doc(prob=[BIG, 0])),
    "mass-huge": ("grid", grid_doc(index=[0], mass=[BIG])),
    "axis-name-list": ("grid", grid_doc(name=["A"], prob=[0.5, 0.5])),
    "noise-point-huge": ("model", model_doc("noise", "A", "points", 0, BIG)),
    "noise-point-string": ("model", model_doc("noise", "A", "points", 0, "-2")),
    "coeff-string": ("model", model_doc("mechanism", "B", "coeffs", {"A": "x"})),
    "level-boolean": ("model", model_doc("mechanism", "X", "pieces", 0, "level", True)),
    "table-strings": (
        "model", model_doc("mechanism", "B", {"kind": "table", "values": ["0"] * 22})
    ),
    "step-string": (
        "model", model_doc("output_axis", "B", {"min": -2.3, "max": 2.3, "step": "0.1"})
    ),
    "nodes-string": ("model", model_doc("nodes", "ABX")),
    "parents-string": ("model", model_doc("parents", "B", "A")),
    "axes-not-a-mapping": ("model", model_doc("output_axis", [])),
}


@pytest.mark.parametrize(
    "kind, text", NOT_NUMBERS_OR_NAMES.values(), ids=NOT_NUMBERS_OR_NAMES.keys()
)
def test_readers_take_only_json_numbers_and_name_lists(kind, text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    runs = [["report", str(path)]] if kind == "grid" else [
        ["sem", "check-prop3", str(path)],
        ["sem", "propagate", str(path), "-o", str(tmp_path / "grid.json")],
    ]
    for argv in runs:
        assert run(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error[ShapeMismatch]: ")
        assert err.count("\n") == 1


def test_assert_flag_controls_exit(blocks_path):
    base = ["intersection", str(blocks_path)]
    assert run(base) == 0
    assert run(base + ["--assert", "fails"]) == 0
    assert run(base + ["--assert", "holds"]) == 1


def test_bad_fixed_cell_syntax_exits_2(blocks_path, capsys):
    assert run(["components", str(blocks_path), "--c", "A:0"]) == 2
    assert run(["components", str(blocks_path), "--c", "A=x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--c", "X=1", "--c", "X=2"],
        ["components", "--c", "X=1", "--c", "X=2"],
        ["adversary", "--x", "Y", "-o", "adv.json", "--target", "X=1", "--target", "X=0"],
    ],
)
def test_a_repeated_fixed_axis_exits_2(argv, abx_path, tmp_path, monkeypatch, capsys):
    # the last bin would silently win
    monkeypatch.chdir(tmp_path)
    assert run([argv[0], str(abx_path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: axis 'X' given twice\n"
    assert captured.out == ""
    assert not (tmp_path / "adv.json").exists()


def test_zero_mass_slice_exits_3(workdir, capsys):
    _, _, grid = workdir
    # X = 5.0 sits on the massless bridge between the plateaus
    assert run(["components", str(grid), "--c", "X=53"]) == 3
    assert "error[ZeroMassCondition]" in capsys.readouterr().err


def test_fixed_slice_off_its_axis_exits_3(abx_path, capsys):
    assert run(["components", str(abx_path), "--c", "X=9"]) == 3
    assert "error[IndexOutOfRange]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bin_idx, error",
    [
        (1.5, ShapeMismatch),
        (0.7, ShapeMismatch),
        (True, ShapeMismatch),
        (np.bool_(True), ShapeMismatch),
        ("1", ShapeMismatch),
        (2, IndexOutOfRange),
        (9, IndexOutOfRange),
        (-1, IndexOutOfRange),
        (np.int64(1), None),
    ],
)
def test_a_named_cell_is_an_integer_bin_in_range(
    bin_idx, error, abx_path, tmp_path, capsys
):
    # int() would take 1.5, True and "1" as bin 1, and a target off its
    # axis is not a cell without mass
    grid = load_grid(str(abx_path))
    out = tmp_path / "adv.json"
    argv = ["adversary", str(abx_path), "--x", "Y", "-o", str(out), "--target"]
    if error is None:
        sliced = condition(grid, {"X": bin_idx})
        assert grid_to_json(sliced) == grid_to_json(condition(grid, {"X": 1}))
        adversary = construct_adversary(grid, {"X": bin_idx}, name="Y")
        assert run(argv + [f"X={bin_idx}"]) == 0
        assert grid_to_json(adversary) == out.read_text(encoding="utf-8")
        capsys.readouterr()
        return
    with pytest.raises(error):
        condition(grid, {"X": bin_idx})
    with pytest.raises(error):
        construct_adversary(grid, {"X": bin_idx}, name="Y")
    if error is IndexOutOfRange:
        assert run(argv + [f"X={bin_idx}"]) == 3
        assert f"error[IndexOutOfRange]: bin {bin_idx} out of range" in (
            capsys.readouterr().err
        )
        assert not out.exists()


def test_flags_are_taken_only_where_read(workdir, tmp_path, capsys):
    _, model, grid = workdir
    out = str(tmp_path / "m.json")
    assert run(["sem", "example1", "-o", out, "--tol", "5"]) == 2
    assert run(["sem", "example1", "-o", out, "--deterministic"]) == 2
    assert run(["classes", str(grid), "--tol", "5"]) == 2
    assert run(["sem", "check-prop3", str(model), "--deterministic"]) == 2
    assert "usage error" in capsys.readouterr().err
    for argv in (
        ["check-ci", str(grid), "--x", "X", "--a", "A", "--cond", "B"],
        ["report", str(grid), "--deterministic"],
    ):
        assert run(argv + ["--tol", "1e-6"]) == 0
    capsys.readouterr()


# -- topology subcommands -----------------------------------------------------------


def test_components_and_classes_output(tmp_path, capsys):
    path = tmp_path / "seven.json"
    save_grid(layouts.mask_grid_uniform(layouts.seven_block_mask()), str(path))

    assert run(["components", str(path)]) == 0
    out = capsys.readouterr().out
    assert "components=7" in out

    assert run(["classes", str(path), "--assert", "fails"]) == 0
    out = capsys.readouterr().out
    assert "components=7 classes=3" in out
    assert "class 1: A bins 0-1,4-5 | B bins 0-1,4-5" in out
    assert "class 2: A bins 2-3 | B bins 2-3,7-8" in out
    assert "class 3: A bins 7-8 | B bins 6,9" in out


def test_components_with_fixed_slice(workdir, capsys):
    _, _, grid = workdir
    # X = -0.3 forces the low plateau, which lives on the negative A band
    assert run(["components", str(grid), "--c", "X=0"]) == 0
    out = capsys.readouterr().out
    assert "c-cell (0): components=1" in out


def test_a_fixed_slice_hands_the_class_kernel_one_cell(workdir, monkeypatch, capsys):
    _, _, grid = workdir
    cells = []
    kernel = intersection_module._class_assignments

    def counted(col, row):
        cells.append(col.size)
        return kernel(col, row)

    monkeypatch.setattr(intersection_module, "_class_assignments", counted)
    assert run(["classes", str(grid), "--c", "X=3"]) == 0
    sliced = marginalize(condition(load_grid(str(grid)), {"X": 3}), ("A", "B"))
    assert cells == [sliced._support[0].size]
    assert "c-cell (3): components=1 classes=1\n" in capsys.readouterr().out
    # the roles are checked on the whole grid, before it is sliced
    assert run(["classes", str(grid), "--c", "A=0"]) == 3
    assert "error[OverlappingRoles]" in capsys.readouterr().err
    assert run(["classes", str(grid), "--c", "Z=1"]) == 3
    assert "unknown axes ['Z']" in capsys.readouterr().err


def test_component_counts_of_stacked_slices_match_each_slice(tmp_path, capsys):
    # C=0 and C=1 hold mass at the same (a, b) = (3, 1); C=0's last A row
    # and C=1's first A row hold mass in column 1
    table = np.zeros((4, 4, 3))
    table[[3, 0, 0], [1, 0, 2], 0] = 1.0
    table[[0, 3, 1, 2], [1, 1, 3, 3], 1] = 1.0
    table[[0, 0, 2], [0, 1, 2], 2] = 1.0
    axes = tuple(Axis(n, tuple(map(float, range(k)))) for n, k in zip("ABC", (4, 4, 3)))
    grids = [DensityGrid(axes, table / table.sum())]
    rng = np.random.default_rng(83)
    grids += [layouts.sliced_grid(rng) for _ in range(3)]
    for k, grid in enumerate(grids):
        path = str(tmp_path / f"g{k}.json")
        save_grid(grid, path)
        dense = np.moveaxis(grid.prob, (0, 1), (-2, -1))
        want, counts = [], {}
        for cell in np.ndindex(dense.shape[:-2]):
            if dense[cell].sum() > 0:
                labels, counts[cell] = label_support_nd(dense[cell] > 0)
                name = ",".join(map(str, cell))
                want.append(f"c-cell ({name}): components={counts[cell]}")
                want.append(render_labels(labels))
        assert run(["components", path]) == 0
        assert capsys.readouterr().out == "\n".join(want) + "\n"
        for argv in (["classes", path], ["report", path, "--deterministic"]):
            assert run(argv) == 0
            out = capsys.readouterr().out
            found = re.findall(r"c-cell \(([\d,]+)\): components=(\d+)", out)
            assert {tuple(map(int, c.split(","))): int(n) for c, n in found} == counts


def test_classes_assert_holds_on_full_support(tmp_path):
    path = tmp_path / "full.json"
    save_grid(layouts.mask_grid_uniform(np.ones((3, 3), dtype=bool)), str(path))
    assert run(["classes", str(path), "--assert", "holds"]) == 0


# -- intersection and adversary -------------------------------------------------------


def test_intersection_reports_failure_and_writes_adversary(workdir, capsys):
    root, _, grid = workdir
    out_path = root / "adversary.json"
    code = run(["intersection", str(grid), "-o", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "intersection: FAILS" in out
    assert "failing c-cell: (-)" in out
    adv = load_grid(str(out_path))
    assert set(adv.axis_names) == {"X", "A", "B"}
    dev = is_ci(adv, "X", ("A", "B")).deviation
    assert dev > 0.1
    premise = is_ci(adv, "X", "A", ("B",)).deviation
    assert premise <= 1e-9


def test_intersection_names_the_adversary_after_x(tmp_path, capsys):
    # with --x Y the grid's own X axis is a conditioning axis
    path, out_path = tmp_path / "abxy.json", tmp_path / "adv.json"
    table = np.repeat(layouts.two_block_mask(4)[:, :, None, None], 2, axis=2) / 16.0
    axes = tuple(
        Axis(n, tuple(float(k) for k in range(size)))
        for n, size in zip("ABXY", table.shape)
    )
    save_grid(DensityGrid(axes, table), str(path))
    assert run(["intersection", str(path), "--x", "Y", "-o", str(out_path)]) == 0
    assert "failing c-cell: (0)" in capsys.readouterr().out
    adv = load_grid(str(out_path))
    assert adv.axis_names == ("A", "B", "X", "Y")
    assert is_ci(adv, "Y", ("A", "B"), ("X",)).deviation > 0.1


def test_intersection_writes_the_adversary_of_a_tiny_cell(tmp_path, capsys):
    path, out_path = tmp_path / "tiny.json", tmp_path / "adv.json"
    save_grid(layouts.tiny_cell_grid(), str(path))
    assert run(["intersection", str(path), "-o", str(out_path)]) == 0
    assert "failing c-cell: (1)" in capsys.readouterr().out
    assert load_grid(str(out_path)).axis_names == ("A", "B", "C", "X")


def test_an_explicit_x_must_name_an_axis(workdir, tmp_path, capsys):
    # an --x that names no axis would leave X in the conditioning set:
    # given X the example holds, with X left out it fails
    _, _, grid = workdir
    assert run(["intersection", str(grid)]) == 0
    assert "intersection: FAILS" in capsys.readouterr().out
    for argv in (
        ["components"], ["components", "--c", "X=3"], ["classes"],
        ["classes", "--c", "X=3"], ["intersection"], ["intersection", "-o", "o.json"],
        ["report", "--deterministic"],
    ):
        assert run([*argv, str(grid), "--x", "Q"]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error[UnknownAxis]" in captured.err
        assert "no axis named 'Q'" in captured.err
    # the default X need not be an axis: on an (A, B, C) grid C conditions
    path = tmp_path / "tiny.json"
    save_grid(layouts.tiny_cell_grid(), str(path))
    for argv in (["components"], ["classes"], ["intersection"], ["report"]):
        assert run([*argv, str(path)]) == 0
        assert "c-cell (1)" in capsys.readouterr().out


def test_unknown_names_print_their_message_bare(workdir, capsys):
    # both kinds are KeyErrors, whose str() would quote the message
    _, model, grid = workdir
    for argv, line in (
        (["intersection", str(grid), "--x", "Q"],
         "error[UnknownAxis]: no axis named 'Q' (have ('A', 'B', 'X'))"),
        (["classes", str(grid), "--a", "Q"],
         "error[UnknownAxis]: unknown axes ['Q'] (have ('A', 'B', 'X'))"),
        (["sem", "check-prop4", str(model), "--node", "Q", "--parent", "A"],
         "error[UnknownNode]: no node named 'Q'"),
    ):
        assert run(argv) == 3, argv
        assert capsys.readouterr().err == line + "\n"


def test_intersection_holds_on_full_support(tmp_path, capsys):
    path = tmp_path / "full.json"
    save_grid(layouts.mask_grid_uniform(np.ones((4, 4), dtype=bool)), str(path))
    assert run(["intersection", str(path), "--assert", "holds"]) == 0
    assert "intersection: HOLDS" in capsys.readouterr().out


def test_adversary_subcommand(blocks_path, tmp_path, capsys):
    out_path = tmp_path / "adv.json"
    code = run(["adversary", str(blocks_path), "-o", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "implication violated: True" in out
    assert out_path.exists()
    # the written grid reproduces the printed verdicts
    adv = load_grid(str(out_path))
    assert is_ci(adv, "X", ("A", "B")).deviation == pytest.approx(0.5)


def test_adversary_on_single_class_grid_exits_3(tmp_path, capsys):
    path = tmp_path / "full.json"
    save_grid(layouts.mask_grid_uniform(np.ones((3, 3), dtype=bool)), str(path))
    assert run(["adversary", str(path), "-o", str(tmp_path / "x.json")]) == 3
    assert "error[SingleClass]" in capsys.readouterr().err


def test_adversary_refuses_an_existing_axis(workdir, tmp_path, capsys):
    _, _, grid = workdir
    assert run(["adversary", str(grid), "-o", str(tmp_path / "x.json")]) == 3
    assert "error[ShapeMismatch]: axis 'X' already exists" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_adversary_refuses_its_tolerance_before_writing(tol, workdir, tmp_path, capsys):
    _, _, grid = workdir
    ab = tmp_path / "ab.json"
    save_grid(marginalize(load_grid(str(grid)), ("A", "B")), str(ab))
    out = tmp_path / "adv.json"
    assert run(["adversary", str(ab), "-o", str(out), "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error[ShapeMismatch]: tol must be positive")
    assert captured.out == ""
    assert not out.exists()


def test_weak_intersection_on_adversary(blocks_path, tmp_path, capsys):
    out_path = tmp_path / "adv.json"
    assert run(["adversary", str(blocks_path), "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["weak-intersection", str(out_path), "--assert", "holds"]) == 0
    out = capsys.readouterr().out
    assert "c-cell (-) class 1" in out and "c-cell (-) class 2" in out
    assert "weak intersection: holds" in out


def test_weak_intersection_premise_failure_exits_3(tmp_path, capsys):
    table = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            table[a, a, b] = 0.25
    g = DensityGrid(
        (
            Axis("X", (0.0, 1.0)),
            Axis("A", (0.0, 1.0)),
            Axis("B", (0.0, 1.0)),
        ),
        table,
    )
    path = tmp_path / "copy.json"
    save_grid(g, str(path))
    assert run(["weak-intersection", str(path)]) == 3
    assert "error[PremiseViolated]" in capsys.readouterr().err


# -- check-ci ---------------------------------------------------------------------


def test_check_ci_single_and_grouped_roles(workdir, capsys):
    _, _, grid = workdir
    assert run(
        ["check-ci", str(grid), "--x", "X", "--a", "A", "--cond", "B",
         "--assert", "holds"]
    ) == 0
    out = capsys.readouterr().out
    assert "X _||_ A | B: holds" in out
    assert "witness:" in out

    assert run(
        ["check-ci", str(grid), "--x", "X", "--a", "A", "B", "--assert", "fails"]
    ) == 0
    out = capsys.readouterr().out
    assert "X _||_ A+B | -: FAILS" in out
    assert "deviation=5.0" in out


# -- model subcommands ---------------------------------------------------------------


def test_prop3_on_gapped_and_connected_models(workdir, tmp_path, capsys):
    _, model, _ = workdir
    assert run(["sem", "check-prop3", str(model), "--assert", "fails"]) == 0
    out = capsys.readouterr().out
    assert "noise[A]: DISCONNECTED" in out
    assert "noise[B]: connected" in out
    assert "joint support components: 2" in out
    assert "path-connected joint support: no" in out

    dense = SemSpec(
        Dag(("A", "B"), {"B": ("A",)}),
        {
            "A": NoiseSpec((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)),
            "B": NoiseSpec((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)),
        },
        {"B": AffineMechanism(0.0, {"A": 1.0})},
        {
            "A": Axis("A", (-1.0, 0.0, 1.0)),
            "B": Axis("B", (-2.0, -1.0, 0.0, 1.0, 2.0)),
        },
    )
    path = tmp_path / "dense.json"
    save_sem(dense, str(path))
    assert run(["sem", "check-prop3", str(path), "--assert", "holds"]) == 0
    out = capsys.readouterr().out
    assert "path-connected joint support: yes" in out


def test_prop4_witnesses_and_failure(workdir, capsys):
    _, model, _ = workdir
    code = run(
        ["sem", "check-prop4", str(model), "--node", "X", "--parent", "B",
         "--assert", "fails"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "C={}: witness" in out
    assert "no witness for C={A}" in out
    assert "non-constancy: FAILS" in out

    assert run(
        ["sem", "check-prop4", str(model), "--node", "B", "--parent", "A",
         "--assert", "holds"]
    ) == 0
    assert "non-constancy: holds" in capsys.readouterr().out


def test_example_writers_match_library_builders(tmp_path, capsys):
    alt = tmp_path / "alt.json"
    assert run(["sem", "example1-alt", "-o", str(alt)]) == 0
    grid_out = tmp_path / "alt-grid.json"
    assert run(["sem", "propagate", str(alt), "-o", str(grid_out)]) == 0
    out = capsys.readouterr().out
    assert "A(22) x B(47) x X(107)" in out
    assert "support cells:" in out


def test_sem_propagate_counts_the_cells_it_writes(workdir, tmp_path, capsys):
    _, model, _ = workdir
    grid_out = tmp_path / "grid.json"
    assert run(["sem", "propagate", str(model), "-o", str(grid_out)]) == 0
    written = json.loads(grid_out.read_text())["index"]
    assert f"support cells: {len(written)}\n" in capsys.readouterr().out


def test_sem_propagate_refuses_a_nan_value(tmp_path, capsys):
    doc = json.loads(sem_to_json(example1(0.1)))
    doc["mechanism"]["B"]["intercept"] = float("nan")
    model, out = tmp_path / "nan.json", tmp_path / "grid.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["sem", "propagate", str(model), "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error[BinOverflow]: node 'B': value nan misses")
    assert not out.exists()


# -- report -----------------------------------------------------------------------


def test_report_is_deterministic_and_complete(workdir, capsys):
    _, _, grid = workdir
    assert run(["report", str(grid), "--deterministic"]) == 0
    first = capsys.readouterr().out
    assert run(["report", str(grid), "--deterministic"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "input sha256:" in first
    assert "axes: A(22), B(47), X(107)" in first
    assert "c-cell (-): components=2 classes=2" in first
    assert "X _||_ A | B: holds" in first
    assert "X _||_ B | A: holds" in first
    assert "X _||_ (A,B): FAILS" in first
    assert "intersection: FAILS" in first
    assert "wall clock" not in first


def test_report_analyses_the_bytes_it_hashes(blocks_path, monkeypatch, capsys):
    original = blocks_path.read_bytes()
    one_class = grid_to_json(layouts.mask_grid_uniform(np.ones((6, 6), dtype=bool)))

    def sha256(data):
        # the file is replaced right after it is hashed
        blocks_path.write_text(one_class)
        return hashlib.sha256(data)

    monkeypatch.setattr(cli, "hashlib", types.SimpleNamespace(sha256=sha256))
    assert run(["report", str(blocks_path), "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert f"input sha256: {hashlib.sha256(original).hexdigest()[:16]}" in out
    assert "c-cell (-): components=2 classes=2" in out


def test_report_shows_timing_by_default(workdir, capsys):
    _, _, grid = workdir
    assert run(["report", str(grid)]) == 0
    assert "wall clock:" in capsys.readouterr().out


def test_report_assert_fails_gives_exit_1(workdir):
    _, _, grid = workdir
    assert run(["report", str(grid), "--assert", "holds", "--deterministic"]) == 1
    assert run(["report", str(grid), "--assert", "fails", "--deterministic"]) == 0
