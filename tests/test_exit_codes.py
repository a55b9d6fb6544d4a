"""The CLI's exit-code rule: 2 for a bad flag, config key or setting value
(every InvalidConfig), 1 for any other pipeline error and for any OS
error, and never a traceback."""

import ast
import struct
from pathlib import Path

import numpy as np
import pytest

from octcyst import cli, errors
from octcyst.cli import run
from octcyst.dataio import write_mask_pgm
from octcyst.dataio.formats import format_settings
from octcyst.tensornet import UNetConfig, build_unet
from octcyst.trainer import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, Checkpoint, save_checkpoint


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


PIPELINE_ERRORS = sorted(
    {errors.OctCystError, *_subclasses(errors.OctCystError)}, key=lambda c: c.__name__
)


@pytest.mark.parametrize("exc", [*PIPELINE_ERRORS, OSError], ids=lambda c: c.__name__)
def test_every_error_type_has_one_exit_code(tmp_path, monkeypatch, capsys, exc):
    def fail(args, cfg, out):
        raise exc("injected failure")

    monkeypatch.setattr(cli, "_cmd_denoise", fail)
    code = run(["denoise", "--in", "x.pgm", "--out", str(tmp_path / "o")])
    assert code == (2 if issubclass(exc, errors.InvalidConfig) else 1)
    assert "injected failure" in capsys.readouterr().err


def test_out_that_is_a_file_exits_1(tmp_path):
    out = tmp_path / "o"
    out.write_text("keep\n")
    assert run(["phantom", "--count", "1", "--out", str(out)]) == 1
    assert out.read_text() == "keep\n"


def test_input_that_is_a_directory_exits_1(tmp_path):
    assert run(["denoise", "--in", str(tmp_path), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--rows", "32", "--cols", "32"],
        ["--speckle", "-1"],
        ["--speckle", "nan"],
        ["--speckle", "inf"],
        ["--count", "0"],
        ["--count", "-1"],
    ],
    ids=["geometry-does-not-fit", "negative-speckle", "nan-speckle", "inf-speckle", "count-0",
         "count-negative"],
)
def test_phantom_setting_that_cannot_work_exits_2(tmp_path, flags):
    out = tmp_path / "o"
    assert run(["phantom", *flags, "--out", str(out)]) == 2
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("cols", ["0", "1"])
def test_phantom_with_fewer_than_two_columns_exits_2_before_out_exists(tmp_path, cols):
    # zero columns write PGMs that read_pgm rejects, and one column gives
    # every layer path the same cost, so no scan of it can be prepared
    out = tmp_path / "o"
    assert run(["phantom", "--cols", cols, "--n-cysts", "0", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
def test_unreadable_config_exits_2_before_out_exists(tmp_path, name):
    out = tmp_path / "o"
    assert run(["phantom", "--config", str(tmp_path / name), "--out", str(out)]) == 2
    assert not out.exists()


def test_the_config_errors_are_exactly_the_invalid_config_family():
    family = {c for c in PIPELINE_ERRORS if issubclass(c, errors.InvalidConfig)}
    assert family == {errors.InvalidConfig}
    assert issubclass(errors.InvalidConfig, ValueError)


def _caught_names(tree):
    """Names of the exception types that the except clauses of `tree` catch."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                yield t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None)


def test_every_exception_type_is_caught_somewhere_in_the_program():
    # an exception type earns its place only through code that handles it
    package = Path(errors.__file__).parent
    caught = set()
    for path in package.rglob("*.py"):
        caught.update(_caught_names(ast.parse(path.read_text(encoding="utf-8"))))
    defined = {
        node.name
        for node in ast.parse(Path(errors.__file__).read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    uncaught = sorted(defined - caught)
    assert not uncaught, f"errors.py defines types that no except clause catches: {uncaught}"


def _module_level_definitions(tree):
    """Module-level function, class and constant names of `tree`, private
    ones included; dunders such as `__all__` are read by Python itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not (name.id.startswith("__") and name.id.endswith("__")):
                    yield name.id


def _loaded_names(tree):
    """Names that `tree` reads, bare or as an attribute; imports and strings
    such as `__all__` entries are not reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_module_level_name_in_src_is_used_by_the_program():
    # a public name earns its place only through program or bench code that
    # reads it, a private one only through program code: a helper whose last
    # caller is gone fails here, whatever tests still call it
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "octcyst").rglob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in package}
    program = {name for tree in trees.values() for name in _loaded_names(tree)}
    bench = {
        name
        for p in sorted((root / "bench").glob("*.py"))
        for name in _loaded_names(ast.parse(p.read_text(encoding="utf-8")))
    }
    defined = {
        f"{p.relative_to(root / 'src').with_suffix('').as_posix().replace('/', '.')}.{name}": name
        for p in package
        for name in _module_level_definitions(trees[p])
    }
    unused = sorted(
        q for q, name in defined.items() if name not in (program if name.startswith("_") else program | bench)
    )
    assert not unused, f"private names that nothing in src/, or public ones that nothing in src/ or bench/, reads: {unused}"


def _class_members(tree):
    """(class, name) of every method and property that a class of `tree`
    defines; dunders such as `__init__` are called by Python itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield node.name, item.name


def test_every_method_and_property_in_src_is_read_by_the_program():
    # a method or property earns its place only through program code that
    # reads it: one whose last caller in src/ is gone fails here, whatever
    # tests or the bench still call it
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "octcyst").rglob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in package}
    program = {name for tree in trees.values() for name in _loaded_names(tree)}
    unread = sorted(
        f"{p.relative_to(root / 'src').with_suffix('').as_posix().replace('/', '.')}.{cls}.{name}"
        for p in package
        for cls, name in _class_members(trees[p])
        if name not in program
    )
    assert not unread, f"methods or properties that nothing in src/ reads: {unread}"


def test_no_module_of_the_program_rebinds_a_global():
    # a function that rebinds a module global is a hidden mode that every
    # later call depends on; state belongs to the objects that carry it
    package = Path(errors.__file__).parent
    found = sorted(
        f"{path.relative_to(package)}:{node.lineno}"
        for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    )
    assert not found, f"global statements in src/octcyst: {found}"


def test_every_raise_in_the_program_is_one_of_the_two_error_types():
    # the CLI maps exactly these two types to exit codes 2 and 1
    package = Path(errors.__file__).parent
    allowed = {"OctCystError", "InvalidConfig"}

    def named(exc):
        target = exc.func if isinstance(exc, ast.Call) else exc
        return getattr(target, "id", getattr(target, "attr", None)) in allowed

    found = sorted(
        f"{path.relative_to(package)}:{node.lineno}"
        for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None and not named(node.exc)
    )
    assert not found, f"raises of other exception types in src/octcyst: {found}"


@pytest.fixture
def cut_checkpoint(tmp_path):
    """A checkpoint whose header and config block are whole but whose last
    tensor's values are cut two bytes short."""
    cfg = UNetConfig(
        input_channels=2, base_channels=1, depth=1, bottleneck_channels=2,
        aspp_rates=(1,), dropout_per_level=(0.1, 0.1),
    )
    _, store = build_unet(cfg)
    path = tmp_path / "cut.bin"
    save_checkpoint(Checkpoint(cfg, store.values()), path)
    path.write_bytes(path.read_bytes()[:-2])
    return path


@pytest.fixture
def huge_checkpoint(tmp_path):
    """A header and a whole config block, and no values: the config
    declares 2**40 base channels, whose values would fit in no memory."""
    cfg = UNetConfig(
        base_channels=2**40, depth=1, bottleneck_channels=2**41,
        aspp_rates=(1,), dropout_per_level=(0.1, 0.1),
    )
    config = format_settings(cfg).encode("utf-8")
    path = tmp_path / "huge.bin"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(config)) + config)
    return path


@pytest.mark.parametrize(
    "argv, code",
    [
        (["phantom", "--config", "{bad}"], 2),
        (["denoise", "--in", "{bad}"], 1),
        (["layers", "--in", "{bad}"], 1),
        (["prepare", "--manifest", "{bad}"], 1),
        (["train", "--samples", "{samples}"], 1),
        (["predict", "--checkpoint", "{bad}", "--samples", "{samples}"], 1),
        (["predict", "--checkpoint", "{cut}", "--samples", "{samples}"], 1),
        (["predict", "--checkpoint", "{huge}", "--samples", "{samples}"], 1),
        (["evaluate", "--manifest", "{bad}", "--pred", "{samples}"], 1),
        (["iov", "--manifest", "{bad}"], 1),
    ],
    ids=["phantom", "denoise", "layers", "prepare", "train-samples",
         "predict", "predict-cut-values", "predict-huge-config", "evaluate", "iov"],
)
def test_every_subcommand_rejects_a_corrupt_input_without_a_traceback(
    tmp_path, capsys, cut_checkpoint, huge_checkpoint, argv, code
):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\x00 not a scan, manifest, config or checkpoint\n")
    samples = tmp_path / "samples"
    samples.mkdir()
    (samples / "s.octf").write_bytes(bad.read_bytes())
    # listed with a valid target, so train reads the corrupt sample itself
    write_mask_pgm(np.zeros((4, 4), dtype=np.uint8), samples / "s_target.pgm")
    (samples / "samples.txt").write_text("s.octf\ts_target.pgm\n")
    truncated = "{cut}" in argv or "{huge}" in argv
    argv = [
        a.format(bad=bad, samples=samples, cut=cut_checkpoint, huge=huge_checkpoint)
        for a in argv
    ]
    assert run(argv + ["--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if truncated:
        assert "truncated at byte" in err
    if argv[0] == "train":
        assert str(samples / "s.octf") in err
