"""The CLI's exit-code rule: 2 for a bad flag, config key or setting value
(every InvalidConfig), 1 for any other pipeline error and for any OS
error, and never a traceback."""

import ast
from pathlib import Path

import pytest

from octcyst import cli, errors
from octcyst.cli import run


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["phantom", "--config", "{bad}"], 2),
        (["denoise", "--in", "{bad}"], 1),
        (["layers", "--in", "{bad}"], 1),
        (["prepare", "--manifest", "{bad}"], 1),
        (["train", "--samples", "{samples}"], 1),
        (["predict", "--checkpoint", "{bad}", "--samples", "{samples}"], 1),
        (["evaluate", "--manifest", "{bad}", "--pred", "{samples}"], 1),
        (["iov", "--manifest", "{bad}"], 1),
    ],
    ids=["phantom", "denoise", "layers", "prepare", "train-samples",
         "predict", "evaluate", "iov"],
)
def test_every_subcommand_rejects_a_corrupt_input_without_a_traceback(tmp_path, argv, code):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\x00 not a scan, manifest, config or checkpoint\n")
    samples = tmp_path / "samples"
    samples.mkdir()
    (samples / "s.octf").write_bytes(bad.read_bytes())
    argv = [a.format(bad=bad, samples=samples) for a in argv]
    assert run(argv + ["--out", str(tmp_path / "o")]) == code
