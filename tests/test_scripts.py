"""Smoke runs of the experiment scripts in `scripts/` at tiny sizes."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv,expected", [
    ("run_feature_shift",
     ["--views", "2", "--train-n", "10", "--valid-n", "5", "--hidden", "4", "--epochs", "1"],
     ["train acc ", "mean uncertainty: id ", "scaled mean gap ", "detection accuracy ", "elapsed "]),
    ("run_class_shift",
     ["--pool-n", "20", "--valid-n", "5", "--test-n", "20", "--ratios", "3:7,7:3",
      "--hidden", "4", "--epochs", "1"],
     ["trained on ", "ratio   strategy", "3:7     train-prior", "3:7     test-prior",
      "7:3     train-prior", "7:3     test-prior",
      "test-prior matches or beats train-prior ECE on "]),
])
def test_script_runs_and_reports(capsys, name, argv, expected):
    assert load_script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(expected)
    for line, start in zip(lines, expected):
        assert line.startswith(start), line


@pytest.mark.parametrize("name,argv", [
    ("run_class_shift", ["--train-ratio", "1:"]),
    ("run_class_shift", ["--bins", "0", "--pool-n", "20", "--valid-n", "5", "--test-n", "20", "--epochs", "1"]),
    ("run_class_shift", ["--ratios", "3:7,x", "--pool-n", "20", "--valid-n", "5", "--test-n", "20", "--epochs", "1"]),
    ("run_class_shift", ["--ratios", "3:7,", "--pool-n", "20", "--valid-n", "5", "--test-n", "20", "--epochs", "1"]),
    ("run_class_shift", ["--hidden", "4,", "--pool-n", "20", "--valid-n", "5", "--test-n", "20", "--epochs", "1"]),
    ("run_feature_shift", ["--views", "1"]),
    ("run_feature_shift", ["--dim", "1"]),
    ("run_feature_shift", ["--hidden", "4,", "--views", "2", "--train-n", "10", "--valid-n", "5", "--epochs", "1"]),
], ids=["train-ratio", "bins", "ratios", "ratios-empty-entry", "hidden", "views", "dim", "feature-hidden"])
def test_bad_input_exits_2_without_traceback(name, argv):
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith(f"{name}.py: error: "), result.stderr


@pytest.mark.parametrize("name,argv", [
    ("run_feature_shift", ["--views", "2", "--train-n", "10", "--valid-n", "5", "--hidden", "4"]),
    ("run_class_shift", ["--pool-n", "20", "--valid-n", "5", "--test-n", "20", "--hidden", "4"]),
])
def test_diverged_training_exits_3_without_traceback(name, argv):
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv, "--lr", "1e300", "--epochs", "1", "--batch-size", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 3, result.stderr
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith(f"{name}.py: error: non-finite loss at epoch 0, sample ")


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_scripts_leave_failures_to_the_cli_contract(path):
    # evifuse.cli.exit_codes maps every failure; a script of its own would map a second time
    assert not [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.ExceptHandler)]


def private_evifuse_imports(source):
    """Dotted names of every import from evifuse with an underscore-prefixed part."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [
            name for name in names
            if name.split(".")[0] == "evifuse"
            and any(p.startswith("_") and not p.endswith("__") for p in name.split("."))
        ]
    return found


def test_private_import_finder():
    assert private_evifuse_imports(
        "from evifuse.cli import main, _parse\nimport evifuse._x\nfrom evifuse import __version__\n"
        "import numpy._core\nfrom os import _exit\n"
    ) == ["evifuse.cli._parse", "evifuse._x"]


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports_no_private_evifuse_name(path):
    # scripts are written against the library's public API only
    assert private_evifuse_imports(path.read_text()) == []


def test_package_root_exports_no_public_name():
    # every public name is imported from its module, as in `from evifuse.model import fit`
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import evifuse; print([n for n in vars(evifuse) if not n.startswith('_')])"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def comma_splits(source):
    """Line numbers of every `.split` call whose separator is a comma."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "split":
            seps = node.args[:1] + [k.value for k in node.keywords if k.arg == "sep"]
            if any(getattr(sep, "value", None) == "," for sep in seps):
                found.append(node.lineno)
    return found


def test_comma_split_finder():
    source = 'a.split(",")\nb.split()\nc.split(":")\nd.split(",", 1)\n"x".split(sep=",")\n'
    assert comma_splits(source) == [1, 4, 5]


@pytest.mark.parametrize(
    "path", [SCRIPTS.parent / "src" / "evifuse" / "cli.py", *sorted(SCRIPTS.glob("*.py"))], ids=lambda p: p.name,
)
def test_front_ends_leave_list_syntax_to_the_library(path):
    # integer and ratio lists are read by evifuse.data.parse_ints and parse_ratio_list
    assert comma_splits(path.read_text()) == []


def cast_error_catches(source):
    """Line numbers of every `except` clause that names TypeError or OverflowError."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(t, "id", getattr(t, "attr", None)) for t in types}
            if names & {"TypeError", "OverflowError"}:
                found.append(node.lineno)
    return found


def test_cast_error_catch_finder():
    source = (
        "try:\n    f()\nexcept TypeError:\n    pass\nexcept (ValueError, OverflowError) as exc:\n    pass\n"
        "except builtins.TypeError:\n    pass\nexcept ValueError:\n    pass\nexcept:\n    raise\n"
    )
    assert cast_error_catches(source) == [3, 5, 7]


@pytest.mark.parametrize(
    "path", sorted((SCRIPTS.parent / "src" / "evifuse").glob("*.py")), ids=lambda p: p.name,
)
def test_library_catches_no_cast_error(path):
    # the value classes cast through evifuse.dirichlet's _real, _integer and
    # _numeric, which raise ValueError; a loader that catches TypeError or
    # OverflowError would be deciding again what a number is
    assert cast_error_catches(path.read_text()) == []
