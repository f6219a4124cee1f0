"""Smoke runs of the experiment scripts in `scripts/` at tiny sizes."""

import importlib.util
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
