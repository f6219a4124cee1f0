"""The benchmark's tracer rebinds library names; every one it lists must exist.

`bench/tracer.py` is only read here: it is loaded from its file, and its
wrappers are installed and removed again around one small call.
"""

import importlib.util
from pathlib import Path

import pytest

import evifuse
from evifuse import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "owner,attr,group", tracer._FUNCTIONS,
    ids=[f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}" for owner, attr, _ in tracer._FUNCTIONS],
)
def test_traced_function_exists(owner, attr, group):
    assert attr in vars(owner), f"{owner.__name__} has no {attr!r} of its own"
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("command,group", tracer._COMMANDS)
def test_traced_command_is_registered(command, group):
    assert command in cli.main.commands


def test_install_wraps_and_uninstall_restores():
    owners = [owner for owner, _, _ in tracer._FUNCTIONS] + list(tracer._MODULES)
    before = [(owner, dict(vars(owner))) for owner in owners]
    callbacks = {name: cli.main.commands[name].callback for name, _ in tracer._COMMANDS}
    rec = tracer.SpanRecorder()
    rec.install()
    try:
        evifuse.data.gen_synthetic(evifuse.data.SyntheticSpec.blobs(2, 2, 2, n_per_class=3))
    finally:
        rec.uninstall()
    assert "data.gen_synthetic" in rec.names and len(rec.start) >= 1
    for owner, attrs in before:
        now = vars(owner)
        assert now.keys() == attrs.keys(), f"{owner.__name__} gained or lost names"
        assert all(now[k] is v for k, v in attrs.items()), f"{owner.__name__} not restored"
    assert {name: cli.main.commands[name].callback for name in callbacks} == callbacks
