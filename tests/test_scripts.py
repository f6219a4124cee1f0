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


def stack_calls(source):
    """Line numbers of every call of a function named `stack`, such as `np.stack`."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "stack"
    ]


def test_stack_call_finder():
    assert stack_calls("np.stack(a)\nnumpy.stack(b, axis=1)\nstack(c)\nnp.vstack(d)\nx.stacks\ns.stack\n") == [1, 2, 3]


def test_model_makes_no_feature_copy():
    # a dataset holds its views in per-dimension stacks, so training and scoring never re-stack them
    assert stack_calls((SCRIPTS.parent / "src" / "evifuse" / "model.py").read_text()) == []


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
    # the value classes cast through evifuse._casts' _real, _integer and
    # _numeric, which raise ValueError; a loader that catches TypeError or
    # OverflowError would be deciding again what a number is
    assert cast_error_catches(path.read_text()) == []


# The casts of evifuse._casts; what one of them returns is already decided.
CAST_SET = {"_real", "_integer", "_numeric", "_integers", "_read_only"}


def reads_a_field(node):
    """True if `node` reads an attribute of `self` other than through the cast set."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in CAST_SET:
        return False
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
        return True
    return any(reads_a_field(child) for child in ast.iter_child_nodes(node))


def bare_field_casts(source):
    """Line numbers of every `int`, `float`, `.astype` or `dtype=` call inside a
    `__post_init__` that is applied to a field."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            operands = [*node.args, *(k.value for k in node.keywords if k.arg != "dtype")]
            if getattr(node.func, "id", None) in ("int", "float") or any(k.arg == "dtype" for k in node.keywords):
                hit = any(map(reads_a_field, operands))
            else:
                hit = getattr(node.func, "attr", None) == "astype" and reads_a_field(node.func.value)
            if hit:
                found.append(node.lineno)
    return found


def test_bare_field_cast_finder():
    source = (
        "class A:\n"
        "    def __post_init__(self):\n"
        "        a = int(self.n)\n"
        "        b = float(_real(self.x, 'x'))\n"
        "        c = np.asarray(self.v, dtype=float)\n"
        "        d = np.array(_numeric(self.v, 'v'), dtype=float)\n"
        "        e = self.v.astype(int)\n"
        "        f = float(len(self.v) + 1)\n"
        "        g = float(a)\n"
        "    def other(self):\n"
        "        return int(self.n)\n"
    )
    assert bare_field_casts(source) == [3, 5, 7, 8]


@pytest.mark.parametrize(
    "path", sorted((SCRIPTS.parent / "src" / "evifuse").glob("*.py")), ids=lambda p: p.name,
)
def test_value_classes_cast_fields_only_through_the_cast_set(path):
    # int(2.7) truncates and float(None) is a TypeError; the cast set refuses both
    assert bare_field_casts(path.read_text()) == []


def test_integer_lists_have_one_cast():
    # _casts._integers reads every integer list and label vector; no module
    # keeps a dtype check of its own that would disagree with it
    sources = {p.name: p.read_text() for p in (SCRIPTS.parent / "src" / "evifuse").glob("*.py")}
    homes = [
        name for name, source in sources.items() for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "_integers"
    ]
    assert homes == ["_casts.py"]
    assert [name for name, source in sources.items() if "issubdtype" in source] == []


def imported_modules(source):
    """(level, module) of every import: level 0 is absolute, 1 is `from .`, and
    `from . import a` gives (1, "a")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(0, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.level, node.module)] if node.module else [(node.level, a.name) for a in node.names]
    return found


def declared_casts(source):
    """(class, field, cast) of every field declared as `field(metadata={"cast": cast, ...})`."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            call = getattr(stmt, "value", None)
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(call, ast.Call)):
                continue
            for kw in call.keywords:
                if kw.arg == "metadata" and isinstance(kw.value, ast.Dict):
                    casts = [v for k, v in zip(kw.value.keys, kw.value.values) if getattr(k, "value", None) == "cast"]
                    found += [(cls.name, stmt.target.id, getattr(v, "id", ast.dump(v))) for v in casts]
    return found


def test_one_cast_module_under_everything():
    assert imported_modules("import a.b\nfrom .c import d\nfrom . import e, f\n") == [
        (0, "a.b"), (1, "c"), (1, "e"), (1, "f")]
    assert declared_casts(
        "class A:\n    x: int = field(metadata={'cast': _integer})\n    y: int = field(default=0)\n"
        "    z: str = field(metadata={'name': 'z', 'cast': str})\n"
    ) == [("A", "x", "_integer"), ("A", "z", "str")]

    sources = {p.stem: p.read_text() for p in (SCRIPTS.parent / "src" / "evifuse").glob("*.py")}
    # _casts sits below every module: the standard library and numpy only
    assert [m for level, m in imported_modules(sources["_casts"])
            if level or m.split(".")[0] not in {*sys.stdlib_module_names, "numpy"}] == []
    for name in ("specfun", "data", "metrics"):
        assert not {(1, "dirichlet"), (0, "evifuse.dirichlet")} & set(imported_modules(sources[name])), name
    declared = [d for source in sources.values() for d in declared_casts(source)]
    assert {cls for cls, _, _ in declared} == {
        "DirichletParams", "BaseRate", "EvidenceVector", "Opinion", "ViewGeometry", "SyntheticSpec",
        "LossConfig", "EvalRecord", "ModelConfig",
    }
    assert [d for d in declared if d[2] not in CAST_SET] == []


def own_nodes(node):
    """Every node below `node` in source order, less the functions defined in it and their nodes."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.FunctionDef):
            yield child
            yield from own_nodes(child)


def key_tests(source):
    """(function, code) of every test of a JSON object's keys: an `in` or `not in` whose left side
    is no string constant or a key-like one (not a separator such as ":") and whose right side is
    no string constant, a `.get` call, and an `isinstance` check against `dict`."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in own_nodes(fn):
            if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
                left, right = node.left, node.comparators[0]
                keylike = not isinstance(left, ast.Constant) or str(left.value).isidentifier()
                hit = keylike and not isinstance(right, ast.Constant)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
                hit = any(getattr(kind, "id", None) == "dict" for kind in kinds)
            else:
                hit = isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get"
            if hit:
                found.append((fn.name, ast.unparse(node)))
    return found


def unread_from_dicts(source):
    """Line numbers of every `from_dict` with a `return` whose value is not built on an `_object` call."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name == "from_dict":
            returns = [node for node in own_nodes(fn) if isinstance(node, ast.Return)]
            reads = [
                node.value is not None and any(
                    isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_object"
                    for call in ast.walk(node.value)
                )
                for node in returns
            ]
            if not (reads and all(reads)):
                found.append(fn.lineno)
    return found


def test_key_test_finders():
    source = (
        "def a(doc, text):\n"
        "    if 'rates' not in doc or key in doc or ':' in text or kind in 'iu':\n"
        "        return doc.get('weight'), isinstance(doc, dict), isinstance(doc, (list, dict)), isinstance(doc, list)\n"
        "    def inner(obj):\n"
        "        return obj.get('x')\n"
        "class A:\n"
        "    def from_dict(cls, obj):\n"
        "        return cls(**_object(obj, 'a', ('x',), {}))\n"
        "class B:\n"
        "    def from_dict(cls, obj):\n"
        "        if obj:\n"
        "            return cls(**_object(obj, 'b', ('x',), {}))\n"
        "        return cls(obj['x'])\n"
    )
    assert key_tests(source) == [
        ("a", "'rates' not in doc"), ("a", "key in doc"), ("a", "doc.get('weight')"),
        ("a", "isinstance(doc, dict)"), ("a", "isinstance(doc, (list, dict))"), ("inner", "obj.get('x')"),
    ]
    assert unread_from_dicts(source) == [10]


def test_json_objects_have_one_reader():
    # _casts._object is the one decision of which keys a JSON object may hold;
    # the config reader's isinstance checks a section's values, not its keys
    exempt = [("_config_section", "isinstance(value, (list, dict, bool))")]
    sources = {p.name: p.read_text() for p in (SCRIPTS.parent / "src" / "evifuse").glob("*.py")}
    assert {name: key_tests(source) for name, source in sources.items() if name != "_casts.py"} == {
        name: exempt if name == "cli.py" else [] for name in sources if name != "_casts.py"
    }
    assert sum(source.count("def from_dict(") for source in sources.values()) == 3
    assert {name: unread_from_dicts(source) for name, source in sources.items()} == dict.fromkeys(sources, [])
