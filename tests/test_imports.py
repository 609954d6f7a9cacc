"""Every name a module of the package imports is read somewhere in it, and
every function, class and method it defines is read somewhere in the
package, the benchmark or the tests. Every record class has a docstring,
and no module imports `dataclasses`. The package exports a fixed set of
names, and importing it, or loading a model through it, imports only what
that needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import streamcheck
from streamcheck import components, simulator

from conftest import MODEL_FILES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streamcheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [name for name in _imported(tree) if name not in read]
    assert not unused, f"{path.name} imports {unused} and never reads them"


def _read_names(path: Path) -> set[str]:
    """The names and attributes that the file's code reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def _definitions(tree: ast.Module) -> list[str]:
    """The module's functions and classes and their methods, as
    `name` or `Class.method`, without dunders and without the `item_*`
    methods that `_Parser` calls by keyword through getattr."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                      and not (node.name == "_Parser" and m.name.startswith("item_"))]
    return names


def test_every_definition_is_read():
    read = set().union(*(_read_names(p) for d in ("src", "bench", "tests")
                         for p in (ROOT / d).rglob("*.py")))
    unread = [f"{path.name}: {name}" for path in MODULES
              for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
              if name.rsplit(".", 1)[-1] not in read]
    assert not unread, f"defined and never read: {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_record_class_has_a_docstring(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bare = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)
            and ast.get_docstring(node) is None]
    assert not bare, f"{path.name}: record classes without a docstring: {bare}"


def test_no_module_imports_dataclasses():
    """The records are plain classes over `records.Record`. A dataclass
    costs an `exec` per method it generates, and importing `dataclasses`
    imports `inspect`, at every start."""
    importers = [path.name for path in PACKAGE.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                 or isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "dataclasses" for a in node.names)]
    assert not importers, f"modules that import dataclasses: {importers}"


# the names the package exported when it imported every submodule eagerly
EXPORTED = [
    "AutomatonSpec", "BOOL", "CapsExceededError", "Channel", "ChannelHistory",
    "CompositeSpec", "ConcretizerSpec", "Connector", "CorrespondenceResult", "DataType",
    "Diagnostic", "Endpoint", "EvaluationError", "ExpectedResult", "GaloisSpec",
    "ModelDocument", "ModelFormatError", "ParamDecl", "ParseResult", "REAL",
    "RefinementSpec", "RelationSpec", "SimulationError", "StreamcheckError",
    "StuckStateError", "SuiteReport", "SyntacticInterface", "TestCase", "TickRangeError",
    "TimedStream", "Transition", "TypeMismatchError", "UnboundParameterError", "Universe",
    "VariableDecl", "Verdict", "Violation", "abstract_output", "abstraction", "bounded_int",
    "check_causality", "check_correspondence", "check_finv_in_g", "compare_histories",
    "components", "compose_check", "concretize", "dsl", "enumeration", "errors",
    "eval_relation", "execute_test", "exprs", "fold_stream", "g_membership",
    "initial_state", "lexing", "load_model", "load_models", "parse_expression",
    "parse_model", "parse_testcases", "run", "serialize_model", "serialize_testcases",
    "step", "streams", "suite_run", "testcases", "validate_automaton", "validate_history",
    "vectors", "verify_galois",
]


def test_the_package_exports_the_same_names():
    assert streamcheck.__all__ == EXPORTED
    assert set(EXPORTED) <= set(dir(streamcheck))


def test_every_exported_name_is_the_object_of_its_home_module():
    for name in EXPORTED:
        value = getattr(streamcheck, name)
        if isinstance(value, type(sys)):
            assert value is sys.modules[f"streamcheck.{name}"], name
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'read_vectors'"):
        streamcheck.read_vectors
    assert not hasattr(streamcheck, "no_such_name")


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from streamcheck import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTED


def _fresh_process(code: str) -> list[set[str]]:
    """The words of each line that `code` prints, run in a new interpreter
    that imports the package under test."""
    package_dir = str(Path(streamcheck.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [package_dir, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return [set(line.split()) for line in proc.stdout.splitlines()]


# every fixture model, each after the files whose components it names
LOAD = f"streamcheck.load_models({[f'fixtures/{name}' for name in MODEL_FILES]!r})\n"


def test_loading_a_model_imports_only_what_loading_needs():
    """Neither importing the package nor loading a model imports the checks,
    the vector reader, the test runner, the CLI, the code generator, the
    simulator, the stream histories, the writer, `dataclasses` or
    `inspect`."""
    # what the interpreter imported before streamcheck (a site hook may
    # import `inspect`, say) is left out of what loading imports
    code = ("import sys\n"
            "started = set(sys.modules)\n"
            "import streamcheck\n"
            "print(*sorted(m for m in sys.modules if m.startswith('streamcheck.')))\n"
            + LOAD +
            "print(*sorted(set(sys.modules) - started))\n")
    at_import, after_load = _fresh_process(code)
    assert at_import == set()
    assert {"streamcheck.dsl", "streamcheck.declarations"} <= after_load
    assert not after_load & {"streamcheck.abstraction", "streamcheck.vectors",
                             "streamcheck.testcases", "streamcheck.cli", "streamcheck.codegen",
                             "streamcheck.simulator", "streamcheck.histories",
                             "streamcheck.serialize", "difflib", "dataclasses", "inspect"}


@pytest.mark.parametrize("name", ["run", "check_causality"])
def test_components_names_the_simulators_run_and_check_causality(name):
    """`components.run` and `components.check_causality` are the objects of
    `simulator`, and a load imports `simulator` only when one is read."""
    assert getattr(components, name) is getattr(simulator, name)
    assert components.__getattr__(name) is getattr(simulator, name)
    assert not hasattr(components, "step")
    code = ("import sys\n"
            "import streamcheck\n"
            + LOAD +
            "print('streamcheck.simulator' in sys.modules)\n"
            f"found = streamcheck.components.{name}\n"
            "print('streamcheck.simulator' in sys.modules,"
            f" found is sys.modules['streamcheck.simulator'].{name})\n")
    assert _fresh_process(code) == [{"False"}, {"True"}]
