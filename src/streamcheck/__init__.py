"""streamcheck: simulate timed-stream component models and check refinements.

Importing the package loads none of its submodules. Each exported name is
resolved on first use from the submodule that defines it (PEP 562), so
`import streamcheck; streamcheck.load_models(...)` compiles only what
loading a model needs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports through the package
_EXPORTS = {
    "abstraction": ("CorrespondenceResult", "abstract_output", "check_correspondence",
                    "check_finv_in_g", "concretize", "eval_relation", "fold_stream",
                    "g_membership", "verify_galois"),
    "components": ("AutomatonSpec", "CompositeSpec", "Connector", "Endpoint",
                   "SyntacticInterface", "Transition", "VariableDecl", "compose_check",
                   "validate_automaton"),
    "declarations": ("ConcretizerSpec", "GaloisSpec", "ParamDecl", "RelationSpec", "Universe"),
    "dsl": ("ModelDocument", "ParseResult", "RefinementSpec", "load_model", "load_models",
            "parse_model"),
    "errors": ("CapsExceededError", "Diagnostic", "EvaluationError", "ModelFormatError",
               "SimulationError", "StreamcheckError", "StuckStateError", "TickRangeError",
               "TypeMismatchError", "UnboundParameterError"),
    "exprs": ("parse_expression",),
    "histories": ("ChannelHistory", "TimedStream", "Violation", "validate_history"),
    "serialize": ("serialize_model",),
    "simulator": ("check_causality", "initial_state", "run", "step"),
    "streams": ("BOOL", "Channel", "DataType", "REAL", "bounded_int", "enumeration"),
    "testcases": ("ExpectedResult", "SuiteReport", "TestCase", "Verdict", "compare_histories",
                  "execute_test", "suite_run"),
    "vectors": ("parse_testcases", "serialize_testcases"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that __all__ lists, imported on first use
_SUBMODULES = ("abstraction", "components", "dsl", "errors", "exprs", "lexing", "streams",
               "testcases", "vectors")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
