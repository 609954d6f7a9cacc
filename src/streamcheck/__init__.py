"""streamcheck: simulate timed-stream component models and check refinements."""

__version__ = "0.1.0"

from .abstraction import (ConcretizerSpec, CorrespondenceResult, GaloisSpec,
                          ParamDecl, RelationSpec, Universe, abstract_output,
                          check_correspondence, check_finv_in_g, concretize,
                          eval_relation, fold_stream, g_membership, verify_galois)
from .components import (AutomatonSpec, CompositeSpec, Connector, Endpoint,
                         SyntacticInterface, Transition, VariableDecl,
                         check_causality, compose_check, initial_state, run, step,
                         validate_automaton)
from .dsl import (ModelDocument, ParseResult, RefinementSpec, load_model,
                  load_models, parse_model, serialize_model)
from .errors import (CapsExceededError, Diagnostic, EvaluationError,
                     ModelFormatError, SimulationError, StreamcheckError,
                     StuckStateError, TickRangeError, TypeMismatchError,
                     UnboundParameterError)
from .exprs import parse_expression
from .streams import (BOOL, Channel, ChannelHistory, DataType, REAL, TimedStream,
                      Violation, bounded_int, enumeration, validate_history)
from .testcases import (ExpectedResult, SuiteReport, TestCase, Verdict,
                        compare_histories, execute_test, suite_run)
from .vectors import parse_testcases, serialize_testcases

__all__ = [name for name in dir() if not name.startswith("_")]
