"""Exception hierarchy and diagnostic records shared across the toolkit."""

from __future__ import annotations

from .records import Record


class StreamcheckError(Exception):
    """Base class for all errors raised by streamcheck."""


class TickRangeError(StreamcheckError, IndexError):
    """A tick index fell outside a stream's horizon."""

    def __init__(self, tick: int, horizon: int):
        super().__init__(f"tick {tick} out of range for stream of horizon {horizon}")
        self.tick = tick
        self.horizon = horizon


class TypeMismatchError(StreamcheckError, TypeError):
    """A value does not conform to its declared data type."""


class EvaluationError(StreamcheckError):
    """An expression could not be evaluated (bad types, unknown name, ...)."""


class StuckStateError(StreamcheckError):
    """A total automaton reached a state with no enabled transition."""

    def __init__(self, component: str, state: str):
        super().__init__(f"component {component!r} stuck in state {state!r}")
        self.component = component
        self.state = state


class SimulationError(StreamcheckError):
    """A component run failed; carries the failing tick when known."""

    def __init__(self, message: str, tick: int | None = None):
        if tick is not None:
            message = f"tick {tick}: {message}"
        super().__init__(message)
        self.tick = tick


class NondeterminismError(StreamcheckError):
    """Two transitions were enabled at once while determinism checking is on."""


class UnboundParameterError(StreamcheckError):
    """A concretizer parameter was left unbound."""


class CapsExceededError(StreamcheckError):
    """A bounded-universe enumeration exceeds the configured caps."""

    def __init__(self, message: str, required: int, cap: int):
        super().__init__(message)
        self.required = required
        self.cap = cap


class Diagnostic(Record):
    """A located parse/validation message."""

    _fields = ("line", "column", "message")

    def __init__(self, line: int, column: int, message: str):
        self.line, self.column, self.message = line, column, message

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class ModelFormatError(StreamcheckError):
    """A model or test-vector file could not be loaded."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "format error")
