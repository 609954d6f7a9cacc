"""`cli.main` holds the cycle collector off while a command runs and puts it
back as it found it, on every way out. The premise: no command builds a
reference cycle, neither a fixture command nor a `test`, `check` or
`concretize` whose runs fail."""

import contextlib
import gc
import io
import shutil

import pytest

from streamcheck import cli
from streamcheck.abstraction import check_correspondence
from streamcheck.cli import main
from streamcheck.dsl import parse_model
from streamcheck.errors import SimulationError
from streamcheck.histories import ChannelHistory, TimedStream
from streamcheck.simulator import run

from conftest import FIXTURES, fixture_path
from test_cli_reports import COMMANDS, FAILING, many_cases
from test_suites import RUNS

BRAKE = ["--model", str(fixture_path("brake_override.scm.txt")), "--component", "BrakeOverride"]

# y := 10 / x fails at run time in every tick where x = 0
DIVIDE = """component Divide weak {
  input x : int[0..9]
  output y : int[0..10] init 0
  states Run init
  transition Run -> Run { y := 10 / x }
}
"""


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _set(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=[True, False], ids=["on", "off"])
def enabled(request):
    """The collector's state when `main` is called; the state the test
    found is restored after it."""
    was = gc.isenabled()
    _set(request.param)
    yield request.param
    _set(was)


@pytest.fixture
def divide(tmp_path):
    """The model file and a suite of 60 cases of which every third fails at
    its second tick."""
    model = tmp_path / "divide.scm.txt"
    model.write_text(DIVIDE, encoding="utf-8")
    suite = tmp_path / "divide.tv.csv"
    suite.write_text("".join(f"#case c{i}\n#inputs\nx\n5\n{0 if i % 3 == 0 else 2}\n"
                             f"#expected\ny\n2\n5\n" for i in range(60)), encoding="utf-8")
    return ["--model", str(model), "--component", "Divide", "--vectors", str(suite)]


@pytest.fixture
def halves(tmp_path):
    """The model file of the Halves refinement and a suite of 60 pairs, or
    abstract cases, of which every third from the third fails at its second
    tick: `check` and `concretize` stop at the third."""
    model = tmp_path / "m.scm.txt"
    model.write_text(RUNS, encoding="utf-8")
    abstract, concrete = tmp_path / "a.tv.csv", tmp_path / "c.tv.csv"
    abstract.write_text("".join(f"#case p{i}\n#params\nm\n1\n#inputs\na\n1\n"
                                f"{0 if i % 3 == 2 else 2}\n" for i in range(60)), encoding="utf-8")
    concrete.write_text("".join(f"#case q{i}\n#inputs\nc\n1\n2\n" for i in range(60)),
                        encoding="utf-8")
    return ["--model", str(model), "--refinement", "Halves", "--vectors", str(abstract)], concrete


def _cycles(argv: list[str], code: int) -> int:
    """What the collector finds after the command, run once more after a
    warm-up with the collector off."""
    assert _quiet(argv) == code, argv
    gc.collect()
    gc.disable()
    try:
        assert _quiet(argv) == code, argv
        return gc.collect()
    finally:
        gc.enable()


def test_main_restores_the_collector_on_every_exit_code(enabled, tmp_path, divide):
    (tmp_path / "failing.tv.csv").write_text(FAILING, encoding="utf-8")
    for argv, code in (
            (["test", *BRAKE, "--vectors", str(fixture_path("brake_override.tv.csv"))], 0),
            (["test", *BRAKE, "--vectors", str(tmp_path / "failing.tv.csv")], 1),
            (["test", *BRAKE, "--vectors", str(tmp_path / "missing.tv.csv")], 2),
            (["test", *divide], 3)):
        assert _quiet(argv) == code, argv
        assert gc.isenabled() == enabled, argv


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["test", "--no-such-flag"], 2),
                                        (["no-such-command"], 2)])
def test_main_restores_the_collector_when_argparse_exits(enabled, argv, code):
    assert _quiet(argv) == code
    assert gc.isenabled() == enabled


def test_main_restores_the_collector_when_a_command_raises(enabled, monkeypatch):
    seen = []

    def broken(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("broken command")

    # `test` calls it by its name in `cli` (the parser, built once, holds the command)
    monkeypatch.setattr(cli, "judge_suite", broken)
    with pytest.raises(RuntimeError, match="broken command"):
        _quiet(["test", *BRAKE, "--vectors", str(fixture_path("brake_override.tv.csv"))])
    assert seen == [False]
    assert gc.isenabled() == enabled


def test_the_fixture_commands_build_no_reference_cycle(tmp_path, monkeypatch):
    """Every fixture command, with either report format, leaves nothing for
    the collector once it has run with the collector off."""
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    (tmp_path / "failing.tv.csv").write_text(FAILING, encoding="utf-8")
    (tmp_path / "many.tv.csv").write_text(many_cases(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("STREAMCHECK_COLOR", "1")
    commands = {argv[0] for argv in COMMANDS}
    assert commands == {"simulate", "test", "check", "concretize", "causality", "verify-galois"}
    for argv in COMMANDS:
        for fmt in ("human", "json"):
            command = [*argv, "--format", fmt]
            code = _quiet(command)  # the warm-up: compiles and caches what the command uses
            assert code in (0, 1), command
            assert _cycles(command, code) == 0, command


def test_failing_commands_build_no_reference_cycle(divide, halves):
    """A failing run's error keeps no frame of the loop that collects the
    errors, and `check` and `concretize` report their first failing pair or
    case without raising it across the suite."""
    model, concrete = halves
    assert _cycles(["test", *divide], 3) == 0
    assert _cycles(["check", *model, "--vectors", str(concrete)], 3) == 0
    assert _cycles(["concretize", *model], 3) == 0


def test_a_failing_library_check_builds_no_reference_cycle():
    """A run of a history built in Python that fails keeps no frame of the
    loop that collects the errors either, nor does the error that `run`
    raises keep a frame that refers to it."""
    doc = parse_model(RUNS).document
    halver, copier = doc.components["Halver"], doc.components["Copier"]
    ri, ro = doc.relations["HalfRI"], doc.relations["HalfRO"]

    def check():
        ta, tc = (ChannelHistory({c.name: TimedStream.of(c.ctype, [1, 0])}, 2)
                  for c in (halver.interface.inputs[0], copier.interface.inputs[0]))
        result = check_correspondence(halver, copier, ri, ro, ta, tc)
        assert result.diagnostics == ("tick 2: division by zero",)
        try:
            run(halver, ta)
        except SimulationError as e:
            assert str(e) == "tick 2: division by zero"
        else:
            raise AssertionError("the run did not fail")

    check()
    gc.collect()
    gc.disable()
    try:
        check()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_failing_runs_cycles_are_freed_after_main_returns(divide):
    assert _quiet(["test", *divide]) == 3
    gc.collect()
    assert gc.garbage == []
