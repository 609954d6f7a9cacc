"""The CLI's reports on the fixtures, pinned: `--format human` with colour
on and off, and `--format json`, against `cli_reports.json`, which holds
what each command printed and returned when the human-readable report was
still built for every format."""

import contextlib
import io
import json
import pathlib
import random
import shutil

import pytest

from streamcheck import load_models, run
from streamcheck.cli import main
from streamcheck.streams import BOOL, bounded_int
from streamcheck.histories import ChannelHistory, TimedStream

from conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_reports.json"

# brake_override.tv.csv's first case with two expected values changed
FAILING = """#case fails
#inputs
DriverBrake,AccBrake,AccSwitch
21,0,true
51,0,true
#expected
AccState
Active
Active
#case fails_late
#inputs
DriverBrake,AccBrake,AccSwitch
21,0,true
51,0,true
#expected
AccState
Standby
Standby
"""



def many_cases() -> str:
    """200 BrakeOverride cases of 14 ticks, most under one header line per
    table kind, so that the reader converts each such run of tables in more
    than one batch; with blank lines, unnamed cases, and 0 to 2 expected
    groups, each the run's outputs or those with one tick changed."""
    rng = random.Random(13)
    spec = load_models([FIXTURES / "brake_override.scm.txt"]).components["BrakeOverride"]
    level = bounded_int(0, 100)
    lines = []
    for i in range(200):
        rows = [(rng.randint(0, 100), rng.randint(0, 100), rng.random() < 0.85)
                for _ in range(14)]
        states = list(run(spec, ChannelHistory({
            "DriverBrake": TimedStream.of(level, [r[0] for r in rows]),
            "AccBrake": TimedStream.of(level, [r[1] for r in rows]),
            "AccSwitch": TimedStream.of(BOOL, [r[2] for r in rows])})).streams["AccState"].values)
        if rng.random() < 0.9:
            lines.append(f"#case many_{rng.randrange(1000):03d}")
        if rng.random() < 0.85:
            lines.append("#inputs\nDriverBrake,AccBrake,AccSwitch")
            lines += [f"{d},{a},{str(s).lower()}" for d, a, s in rows]
        else:
            lines.append("#inputs\nAccSwitch,DriverBrake,AccBrake")
            lines += [f"{str(s).lower()},{d},{a}" for d, a, s in rows]
        for _ in range(rng.choice([0, 1, 1, 1, 1, 2])):
            group = list(states)
            if rng.random() < 0.3:
                t = rng.randrange(14)
                group[t] = "Standby" if group[t] == "Active" else "Active"
            lines += ["#expected", "AccState", *group]
        if rng.random() < 0.1:
            lines.append("")
    return "\n".join(lines) + "\n"


BRAKE = ["--model", "fixtures/brake_override.scm.txt", "--component", "BrakeOverride"]
ENCODER = ["--model", "fixtures/encoder.scm.txt"]
COMMANDS = [
    ["simulate", *BRAKE, "--vectors", "fixtures/brake_override.tv.csv"],
    ["simulate", *BRAKE, "--vectors", "fixtures/brake_override.tv.csv", "--ticks", "3"],
    ["test", *BRAKE, "--vectors", "fixtures/brake_override.tv.csv"],
    ["test", *BRAKE, "--vectors", "failing.tv.csv"],
    ["test", *ENCODER, "--component", "AbstractEncoder",
     "--vectors", "fixtures/encoder_abstract.tv.csv"],
    ["check", *ENCODER, "--refinement", "Encoder", "--vectors", "fixtures/encoder_abstract.tv.csv",
     "--vectors", "fixtures/encoder_concrete.tv.csv"],
    ["concretize", *ENCODER, "--refinement", "Encoder",
     "--vectors", "fixtures/encoder_concretize.tv.csv"],
    ["concretize", *ENCODER, "--refinement", "Encoder",
     "--vectors", "fixtures/encoder_concretize.tv.csv", "--out", "concrete.tv.csv"],
    ["verify-galois", *ENCODER, "--refinement", "Encoder"],
    ["causality", *BRAKE],
    ["causality", *ENCODER, "--component", "ConcreteEncoder", "--mode", "strict"],
    ["test", *BRAKE, "--vectors", "many.tv.csv"],
    # an abstract suite with #params tables, for the abstract model itself
    ["test", *ENCODER, "--component", "AbstractEncoder",
     "--vectors", "fixtures/encoder_concretize.tv.csv"],
]


def reports(monkeypatch) -> list[list]:
    """[argv, format, colour, exit code, stdout, stderr] of every command
    run in the current directory, which holds fixtures/, failing.tv.csv and
    many.tv.csv."""
    out = []
    for argv in COMMANDS:
        for fmt, color in (("human", "0"), ("human", "1"), ("json", "1")):
            monkeypatch.setenv("STREAMCHECK_COLOR", color)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv + ["--format", fmt])
            out.append([argv, fmt, color, code, stdout.getvalue(), stderr.getvalue()])
    return out


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    (tmp_path / "failing.tv.csv").write_text(FAILING, encoding="utf-8")
    (tmp_path / "many.tv.csv").write_text(many_cases(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_reports_on_the_fixtures_are_unchanged(workdir, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = reports(monkeypatch)
    assert [r[:3] for r in got] == [r[:3] for r in golden]
    for now, before in zip(got, golden):
        assert now == before, now[:3]
    # the colours are on exactly where asked for
    assert any("\x1b[31m" in r[4] for r in got if r[2] == "1" and r[1] == "human")
    assert not any("\x1b[" in r[4] for r in got if r[2] == "0" or r[1] == "json")
