import json
import re
import shlex
import shutil
import time

import pytest

from streamcheck.cli import main
from streamcheck.simulator import check_causality
from streamcheck.dsl import load_model
from streamcheck.exprs import MAX_HEIGHT

from conftest import FIXTURES, HALVES, fixture_path, fixture_text

ENCODER = str(fixture_path("encoder.scm.txt"))
BRAKE = str(fixture_path("brake_override.scm.txt"))
ACC = str(fixture_path("acc.scm.txt"))
ACC_REF = str(fixture_path("acc_refinement.scm.txt"))


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("STREAMCHECK_COLOR", "0")


def test_test_command_passes(capsys):
    code = main(["test", "--model", BRAKE, "--component", "BrakeOverride",
                 "--vectors", str(fixture_path("brake_override.tv.csv"))])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  brake_override_iso" in out
    assert "2 passed, 0 failed, 0 errors" in out


def test_test_command_fails_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.tv.csv"
    bad.write_text("#case wrong\n#inputs\nDriverBrake,AccBrake,AccSwitch\n"
                   "0,0,true\n#expected\nAccState\nStandby\n", encoding="utf-8")
    code = main(["test", "--model", BRAKE, "--component", "BrakeOverride",
                 "--vectors", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "tick 1" in out


def test_json_format(capsys):
    code = main(["test", "--model", BRAKE, "--component", "BrakeOverride",
                 "--vectors", str(fixture_path("brake_override.tv.csv")),
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "test"
    assert payload["passed"] == 2


def test_simulate_renders_table(capsys):
    code = main(["simulate", "--model", ENCODER, "--component", "ConcreteEncoder",
                 "--vectors", str(fixture_path("encoder_concrete.tv.csv"))])
    out = capsys.readouterr().out
    assert code == 0
    assert "tick" in out and "o_c" in out


def test_check_correspondence(capsys):
    code = main(["check", "--model", ENCODER, "--refinement", "Encoder",
                 "--vectors", str(fixture_path("encoder_abstract.tv.csv")),
                 "--vectors", str(fixture_path("encoder_concrete.tv.csv"))])
    out = capsys.readouterr().out
    assert code == 0
    assert "CORRESPONDING" in out


DOUBLER = """component Doubler weak {
  input x : real
  output y : real
  states Run init
  transition Run -> Run { y := x * 2.0 }
}
"""


@pytest.mark.parametrize("eps", [[], ["--eps", "0.5"], ["--eps", "inf"]])
def test_equal_infinities_are_equal_reals(tmp_path, capsys, eps):
    model = tmp_path / "doubler.scm.txt"
    model.write_text(DOUBLER, encoding="utf-8")
    vectors = tmp_path / "inf.tv.csv"
    vectors.write_text("#case huge\n#inputs\nx\n1e308\n-1e308\n#expected\ny\ninf\n-inf\n"
                       "#case nan\n#inputs\nx\nnan\n#expected\ny\nnan\n", encoding="utf-8")
    code = main(["test", "--model", str(model), "--component", "Doubler",
                 "--vectors", str(vectors), *eps])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines() == ["PASS  huge",
                                "FAIL  nan (tick 1, channel y: expected nan, got nan)",
                                "1 passed, 1 failed, 0 errors"]


@pytest.mark.parametrize("eps, message", [
    ("-1", "must be a number at least 0, got -1"), ("nan", "must be a number at least 0, got nan"),
    ("-inf", "must be a number at least 0, got -inf"), ("x", "invalid float value: 'x'")])
def test_a_negative_or_nan_eps_exits_2(eps, message, capsys):
    code = main(["test", "--model", BRAKE, "--component", "BrakeOverride",
                 "--vectors", str(fixture_path("brake_override.tv.csv")), f"--eps={eps}"])
    assert code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --eps: {message}\n")


def test_check_pair_horizons_are_checked_before_any_pair_runs(tmp_path, capsys):
    abstract = tmp_path / "a.tv.csv"
    concrete = tmp_path / "c.tv.csv"
    # the first pair's concrete run fails at tick 1 (floor of nan), the
    # second pair's horizons differ: a usage error, found first
    abstract.write_text("#case a1\n#inputs\ni_a\ntrue\n#case a2\n#inputs\ni_a\ntrue\n",
                        encoding="utf-8")
    concrete.write_text("#case c1\n#inputs\ni_c\nnan\n#case c2\n#inputs\ni_c\n1.0\n2.0\n",
                        encoding="utf-8")
    code = main(["check", "--model", ENCODER, "--refinement", "Encoder",
                 "--vectors", str(abstract), "--vectors", str(concrete)])
    assert code == 2
    assert capsys.readouterr().err == "error: pair (a2, c2): horizon mismatch: 1 vs 2\n"
    concrete.write_text("#case c1\n#inputs\ni_c\nnan\n#case c2\n#inputs\ni_c\n1.0\n",
                        encoding="utf-8")
    code = main(["check", "--model", ENCODER, "--refinement", "Encoder",
                 "--vectors", str(abstract), "--vectors", str(concrete)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: pair (a1, c1): tick 1: ")


def test_verify_galois(capsys):
    code = main(["verify-galois", "--model", ENCODER, "--galois", "EncGalois"])
    assert code == 0
    assert "connection law holds" in capsys.readouterr().out


def test_concretize_with_params(tmp_path, capsys):
    out_file = tmp_path / "conc.tv.csv"
    code = main(["concretize", "--model", ENCODER, "--refinement", "Encoder",
                 "--vectors", str(fixture_path("encoder_concretize.tv.csv")),
                 "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert "i_c" in text and "2.5" in text and "-3.6" in text


@pytest.mark.parametrize("argv, first, second, names", [
    (["simulate", "--model", BRAKE, "--component", "BrakeOverride"], "brake_override.tv.csv",
     "#case later\n#inputs\nDriverBrake,AccBrake,AccSwitch\n0,0,false\n",
     ["brake_override_iso", "brake_override_switch_off", "later"]),
    (["concretize", "--model", ENCODER, "--refinement", "Encoder"], "encoder_concretize.tv.csv",
     "#case later\n#params\nmag\n1.5\n#inputs\ni_a\nfalse\n", ["encoder_magnitudes", "later"]),
], ids=["simulate", "concretize"])
def test_simulate_and_concretize_read_every_vector_file_in_order(argv, first, second, names,
                                                                 tmp_path, capsys):
    first = str(fixture_path(first))
    later = tmp_path / "later.tv.csv"
    later.write_text(second, encoding="utf-8")
    code = main([*argv, "--vectors", first, "--vectors", str(later), "--format", "json"])
    assert code == 0
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert ([c["case"] for c in cases] if argv[0] == "simulate" else cases) == names
    missing = tmp_path / "missing.tv.csv"
    assert main([*argv, "--vectors", first, "--vectors", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: vector file not found: {missing}\n"


def test_verify_galois_refuses_both_a_galois_and_a_refinement(capsys):
    code = main(["verify-galois", "--model", ENCODER, "--galois", "EncGalois",
                 "--refinement", "NoSuchThing"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--galois" in captured.err and "--refinement" in captured.err
    assert main(["verify-galois", "--model", ENCODER]) == 2
    assert capsys.readouterr().err == "error: missing --refinement name\n"


def test_test_and_simulate_run_an_abstract_suite_with_params_tables(capsys):
    # the suite that concretize reads also runs on the abstract component
    vectors = str(fixture_path("encoder_concretize.tv.csv"))
    code = main(["test", "--model", ENCODER, "--component", "AbstractEncoder",
                 "--vectors", vectors])
    assert code == 0
    assert capsys.readouterr().out == "PASS  encoder_magnitudes\n1 passed, 0 failed, 0 errors\n"
    code = main(["simulate", "--model", ENCODER, "--component", "AbstractEncoder",
                 "--vectors", vectors, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cases"][0]["inputs"] == {"i_a": [True, False, True]}


@pytest.mark.parametrize("params, message", [
    ("#params\nmag,mag\n1\n", "3:1: duplicate columns in #params header"),
    ("#params\nmag\n1\n2\n", "2:1: parameter 'mag' has 2 ticks, inputs have 3"),
    ("#params\n", "2:1: empty #params table"),
])
def test_test_still_checks_the_header_and_rows_of_a_params_table(tmp_path, capsys, params,
                                                                  message):
    # an untyped #params table's cells are not read, so 'x' is no error
    path = tmp_path / "p.tv.csv"
    path.write_text("#case c\n" + params.replace("\n1\n", "\nx\n")
                    + "#inputs\ni_a\ntrue\nfalse\ntrue\n", encoding="utf-8")
    code = main(["test", "--model", ENCODER, "--component", "AbstractEncoder",
                 "--vectors", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_concretize_bad_param_value_names_the_flag(capsys):
    code = main(["concretize", "--model", ENCODER, "--refinement", "Encoder",
                 "--vectors", str(fixture_path("encoder_concretize.tv.csv")),
                 "--param", "mag=abc"])
    assert code == 2
    assert capsys.readouterr().err == "error: --param mag: expected a real number, found 'abc'\n"


def test_concretize_refinement_chain(capsys):
    code = main(["concretize", "--model", BRAKE, "--model", ACC, "--model", ACC_REF,
                 "--refinement", "AccRefinement",
                 "--vectors", str(fixture_path("brake_override.tv.csv")),
                 "--param", "p_gas=0", "--param", "p_slack=5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ReqSpeedAcc" in out


def test_causality_ok(capsys):
    code = main(["causality", "--model", BRAKE, "--component", "BrakeOverride"])
    assert code == 0
    assert "no causality violation" in capsys.readouterr().out


def test_causality_counterexample(capsys):
    code = main(["causality", "--model", ENCODER, "--component", "ConcreteEncoder",
                 "--mode", "strict"])
    assert code == 1
    assert "COUNTEREXAMPLE" in capsys.readouterr().out


# The guard reads x and b, so `c` depends on them in the same tick and only
# the search decides strict causality; every transition emits 0, so it
# finds no witness. Of the four grid rows only x = 9, b = true counts on,
# so the configurations within H ticks are v = 0 .. min(H, 4) - 1.
COUNTER = """component Counter weak {
  input x : int[0..9]
  input b : bool
  output c : int[0..9] init 0
  var v : int[0..3] = 0
  states Run init
  transition Run -> Run when x > 4 and b { c := 0; v := min(v + 1, 3) }
  transition Run -> Run { c := 0 }
}
"""


def _counter(tmp_path) -> list[str]:
    model = tmp_path / "counter.scm.txt"
    model.write_text(COUNTER, encoding="utf-8")
    return ["causality", "--model", str(model), "--component", "Counter", "--mode", "strict"]


def test_causality_json_counts_configurations_and_steps(tmp_path, capsys):
    code = main(_counter(tmp_path) + ["--budget", "400", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["ok"] is True
    assert payload["configurations"] == 3 and payload["steps"] == 3 * 4
    assert (payload["proved"], payload["dependent"]) == (False, [["b", "c"], ["x", "c"]])
    assert "seed" not in payload


def test_causality_stops_when_no_configuration_is_left(tmp_path, capsys):
    # the four configurations of Counter are stepped within four ticks; a
    # search that went on over the remaining ticks would take minutes
    started = time.perf_counter()
    code = main(_counter(tmp_path) + ["--ticks", "10000000000", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert time.perf_counter() - started < 5
    assert code == 0 and (payload["configurations"], payload["steps"]) == (4, 16)


def test_a_proof_compiles_nothing_and_searches_nothing(capsys):
    doc = load_model(ACC)
    spec, stats = doc.components["ACC"], {}
    assert check_causality(spec, stats=stats) is None
    assert stats == {"configurations": 0, "steps": 0, "proved": True}
    assert "_simulators" not in spec.__dict__
    code = main(["causality", "--model", ACC, "--component", "ACC", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["ok"], payload["configurations"], payload["steps"], payload["proved"]) == \
        (True, 0, 0, True)


def test_causality_says_what_ok_rests_on(tmp_path, capsys):
    model = tmp_path / "five.scm.txt"
    model.write_text("component Five weak {\n  input x : int[0..9]\n  output y : bool\n"
                     "  states Run init\n  transition Run -> Run { y := x == 5 }\n}\n",
                     encoding="utf-8")
    argv = ["causality", "--model", str(model), "--component", "Five", "--mode", "strict"]
    # the grid holds x = 0 and x = 9 only, so the search finds no witness
    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["ok"], payload["proved"], payload["dependent"]) == (True, False, [["x", "y"]])
    assert main(argv) == 0
    assert "no causality violation found in 3 ticks of the value grid (not proved: y reads x " \
        "in the same tick)" in capsys.readouterr().out
    assert main(["causality", "--model", ACC, "--component", "ACC"]) == 0
    assert "no causality violation: proved" in capsys.readouterr().out
    assert main(argv[:-2] + ["--format", "json"]) == 0  # weak mode: nothing to prove or search
    assert "proved" not in json.loads(capsys.readouterr().out)


def test_causality_json_reports_the_violating_tick(capsys):
    code = main(["causality", "--model", ENCODER, "--component", "ConcreteEncoder",
                 "--mode", "strict", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    # the first row's successor is reached before the second row diverges
    assert (payload["ok"], payload["tick"], payload["steps"]) == (False, 0, 2)


def test_causality_seed_is_accepted_with_a_notice(capsys):
    code = main(["causality", "--model", BRAKE, "--component", "BrakeOverride", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 0 and "no causality violation" in captured.out
    assert "--seed is deprecated and ignored" in captured.err


def test_causality_over_budget_exits_2(tmp_path, capsys):
    assert main(_counter(tmp_path) + ["--budget", "2"]) == 2
    assert "more than 2 configurations" in capsys.readouterr().err


def test_verify_galois_json_counts_pairs(capsys):
    code = main(["verify-galois", "--model", ENCODER, "--galois", "EncGalois",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["ok"] is True
    assert payload["pairs"] == 3 * 2


@pytest.mark.parametrize("caps", ["0", "-1"])
def test_verify_galois_caps_below_1_exit_2(caps, capsys):
    code = main(["verify-galois", "--model", ENCODER, "--galois", "EncGalois", "--caps", caps])
    err = capsys.readouterr().err
    assert code == 2
    assert f"must be at least 1, got {caps}" in err and "refusing" not in err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--model", BRAKE, "--component", "BrakeOverride", "--ticks", "-1",
      "--vectors", str(fixture_path("brake_override.tv.csv"))], "at least 0"),
    (["causality", "--model", BRAKE, "--component", "BrakeOverride", "--ticks", "0"],
     "at least 1"),
    (["causality", "--model", BRAKE, "--component", "BrakeOverride", "--ticks", "x"],
     "invalid int value"),
    (["causality", "--model", BRAKE, "--component", "BrakeOverride", "--budget", "0"],
     "at least 1"),
])
def test_meaningless_counts_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_simulate_zero_ticks_prints_empty_tables(capsys):
    code = main(["simulate", "--model", BRAKE, "--component", "BrakeOverride", "--ticks", "0",
                 "--vectors", str(fixture_path("brake_override.tv.csv")), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(case["ticks"] == 0 and not any(case["outputs"].values())
               for case in payload["cases"])


def test_usage_error_exit_2(capsys):
    assert main(["test", "--model", BRAKE, "--component", "Nope",
                 "--vectors", str(fixture_path("brake_override.tv.csv"))]) == 2
    assert "unknown component" in capsys.readouterr().err


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.scm.txt"
    bad.write_text("component {", encoding="utf-8")
    assert main(["test", "--model", str(bad), "--component", "X",
                 "--vectors", "nope"]) == 2
    assert "model errors" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["model", "vectors"])
def test_a_leading_byte_order_mark_changes_nothing(kind, tmp_path, capsys):
    """Spreadsheet tools write UTF-8 with a byte-order mark. It changes
    neither the answer nor the line and column of a diagnostic."""
    model, vectors = tmp_path / "m.scm.txt", tmp_path / "v.tv.csv"
    good = {"model": fixture_text("brake_override.scm.txt"),
            "vectors": fixture_text("brake_override.tv.csv")}
    bad = {"model": "type T = \u00e9\n", "vectors": "#inputs\nDriverBrake\n1\n"}
    argv = ["test", "--model", str(model), "--component", "BrakeOverride",
            "--vectors", str(vectors)]
    seen = []
    for text in (good[kind], bad[kind]):
        for prefix in ("", "\ufeff"):
            model.write_text(good["model"], encoding="utf-8")
            vectors.write_text(good["vectors"], encoding="utf-8")
            (model if kind == "model" else vectors).write_text(prefix + text, encoding="utf-8")
            seen.append((main(argv), *capsys.readouterr()))
    assert [code for code, _, _ in seen] == [0, 0, 2, 2]
    assert seen[0] == seen[1] and seen[2] == seen[3]
    if kind == "model":
        assert "1:10: unexpected character" in seen[3][2]


def test_missing_vector_file_exit_2(capsys):
    assert main(["simulate", "--model", BRAKE, "--component", "BrakeOverride",
                 "--vectors", "/nonexistent.tv.csv"]) == 2


def test_color_env_enables_ansi(monkeypatch, capsys):
    monkeypatch.setenv("STREAMCHECK_COLOR", "1")
    main(["test", "--model", BRAKE, "--component", "BrakeOverride",
          "--vectors", str(fixture_path("brake_override.tv.csv"))])
    assert "\x1b[32m" in capsys.readouterr().out



def test_integer_literal_initial_values_of_real_slots_are_doubles(tmp_path, capsys):
    model, vectors = tmp_path / "halves.scm.txt", tmp_path / "halves.tv.csv"
    model.write_text(HALVES, encoding="utf-8")
    vectors.write_text("#inputs\nx\ntrue\ntrue\nfalse\n", encoding="utf-8")
    code = main(["simulate", "--model", str(model), "--component", "Halves",
                 "--vectors", str(vectors), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"outputs": {"y": [0.0, 1.0, 1.0], "z": [0.0, 0.5, 0.5]}' in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_simulate_non_finite_real_exits_3(tmp_path, capsys, value):
    vectors = tmp_path / "nan.tv.csv"
    vectors.write_text(f"#inputs\ni_c\n2.5\n{value}\n", encoding="utf-8")
    code = main(["simulate", "--model", ENCODER, "--component", "ConcreteEncoder",
                 "--vectors", str(vectors)])
    err = capsys.readouterr().err
    assert code == 3
    assert "tick 2" in err and "finite" in err


@pytest.mark.parametrize("argv", [
    ["causality", "--model", BRAKE, "--component", "BrakeOverride", "--eps", "0.1"],
    ["verify-galois", "--model", ENCODER, "--galois", "EncGalois", "--orientation", "literal"],
    ["simulate", "--model", BRAKE, "--component", "BrakeOverride", "--eps", "0.1",
     "--vectors", str(fixture_path("brake_override.tv.csv"))],
    ["check", "--model", ENCODER, "--refinement", "Encoder", "--check-determinism",
     "--vectors", str(fixture_path("encoder_abstract.tv.csv")),
     "--vectors", str(fixture_path("encoder_concrete.tv.csv"))],
])
def test_flags_a_subcommand_ignores_are_rejected(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_ticks_beyond_a_case_horizon_exit_2(capsys):
    code = main(["simulate", "--model", BRAKE, "--component", "BrakeOverride", "--ticks", "99",
                 "--vectors", str(fixture_path("brake_override.tv.csv"))])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "case 'brake_override_iso': input horizon 5 < requested ticks 99" in captured.err


def test_vector_cell_over_the_limit_exit_2(tmp_path, capsys):
    vectors = tmp_path / "long.tv.csv"
    vectors.write_text("#inputs\nDriverBrake,AccBrake,AccSwitch\n" + "x" * 140000 + ",1,true\n",
                       encoding="utf-8")
    assert main(["test", "--model", BRAKE, "--component", "BrakeOverride",
                 "--vectors", str(vectors)]) == 2
    assert "3:1: cell longer than 131072 characters" in capsys.readouterr().err


def test_non_utf8_vector_file_exit_2(tmp_path, capsys):
    vectors = tmp_path / "latin1.tv.csv"
    vectors.write_bytes(b"#inputs\nDriverBrake,AccBrake,AccSwitch\n\xff1,2,true\n")
    assert main(["test", "--model", BRAKE, "--component", "BrakeOverride",
                 "--vectors", str(vectors)]) == 2
    assert f"cannot read vector file {vectors}: not UTF-8" in capsys.readouterr().err


def test_directory_as_model_file_exit_2(tmp_path, capsys):
    assert main(["test", "--model", str(tmp_path), "--component", "BrakeOverride",
                 "--vectors", str(fixture_path("brake_override.tv.csv"))]) == 2
    assert f"cannot read model file {tmp_path}" in capsys.readouterr().err


def test_unwritable_concretize_out_exit_2(tmp_path, capsys):
    assert main(["concretize", "--model", ENCODER, "--refinement", "Encoder",
                 "--vectors", str(fixture_path("encoder_concretize.tv.csv")),
                 "--out", str(tmp_path)]) == 2
    assert f"cannot write {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", BRAKE, "--component", "BrakeOverride", "--mode", "strict",
     "--vectors", str(fixture_path("brake_override.tv.csv"))],
    ["verify-galois", "--model", ENCODER, "--galois", "EncGalois", "--cap", "5"],
])
def test_option_prefixes_are_not_expanded(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


WIDE_GALOIS = """
component Abs weak {
  input a : bool
  output o : bool
  states Run init
  transition Run -> Run { o := a }
}

component Conc weak {
  input p : int[0..4]
  input q : int[0..4]
  input r : int[0..4]
  output s : bool
  states Run init
  transition Run -> Run { s := p + q + r > 6 }
}

galois Wide {
  abstract Abs
  concrete Conc
  map a := p + q + r > 6
  universe {
    a in { true, false }
    p in { 0, 1, 2, 3, 4 }
    q in { 0, 1, 2, 3, 4 }
    r in { 0, 1, 2, 3, 4 }
    horizon 2
  }
}
"""


def test_verify_galois_refuses_an_oversized_universe_before_enumerating(
        tmp_path, monkeypatch, capsys):
    def enumerate_side(side, horizon, types):
        raise AssertionError("the universe was enumerated")

    monkeypatch.setattr("streamcheck.abstraction._side_elements", enumerate_side)
    model = tmp_path / "wide.scm.txt"
    model.write_text(WIDE_GALOIS, encoding="utf-8")
    code = main(["verify-galois", "--model", str(model), "--galois", "Wide", "--caps", "12"])
    assert code == 2
    assert "concrete universe has 125 value tuples a tick, cap is 12" in capsys.readouterr().err



def _universe(tmp_path, a: str, horizon: int) -> str:
    """WIDE_GALOIS with the values `a` for `a`, 3 for `p`, `q` and `r`, and
    the given horizon."""
    text = (WIDE_GALOIS.replace("a in { true, false }", f"a in {a}")
            .replace("{ 0, 1, 2, 3, 4 }", "{ 3 }").replace("horizon 2", f"horizon {horizon}"))
    model = tmp_path / "universe.scm.txt"
    model.write_text(text, encoding="utf-8")
    return str(model)


@pytest.mark.parametrize("a, horizon, caps, pairs", [
    ("{ true, false }", 4, 16, 2),  # two abstract value tuples, one concrete
    ("{ true }", 12, 12, 1),  # one value tuple a side
])
def test_verify_galois_runs_a_horizon_above_3_that_fits_the_caps(
        tmp_path, capsys, a, horizon, caps, pairs):
    code = main(["verify-galois", "--model", _universe(tmp_path, a, horizon), "--galois", "Wide",
                 "--caps", str(caps), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["ok"], payload["pairs"]) == (0, True, pairs)


@pytest.mark.parametrize("a, horizon, caps, message", [
    ("{ true, false }", 1, 1, "abstract universe has 2 value tuples a tick, cap is 1"),
    ("{ true, false }", 4, 1, "abstract universe has 2 value tuples a tick, cap is 1"),
])
def test_verify_galois_refuses_a_universe_over_the_caps(tmp_path, capsys, a, horizon, caps,
                                                        message):
    """The caps bound the value tuples of a tick, whatever the horizon."""
    code = main(["verify-galois", "--model", _universe(tmp_path, a, horizon), "--galois", "Wide",
                 "--caps", str(caps)])
    assert code == 2 and message in capsys.readouterr().err


def test_verify_galois_refuses_a_long_horizon_without_computing_its_size(tmp_path, capsys):
    """A universe of 10^9 ticks is decided on one tick: neither its 2^(10^9)
    histories nor their count are computed. Within the caps it answers, and
    over them it is refused by its size at a tick."""
    model = _universe(tmp_path, "{ true, false }", 10 ** 9)
    started = time.perf_counter()
    code = main(["verify-galois", "--model", model, "--galois", "Wide", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["ok"], payload["pairs"]) == (0, True, 2)
    assert main(["verify-galois", "--model", model, "--galois", "Wide", "--caps", "1"]) == 2
    assert "abstract universe has 2 value tuples a tick, cap is 1" in capsys.readouterr().err
    assert time.perf_counter() - started < 1.0


def test_verify_galois_reports_a_failing_law_at_a_long_horizon(tmp_path, capsys):
    text = fixture_path("encoder.scm.txt").read_text(encoding="utf-8")
    text = text.replace("  map o_a := o_c >= 0\n", "  map o_a := o_c >= 0\n"
                        "  member (i_a and i_c > 0) or (not i_a and i_c <= 0)\n")
    model = tmp_path / "encoder.scm.txt"
    model.write_text(text.replace("horizon 1\n", "horizon 1000000000\n"), encoding="utf-8")
    started = time.perf_counter()
    code = main(["verify-galois", "--model", str(model), "--galois", "EncGalois"])
    out = capsys.readouterr().out
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out.startswith("COUNTEREXAMPLE  EncGalois: ")
    assert "for T_c={(i_c=[0.0])}, T_a={(i_a=[True])}, each value held for 1000000000 ticks" in out


def test_verify_galois_refuses_two_map_entries_for_one_channel(tmp_path, capsys):
    text = fixture_path("encoder.scm.txt").read_text(encoding="utf-8")
    model = tmp_path / "encoder.scm.txt"
    model.write_text(text.replace("  map i_a := i_c >= 0\n",
                                  "  map i_a := i_c >= 0\n  map i_a := i_c > 0\n"),
                     encoding="utf-8")
    code = main(["verify-galois", "--model", str(model), "--galois", "EncGalois"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "galois 'EncGalois': two abstraction map entries apply to channel 'i_a'" in captured.err


_CHAIN_LINE = "  transition S -> S { o := "


def _chain_model(tmp_path, terms: int, op: str = "+", causality: str = "strict") -> str:
    """An automaton whose output is `terms` copies of its input joined by
    `op`, strict unless `causality` says weak."""
    model = tmp_path / f"chain_{causality}.scm.txt"
    model.write_text(f"component C{' weak' * (causality == 'weak')} {{\n"
                     "  input x : real\n  output o : real init 0.0\n"
                     f"  states S init\n{_CHAIN_LINE}{f' {op} '.join(['x'] * terms)} }}\n}}\n",
                     encoding="utf-8")
    (tmp_path / "chain.tv.csv").write_text("#case c\n#inputs\nx\n1.0\n2.0\n", encoding="utf-8")
    return str(model)


@pytest.mark.parametrize("terms", [500, 1000])
def test_an_over_tall_expression_exits_2_at_its_location(tmp_path, capsys, terms):
    model = _chain_model(tmp_path, terms)
    code = main(["simulate", "--model", model, "--component", "C",
                 "--vectors", str(tmp_path / "chain.tv.csv")])
    err = capsys.readouterr().err
    # at the `+` that adds term MAX_HEIGHT + 1
    column = len(_CHAIN_LINE) + len(" + ".join(["x"] * MAX_HEIGHT)) + 2
    assert code == 2
    assert f"{model}:5:{column}: expression tree more than {MAX_HEIGHT} nodes tall" in err
    assert "Traceback" not in err and "internal parse failure" not in err


def test_an_expression_at_the_height_bound_loads_compiles_and_runs(tmp_path, capsys):
    # a tree of binary nodes is the most recursion-hungry shape: the code
    # generator recurses twice per binary node, and calls, the only other
    # node it recurses twice for, nest at most 100 levels deep
    model = _chain_model(tmp_path, MAX_HEIGHT)
    code = main(["simulate", "--model", model, "--component", "C",
                 "--vectors", str(tmp_path / "chain.tv.csv"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["cases"][0]["outputs"]["o"] == [0.0, MAX_HEIGHT * 1.0]
    # a strict chain is proved without compiling the successor function; a
    # weak one is searched, and x = 0.0 and x = 1.0 give different sums
    weak = _chain_model(tmp_path, MAX_HEIGHT, causality="weak")
    assert main(["causality", "--model", weak, "--component", "C", "--mode", "strict"]) == 1


def test_a_division_chain_at_the_height_bound_loads_compiles_and_runs(tmp_path, capsys):
    # a division by a variable must not nest its left operand in parentheses,
    # of which Python allows 200 levels
    model = _chain_model(tmp_path, MAX_HEIGHT, "/")
    code = main(["simulate", "--model", model, "--component", "C",
                 "--vectors", str(tmp_path / "chain.tv.csv"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["cases"][0]["outputs"]["o"] == [0.0, 1.0]
    # the causality search of a weak chain steps x = 0.0 too, and the chain divides by it
    weak = _chain_model(tmp_path, MAX_HEIGHT, "/", "weak")
    assert main(["causality", "--model", weak, "--component", "C", "--mode", "strict"]) == 3
    err = capsys.readouterr().err
    assert "division by zero" in err and "Traceback" not in err


def _readme_commands() -> list[str]:
    """Every `streamcheck` command line of README's sh blocks, continuations joined."""
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("streamcheck ")]


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_examples_run(command, tmp_path, monkeypatch, capsys):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert "Traceback" not in captured.out + captured.err
