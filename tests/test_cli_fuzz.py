"""Fuzz test of `streamcheck test` on mutated vector files.

A fixture `.tv.csv` gets byte flips, inserted quotes and commas, deleted
bytes, blank and `#` lines and huge cells. Whatever the result, the CLI must
end in one of the documented exit codes (0-3) with a message, never with a
traceback or an exception out of `main`.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from streamcheck.cli import main

from conftest import fixture_path

BRAKE = str(fixture_path("brake_override.scm.txt"))
SOURCE = fixture_path("brake_override.tv.csv").read_bytes()

_INSERTS = [b'"', b",", b"\n", b"\r", b"\n\n", b"\n#\n", b"\n# note\n", b"\n#inputs\n",
            b"\x00", b"\xff", b"\xc3", b"x" * 140000, b'"' + b"y" * 140000 + b'"']


@st.composite
def _mutated(draw):
    data = bytearray(SOURCE)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(["flip", "insert", "delete"]))
        if how == "flip" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif how == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            data[at:at] = draw(st.sampled_from(_INSERTS))
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(_mutated())
def test_mutated_vectors_end_in_a_documented_exit_code(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.tv.csv"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["test", "--model", BRAKE, "--component", "BrakeOverride",
                     "--vectors", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
