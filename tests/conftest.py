import pathlib

import pytest

from streamcheck.dsl import ModelDocument, load_model

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# acc_refinement references components from the two files before it
MODEL_FILES = ["encoder.scm.txt", "brake_override.scm.txt",
               "acc.scm.txt", "acc_refinement.scm.txt"]

# integer-literal initial values of real slots, which run as doubles
HALVES = """component Halves {
  input x : bool
  output y : real init 0
  output z : real init 0
  var v : real = 1
  states Run init
  transition Run -> Run { y := v; z := v / 2 }
}
"""


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def doc() -> ModelDocument:
    merged = ModelDocument()
    for name in MODEL_FILES:
        merged.merge(load_model(fixture_path(name), base=merged))
    return merged
