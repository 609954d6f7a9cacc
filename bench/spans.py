"""In-memory span tracing around streamcheck's public calls.

A span is (id, parent, op, name, start, end, attrs). Wrappers are installed
in every loaded streamcheck module that holds the original function, because
`cli`, `testcases` and `abstraction` bind `run`, `suite_run`, `verify_galois`
and the rest by name at import, and `check_causality` reaches `run` as a
global of `components`. `exprs.evaluate` is not wrapped: it is called
millions of times, and is timed on its own instead (see run.py).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

DEEP_NET = "DeepNet"  # the top composite of gen.deep_net_model

def _ticks(args, kwargs) -> int:
    n = kwargs.get("n", args[2] if len(args) > 2 else None)
    return args[1].horizon if n is None else n


def _atoms(spec) -> int:
    subs = getattr(spec, "subcomponents", None)
    return 1 if subs is None else sum(_atoms(s) for _, s in subs)


def _run_attrs(args, kwargs, result) -> dict:
    """Ticks of every run; atoms only for runs of the deep network, the one
    workload component on which components.run.us_per_atom_step is defined."""
    spec = args[0]
    return {"ticks": _ticks(args, kwargs),
            "deep_atoms": _atoms(spec) if spec.name == DEEP_NET else 0}


def _rows(cases) -> int:
    return sum(tc.horizon * (1 + len(tc.expected.groups)) for tc in cases)


# (module, function, attributes taken from (args, kwargs, result)); the span
# is named module.function.
TARGETS: list[tuple[str, str, Callable[..., dict] | None]] = [
    ("dsl", "load_model", lambda a, k, r: {"bytes": Path(a[0]).stat().st_size}),
    ("vectors", "parse_testcases", lambda a, k, r: {"cases": len(r), "rows": _rows(r)}),
    ("vectors", "serialize_testcases", None),
    ("components", "run", _run_attrs),
    ("components", "check_causality", None),
    ("testcases", "suite_run", None),
    ("testcases", "compare_histories", lambda a, k, r: {"ticks": a[0].horizon}),
    ("abstraction", "check_correspondence", None),
    ("abstraction", "eval_relation", None),
    ("abstraction", "concretize", None),
    ("abstraction", "verify_galois", None),
    ("abstraction", "g_membership", None),
    ("abstraction", "abstract_output", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = ""
        self._patches: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, attrs: Callable[..., dict] | None = None) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (sid, parent, self.op, name, start, time.perf_counter(), {"raised": 1})
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans[sid] = (sid, parent, self.op, name, start, end,
                          attrs(args, kwargs, result) if attrs else {})
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every streamcheck module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "streamcheck" or n.startswith("streamcheck."))]
        for home, attr, attrs in TARGETS:
            original = getattr(sys.modules[f"streamcheck.{home}"], attr)
            wrapper = self.span(f"{home}.{attr}", original, attrs)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end, **attrs}) + "\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer totals, counts and self times of one pass's spans."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr_sum: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    names = {}
    for sid, parent, _, name, start, end, attrs in spans:
        names[sid] = name
        total[name] += end - start
        calls[name] += 1
        for key, value in attrs.items():
            attr_sum[f"{name}.{key}"] += value
        layer_self[name.split(".")[0]] += end - start - child_time[sid]
    deep_runs = [(end - start, a["ticks"] * a["deep_atoms"]) for *_, name, start, end, a in spans
                 if name == "components.run" and a.get("deep_atoms")]
    deep_s, deep_steps = sum(t for t, _ in deep_runs), sum(n for _, n in deep_runs)
    causality_runs = sum(1 for _, parent, _, name, *_ in spans
                         if name == "components.run" and parent is not None
                         and names[parent] == "components.check_causality")
    run_s, run_ticks = total["components.run"], attr_sum["components.run.ticks"]
    m = {
        "components.run.s": run_s,
        "components.run.calls": calls["components.run"],
        "components.run.ticks": int(run_ticks),
        "components.run.us_per_tick": 1e6 * run_s / run_ticks if run_ticks else 0.0,
        "components.run.us_per_atom_step": 1e6 * deep_s / deep_steps if deep_steps else 0.0,
        "components.check_causality.s": total["components.check_causality"],
        "components.check_causality.runs": causality_runs,
        "vectors.parse_testcases.s": total["vectors.parse_testcases"],
        "vectors.cases": int(attr_sum["vectors.parse_testcases.cases"]),
        "vectors.rows": int(attr_sum["vectors.parse_testcases.rows"]),
        "vectors.serialize_testcases.s": total["vectors.serialize_testcases"],
        "abstraction.concretize.s": total["abstraction.concretize"],
        "testcases.compare_histories.s": total["testcases.compare_histories"],
        "testcases.compare_histories.ticks": int(attr_sum["testcases.compare_histories.ticks"]),
        "abstraction.check_correspondence.s": total["abstraction.check_correspondence"],
        "abstraction.eval_relation.calls": calls["abstraction.eval_relation"],
        "abstraction.verify_galois.s": total["abstraction.verify_galois"],
        "abstraction.g_membership.calls": calls["abstraction.g_membership"],
        "abstraction.abstract_output.calls": calls["abstraction.abstract_output"],
        "dsl.load_models.s": total["dsl.load_model"],
        "dsl.model_bytes": int(attr_sum["dsl.load_model.bytes"]),
        "cli.self.s": layer_self["cli"],
    }
    for layer in ("dsl", "vectors", "testcases", "components", "abstraction"):
        m[f"{layer}.self.s"] = layer_self[layer]
    return m
