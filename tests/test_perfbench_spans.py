"""The benchmark's span tracing must keep resolving against the package.

``perfbench/spans.py`` rebinds named functions and methods of quivergrass
to traced wrappers.  A rename or a moved call in the package would make a
``--trace 1`` run fail or silently record nothing; this test catches both
without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

from quivergrass import lab
from quivergrass.quiver import linear_quiver

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(modname: str, attr: str):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_every_span_target_resolves_and_is_restored():
    spans = _load_spans()
    before = {(m, a): _resolve(m, a) for m, a, _ in spans.TARGETS}
    rec = spans.SpanRecorder()
    with spans.instrument(rec):
        for (m, a), orig in before.items():
            assert _resolve(m, a).__wrapped__ is orig, f"{m}.{a} is not traced"
        # calls made inside the package go through the traced names too
        cfg = lab.PrincipalConfig(linear_quiver(2), (1, 1), (1, 1))
        lab.classify_all(cfg)
    assert {"poset.build_poset", "lab.classify_all", "pointcount.classify",
            "pointcount.count_points"} <= set(rec.name)
    assert rec.name.count("poset.build_poset") == 1
    for (m, a), orig in before.items():
        assert _resolve(m, a) is orig, f"{m}.{a} was not restored"
