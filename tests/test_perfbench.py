"""The benchmark's tracer and counter reach into jetgauge by name; each
name must resolve.

A renamed or removed traced function, or a QuadScalar slot the counter
reads, would otherwise fail only a `perfbench/run.py --trace 1` run.
perfbench/instrument.py is loaded from its file; its counter is installed
only in a child interpreter, because it patches QuadScalar.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTRUMENT = os.path.join(ROOT, "perfbench", "instrument.py")


def load_instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    instrument = load_instrument()
    for span, module, attr in instrument.SPAN_TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"span {span}: {module}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"span {span}: {module}.{attr} is not callable"
    verify = importlib.import_module("jetgauge.verify")
    for suite in instrument.SUITES:
        assert callable(getattr(verify, f"suite_{suite}", None)), suite
    for module in instrument.WHOLE_MODULES:
        importlib.import_module(module)


# Run in a fresh interpreter: load instrument.py from its file, install its
# Counter, then multiply (1/sqrt2)(1/sqrt2) and (1/sqrt2)(1/3) and invert.
COUNTER_CHILD = """
import importlib.util, json, sys
from fractions import Fraction
spec = importlib.util.spec_from_file_location("perfbench_instrument", sys.argv[1])
instrument = importlib.util.module_from_spec(spec)
spec.loader.exec_module(instrument)
import jetgauge.dynamics  # Counter.install also wraps the RK4 entry points
from jetgauge.exactnum import QS_INV_SQRT2
counter = instrument.Counter()
counter.install()
half = QS_INV_SQRT2 * QS_INV_SQRT2
sixth = QS_INV_SQRT2 * Fraction(1, 3)
inverse = sixth.inverse()
print(json.dumps([counter.counts, [str(half), str(sixth), str(inverse), bool(inverse)]]))
"""


def test_counter_counts_quadscalar_operations():
    """The benchmark's Counter reads the slots b, c and d to tell irrational
    products, and wraps __init__, __mul__, __bool__ and inverse.

    QuadScalar keeps its four slots a-d, where one radical would fit in a
    rational and a root, only for this counter; a change to that layout has
    to change perfbench/instrument.py with it."""
    src = os.path.join(ROOT, "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = subprocess.run([sys.executable, "-c", COUNTER_CHILD, INSTRUMENT],
                         capture_output=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path))).stdout
    counts, values = json.loads(out)
    assert values == ["1/2", "1/6*sqrt2", "3*sqrt2", True]
    assert {k: v for k, v in counts.items() if k.startswith("exactnum.")} == {
        "exactnum.qs_mul.calls": 2,
        "exactnum.qs_mul.irrational": 1,  # only the product of two radicals
        "exactnum.qs_bool.calls": 1,
        "exactnum.qs_new.calls": 4,  # two products, the coerced 1/3, the inverse
        "exactnum.qs_inverse.calls": 1,
    }
