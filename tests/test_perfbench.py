"""The benchmark's tracer wraps jetgauge functions by name; each must resolve.

A renamed or removed traced function would otherwise fail only a
`perfbench/run.py --trace 1` run.  perfbench/instrument.py is loaded from
its file and only read.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_instrument():
    path = os.path.join(ROOT, "perfbench", "instrument.py")
    spec = importlib.util.spec_from_file_location("perfbench_instrument", path)
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
