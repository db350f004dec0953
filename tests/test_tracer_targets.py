"""Every name the benchmark's tracer wraps still exists.

``perfbench/traced.py`` puts a timing span around each ``(module, attr)``
in its ``TARGETS``; a renamed or deleted function breaks every traced
benchmark run.  The module is loaded by file path and its targets are
resolved the way ``Tracer.install`` resolves them, without installing
anything (installing patches the package process-wide).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_traced().TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(t[0], t[1]) for t in TARGETS], ids=[f"{t[0]}.{t[1]}" for t in TARGETS]
)
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        # a method is wrapped in its class's own namespace
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
