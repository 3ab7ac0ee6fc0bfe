"""The benchmark's span tracer must find every function it wraps in the package."""

import importlib.util
from pathlib import Path

import phi4vqe.cli  # noqa: F401  (loads every module the tracer patches)

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_binds():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        unbound = [name for name in tracer_module.TARGETS if not tracer.bindings.get(name)]
    finally:
        tracer.uninstall()
    assert unbound == []
