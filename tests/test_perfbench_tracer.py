"""The benchmark tracer still finds every odlab attribute it wraps."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores_every_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, attr) for mod, attr, _ in tracer._CALLS] + list(tracer._FIELDS)
    originals = [getattr(mod, attr) for mod, attr in names]
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = [getattr(mod, attr) for mod, attr in names]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        t.uninstall()
    assert all(getattr(mod, attr) is o
               for (mod, attr), o in zip(names, originals))
