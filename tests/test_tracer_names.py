"""The benchmark tracer wraps library functions by name; a renamed or
removed function must fail here, not in the next traced benchmark run."""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_in_quadrics():
    tracer = _load_tracer()
    assert tracer.WRAPPED
    missing = []
    for modname, qual in tracer.WRAPPED:
        home = importlib.import_module(f"quadrics.{modname}")
        if "." in qual:
            # the tracer replaces the method in the class's own __dict__
            cls_name, attr = qual.split(".")
            cls = getattr(home, cls_name, None)
            found = cls is not None and callable(vars(cls).get(attr))
        else:
            found = callable(getattr(home, qual, None))
        if not found:
            missing.append(f"{modname}.{qual}")
    assert not missing, f"tracer names missing from quadrics: {missing}"
    for modname in tracer.MODULES:
        importlib.import_module(f"quadrics.{modname}")
