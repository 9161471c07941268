"""The benchmark's span bindings resolve against the program as imported.

``perfbench/spans.py`` wraps program functions by name from outside, so a
name that moves or vanishes would otherwise fail only ``python3 -m pytest
perfbench``.  Here the bindings are made on the ``reembed`` submodules the
suite already imported, without a re-import, and undone before the test
ends.  ``perfbench/`` is only read.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import reembed

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bound_name_resolves_and_unbinds():
    spans = _load_spans()
    modules = {m.name: importlib.import_module(f"reembed.{m.name}")
               for m in pkgutil.iter_modules(reembed.__path__)}
    tracer = spans.Tracer()
    try:
        spans.bind_layers(tracer, modules)
        bound = list(tracer._undo)
        assert bound
        for owner, name, original in bound:
            assert getattr(owner, name).__wrapped__ is original
    finally:
        tracer.unbind_all()
    for owner, name, original in bound:
        assert getattr(owner, name) is original
