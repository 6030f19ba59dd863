"""The names the benchmark's per-layer tracing reads from the package.

``bench/tracing.py`` imports every layer module and reads the memo caches
listed in its ``CACHES`` through ``cache_info()``.  A layer that fails to
import leaves the traced run without metrics, and a memo that is gone or is
no longer a ``functools.cache`` makes its metric read ``null``.  The traced
spans of the module-level functions named in ``SPANS`` (read by
``bench/run.py``) and in ``PRIVATE`` feed per-layer metrics the same way.
A change that retires one of these names edits this test and says so.
"""

from __future__ import annotations

import importlib.util
import inspect
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

#: Span names whose calls or seconds ``bench/run.py`` reads: layer -> names.
SPANS = {
    "rep": ("matrix_of_connector",),
    "skein": ("multiply",),
    "duality": ("commutant_dim", "image_rank"),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_imports():
    tracing = _tracing()
    assert sorted(tracing.modules()) == sorted(tracing.LAYERS)
    assert len(tracing.LAYERS) == 7


def test_every_traced_memo_is_present():
    tracing = _tracing()
    handles = tracing.cache_handles()
    assert handles.keys() == tracing.CACHES.keys()
    assert [name for name, fn in handles.items() if fn is None] == []


def test_every_traced_span_is_a_module_level_function():
    tracing = _tracing()
    mods = tracing.modules()
    names = [(layer, name) for spans in (SPANS, tracing.PRIVATE) for layer, group in spans.items() for name in group]
    assert len(names) == 5
    for layer, name in names:
        fn = getattr(mods[layer], name, None)
        assert inspect.isfunction(fn), f"{layer}.{name}"
        assert (fn.__module__, fn.__qualname__) == (mods[layer].__name__, name)
