"""The names the benchmark's per-layer tracing reads from the package.

``bench/tracing.py`` imports every layer module and reads the memo caches
listed in its ``CACHES`` through ``cache_info()``.  A layer that fails to
import leaves the traced run without metrics, and a memo that is gone or is
no longer a ``functools.cache`` makes its metric read ``null``.  A change
that retires one of these memos edits this test and says so.
"""

from __future__ import annotations

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
