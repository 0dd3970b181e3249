"""What the benchmark under perfbench/ reads from the library.

The benchmark cuts its timings where named library functions return, traces
the library's modules by name and reads the caches of every ChainEngine. A
name it cannot find is skipped without an error, and the timings it reports
then silently change meaning, so these tests read perfbench's own tables and
resolve them against the library.
"""

import importlib
import types
from pathlib import Path

import pytest

import hypaction as H

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Run perfbench/<name>.py as a module, writing no bytecode cache there."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _load("workloads").WORKLOADS


def _resolve(qual):
    """The library object a dotted name denotes, looked up as
    ``worker.install_splits`` does: a layer module, then attributes."""
    layer, *path = qual.split(".")
    owner = importlib.import_module(f"hypaction.{layer}")
    for attr in path:
        owner = getattr(owner, attr, None)
    return owner


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_split_point_and_item_function_exists(name):
    wl = WORKLOADS[name]
    missing = [q for q in (*wl.split_after, wl.item_fn) if not callable(_resolve(q))]
    assert missing == []


def test_every_traced_layer_imports():
    for layer in _load("tracer").LAYERS:
        importlib.import_module(f"hypaction.{layer}")


def test_a_fresh_engine_exposes_the_counters_the_benchmark_reads():
    engine = H.ChainEngine(H.FreeGroupSpec(2))
    assert engine.cache.memo == {}
    assert (engine.cache.hits, engine.cache.misses) == (0, 0)
    assert len(engine.q._paths) == 0
