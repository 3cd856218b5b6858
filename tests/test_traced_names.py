"""The functions the benchmark's tracer wraps or counts by name still exist.

perfbench/tracing.py looks each (module, function) of SPANS and COUNTED up
with getattr when a traced run starts, so a rename would otherwise surface
only there.  analysis.max_rate, psd_conditions and feasible (with the
_pooled they share) have no caller in the package; these lookups are what
keep them.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_module():
    tracing = _load_tracing()
    names = [(module, func) for module, func, _hook in tracing.SPANS + tracing.COUNTED]
    assert names
    missing = [f"lyapsearch.{module}.{func}" for module, func in names
               if not callable(getattr(importlib.import_module(f"lyapsearch.{module}"), func,
                                       None))]
    assert not missing
