"""The names that ``perfbench/tracing.py`` wraps must exist in the package.

The tracer looks methods up by name in their class ``__dict__`` and metrics
by span name, so a rename or deletion would only show when a traced benchmark
runs.  These checks read the tracer's tables and compare them with the code.
"""

import importlib
import inspect
import json

from util import perfbench_module, run_fresh


def _layer(tracing, name):
    return importlib.import_module(f"{tracing.PACKAGE}.{name}")


def test_traced_methods_are_in_their_class_dict():
    tracing = perfbench_module("tracing")
    for (layer, cls_name), methods in tracing.METHODS.items():
        cls = getattr(_layer(tracing, layer), cls_name)
        for meth in methods:
            assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"


def test_metric_spans_name_traced_functions():
    tracing = perfbench_module("tracing")
    names = [n for names in tracing.TIME_METRICS.values() for n in names]
    names += [n for names in tracing.CALL_METRICS.values() for n in names]
    names += list(tracing.SELF_METRICS.values())
    names += [name for name, _ in tracing.VALUE_METRICS.values()]
    for span in names:
        layer, *path = span.split(".")
        assert layer in tracing.LAYERS, span
        module = _layer(tracing, layer)
        if len(path) == 2:
            # a method: traced when METHODS lists it
            cls_name, meth = path
            assert meth in tracing.METHODS.get((layer, cls_name), ()), span
        else:
            (attr,) = path
            obj = getattr(module, attr, None)
            assert not attr.startswith("_") and inspect.isfunction(obj), span
            assert obj.__module__ == module.__name__, span


def test_cli_import_loads_every_traced_module_and_method():
    # Tracer.install indexes sys.modules by layer, so a layer that importing
    # the CLI leaves unloaded would crash a traced run
    tracing = perfbench_module("tracing")
    child = """
import json, sys
import adhm_blowup_kit.cli
package, layers, methods = json.loads(sys.argv[1])
missing = [layer for layer in layers if f"{package}.{layer}" not in sys.modules]
for layer, cls_name, names in methods:
    module = sys.modules.get(f"{package}.{layer}")
    cls = getattr(module, cls_name, None)
    missing += [f"{layer}.{cls_name}.{name}" for name in names
                if cls is None or name not in cls.__dict__]
print(json.dumps(missing))
"""
    methods = [[layer, cls, names] for (layer, cls), names in tracing.METHODS.items()]
    run = run_fresh("-c", child, json.dumps([tracing.PACKAGE, tracing.LAYERS, methods]))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []
