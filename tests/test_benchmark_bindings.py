"""The benchmark's tracer must still find every function it wraps.

perfbench/tracing.py patches program functions by module and name; a
renamed or deleted one would end a traced benchmark run as failed, so
this check makes the same lookups in the suite.
"""

import importlib.util
import os

import teunroll.cli  # noqa: F401  (imports every module the tracer patches)

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_benchmark_tracer_binds_every_required_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing_bindings() == []
    finally:
        tracer.uninstall()
