"""The entry points ``perfbench/tracing.py`` patches for ``--trace 1`` exist.

The tracer replaces methods through ``cls.__dict__`` and module functions by
name; a renamed or deleted emblend entry point would make a traced run fail
at install time. This test loads the tracer module read-only and checks each
of its targets.
"""
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_traced_entry_point_exists():
    methods, functions = _tracer()._targets()
    assert methods and functions
    missing = [f"{cls.__name__}.{attr}" for cls, attr, _, _ in methods
               if attr not in cls.__dict__]
    missing += [f"{home.__name__}.{attr}" for home, attr, _, _ in functions
                if not callable(getattr(home, attr, None))]
    assert missing == []
