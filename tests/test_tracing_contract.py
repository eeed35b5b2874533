"""The entry points ``perfbench/tracing.py`` patches for ``--trace 1`` exist.

The tracer replaces methods through ``cls.__dict__`` and module functions by
name; a renamed or deleted emblend entry point would make a traced run fail
at install time. This test loads the tracer module read-only and checks each
of its targets. The last test checks every emblend name any perfbench module
imports.
"""
import ast
import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PERFBENCH = TRACING.parent


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


def test_stub_embed_values_are_the_batch_rows():
    """``perfbench/stub.py`` answers remote embed requests with
    ``SyntheticExpert.embed(item).values``; those bytes must be the row
    ``embed_batch`` gives the same item."""
    from emblend.experts import EmbedItem, SyntheticExpert, SyntheticExpertConfig, encode_payload
    from emblend.geometry import Embedding

    expert = SyntheticExpert(SyntheticExpertConfig(
        expert_id="stub", seed=3, dim=16, semantic_dim=8, gap_magnitude=0.7, noise_sigma=0.05))
    items = [EmbedItem("a", "text", "a red kite over the dunes"),
             EmbedItem("b#r0", "image", encode_payload([0.5, -1, 2, 0, 1.5, 3, -0.2, 1e-3])),
             EmbedItem("c#a1", "audio", "rain")]
    batch = expert.embed_batch(items)
    for row, item in zip(batch, items, strict=True):
        emb = expert.embed(item)
        assert isinstance(emb, Embedding)
        assert emb.values.tobytes() == expert.embed_batch([item])[0].tobytes()
        assert emb.values.tobytes() == row.tobytes()


def test_every_emblend_name_perfbench_imports_resolves():
    """Each ``import emblend...`` and each name of ``from emblend... import``
    in ``perfbench/*.py`` resolves, so that a moved name breaks a test and
    not only the benchmark (``perfbench/stub.py`` runs in its own process)."""
    unresolved, checked = [], 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names if a.name.split(".")[0] == "emblend"]
                checked += len(modules)
                for name in modules:
                    importlib.import_module(name)
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "emblend":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    checked += 1
                    if not hasattr(module, alias.name):
                        try:
                            importlib.import_module(f"{node.module}.{alias.name}")
                        except ImportError:
                            unresolved.append(f"{path.name}: {node.module}.{alias.name}")
    assert checked > 0
    assert unresolved == []
