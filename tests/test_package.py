"""The package surface: every exported name resolves, and the class hooks and
search functions the traced benchmark (``bench/tracing.py``) wraps stay
defined where it looks for them, so ``bench/run.py --trace 1`` keeps
working."""

import importlib.util
import inspect
from pathlib import Path

import fdual
from fdual import optimize

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_exported_name_resolves():
    assert len(set(fdual.__all__)) == len(fdual.__all__)
    missing = [n for n in fdual.__all__ if not hasattr(fdual, n)]
    assert not missing


def test_traced_bench_hooks_are_own_attributes():
    # the tracer reads cls.__dict__[attr]: a hook inherited from a base
    # class would raise KeyError there
    tracing = _load_tracing()
    hooks = [(cls, attr) for cls, attr, _ in tracing.CLASS_SPANS]
    assert {(cls.__name__, attr) for cls, attr in hooks} >= {
        ("SurrogateLoss", "__call__"), ("GLink", "__call__"),
        ("Generator", "__call__"), ("PsiFunction", "__call__"),
        ("JointMeasure", "__post_init__")}
    for cls, attr in hooks:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
    originals = [cls.__dict__[attr] for cls, attr in hooks]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert [cls.__dict__[attr] for cls, attr in hooks] == originals


def test_traced_search_kernels_are_module_functions():
    # the tracer wraps public functions defined in their layer's module; the
    # two public searches must stay such functions for it to see them
    tracing = _load_tracing()
    assert optimize in tracing.LAYERS
    for name in ("bracket_min", "sublevel_end"):
        fn = optimize.__dict__.get(name)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == optimize.__name__, name
