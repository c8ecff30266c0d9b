"""The package surface: every exported name resolves, and the class hooks the
traced benchmark (``bench/tracing.py``) wraps stay defined on the classes it
names, so ``bench/run.py --trace 1`` keeps working."""

import importlib.util
from pathlib import Path

import fdual

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
