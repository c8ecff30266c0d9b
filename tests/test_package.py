"""The package surface: every exported name resolves, the class hooks and
search functions the traced benchmark (``bench/tracing.py``) wraps stay
defined where it looks for them, so ``bench/run.py --trace 1`` keeps
working, and the reports the benchmark's output checks (``bench/checks.py``)
read keep the layout those checks expect."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import fdual
from fdual import optimize
from fdual.equivalence import dominance_check
from fdual.measures import Priors, ThresholdQuantizer, UniformPairSource

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
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
    tracing = _load_bench("tracing")
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
    tracing = _load_bench("tracing")
    assert optimize in tracing.LAYERS
    for name in ("bracket_min", "sublevel_end"):
        fn = optimize.__dict__.get(name)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == optimize.__name__, name


def test_dominance_report_passes_the_bench_check():
    # the dominance op's check reads the report's grids and values on
    # criterion 09's draws, and the self-test bumps index 4 of each curve
    checks = _load_bench("checks")
    rng = np.random.default_rng(909)
    for _ in range(50):
        a = float(rng.uniform(0.3, 2.0))
        b = a + float(rng.uniform(0.2, 1.5))
        c = b + float(rng.uniform(0.2, 3.0))
        pr = Priors.from_q(float(rng.uniform(0.15, 0.85)))
        t1, t2 = (float(t) for t in rng.uniform(a, b, 2))
        rep = dominance_check(ThresholdQuantizer(t1), ThresholdQuantizer(t2),
                              UniformPairSource(a, b, c, pr))
        assert checks.check_dominance((a, b, c, pr.p, pr.q), t1, t2,
                                      rep) == []
        assert t1 != t2
        assert min(len(rep.q_grid), len(rep.c_grid)) >= 5
