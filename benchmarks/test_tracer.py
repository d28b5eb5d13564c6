"""Tests of the benchmark's tracer: self-time arithmetic and clean unwrapping.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import FROM_UNTRACED, LAYERS, PER_LAYER_UNITS, install, layer_metrics  # noqa: E402
from tracer import Span, Tracer, percentile, self_times  # noqa: E402


def _span(name, start, end, parent):
    span = Span(name, start, parent, None)
    span.end = end
    return span


def test_self_times_on_synthetic_tree():
    spans = [
        _span("pipeline.collect", 0.0, 10.0, -1),  # 0
        _span("bnb.solve", 1.0, 4.0, 0),  # 1
        _span("simplex.lp", 2.0, 3.0, 1),  # 2: grandchild of 0, not subtracted from it
        _span("bnb.solve", 5.0, 9.0, 0),  # 3
        _span("simplex.lp", 5.5, 7.0, 3),  # 4
        _span("simplex.lp", 6.5, 8.0, 3),  # 5: overlaps 4, the union counts once
        _span("simplex.lp", 8.5, 9.5, 3),  # 6: runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.5, 1.5, 1.0])


def test_wrapped_calls_nest_and_inherit_instance():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Mod:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(inst):
            return Mod.inner(1) + Mod.inner(2)

    class Inst:
        name = "i0"

    with tracer:
        tracer.span(Mod, "inner", "simplex.lp")
        tracer.span(Mod, "outer", "bnb.solve", instance=lambda inst: inst.name)
        assert Mod.outer(Inst()) == 5
    names = [(s.name, s.parent, s.instance) for s in tracer.spans]
    assert names == [("bnb.solve", -1, "i0"), ("simplex.lp", 0, "i0"), ("simplex.lp", 0, "i0")]
    # clock reads: outer 0..5, inner 1..2 and 3..4
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_raised_exception_is_recorded_and_reraised():
    class Mod:
        @staticmethod
        def boom():
            raise KeyError("x")

    with Tracer() as tracer:
        tracer.span(Mod, "boom", "bnb.solve")
        with pytest.raises(KeyError):
            Mod.boom()
    assert tracer.spans[0].info == {"raised": "KeyError"}
    assert tracer._stack == []


def _confdive_modules():
    from confdive import bnb, diving, encoder, evaluation, gcnn, pipeline, simplex

    return dict(simplex=simplex, bnb=bnb, encoder=encoder, gcnn=gcnn, diving=diving,
                evaluation=evaluation, pipeline=pipeline)


def _namespaces(modules):
    return {name: dict(vars(module)) for name, module in modules.items()}


def test_restore_puts_every_original_back():
    modules = _confdive_modules()
    before = _namespaces(modules)
    tracer = Tracer()
    install(tracer, modules)
    changed = [(m, k) for m, ns in _namespaces(modules).items()
               for k, v in ns.items() if before[m].get(k) is not v]
    assert len(changed) >= 20
    tracer.restore()
    after = _namespaces(modules)
    for name in modules:
        assert after[name].keys() == before[name].keys()
        for key, value in before[name].items():
            assert after[name][key] is value, f"{name}.{key} not restored"


def test_restore_on_error_inside_with_block():
    modules = _confdive_modules()
    original = modules["bnb"].solve
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            install(tracer, modules)
            assert modules["bnb"].solve is not original
            raise RuntimeError
    assert modules["bnb"].solve is original


def test_traced_micro_pipeline_reports_every_metric(tmp_path):
    modules = _confdive_modules()
    pipeline = modules["pipeline"]
    config = pipeline.PipelineConfig(
        family="knapsack", n_train=3, n_valid=2, n_test=2, n_items=10, n_dims=2, seed=3,
        collect_step_limit=20, step_limit=20, pool_size=3, hidden_dim=4, epochs=2,
        grid=(0.6, 0.99), outdir=str(tmp_path / "out"))
    with Tracer() as tracer:
        install(tracer, modules)
        for stage in ("generate", "collect", "train", "gridsearch", "evaluate"):
            getattr(pipeline, f"run_{stage}")(config)
    metrics = layer_metrics(tracer, config.epochs)
    assert set(metrics) == set(PER_LAYER_UNITS) - FROM_UNTRACED
    assert metrics["simplex.lp_calls"] > 0 and metrics["bnb.nodes"] > 0
    assert metrics["diving.calls"] == 2 * 2 + 2  # grid cells plus evaluate dives
    assert metrics["pipeline.map_items"] == 3 + 2 + 2
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(
        sum(s.duration for s in tracer.spans if s.parent < 0))


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([7.0], 99) == 7.0
