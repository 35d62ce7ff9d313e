"""The benchmark's layer tracer still finds, counts and restores what it wraps.

``perfbench/layers.py`` wraps module globals of ``macc`` by name. A refactor
that drops or stops calling one of them breaks the traced benchmark, which
runs outside this suite, so the tracer is exercised here on a small sweep
and one simulation.
"""

import importlib.util
import io
from fractions import Fraction
from pathlib import Path

import macc
import macc.harness
import macc.metrics
import macc.scheme
from macc.baselines import Scheme

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_restores_it():
    layers = load_layers()
    owners = (macc.harness, macc.scheme, macc.metrics, macc.harness.SplitMix64)
    before = [dict(vars(owner)) for owner in owners]
    spec = macc.harness.SweepSpec(
        cache_counts=(2, 3, 6),
        access_degrees=(1, 2, 3),
        cache_params=(Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)),
        schemes=tuple(Scheme),
    )
    with layers.Tracer() as tracer:
        layers.install_all(tracer, macc)
        assert macc.harness.evaluate_scheme is not before[0]["evaluate_scheme"]
        rows = macc.harness.run_sweep(spec)
        # The rows are evaluated when they are written, a block at a time,
        # so the sweep does not go through evaluate_scheme: call it here.
        macc.harness.write_sweep_csv(rows, io.StringIO())
        for scheme in Scheme:
            macc.harness.evaluate_scheme(scheme, 6, 2, Fraction(3))
        # No sweep path calls the curve any more; it stays a public wrapper.
        macc.metrics.rate_memory_curve(6, 2, [Fraction(0), Fraction(1, 4)])
        macc.harness.simulate_report(4, 2, 1)
    assert len(rows) == len(Scheme) * 3 * 3 * 4
    for scheme in Scheme:
        assert tracer.calls[f"harness.evaluate.{scheme.value}"] == 1, scheme
    assert tracer.calls["harness.sweep"] == 1
    assert tracer.counts["harness.sweep.rows"] == len(rows)
    assert tracer.calls["metrics.rate_memory_curve"] > 0
    assert tracer.calls["harness.report"] == 1
    assert tracer.calls["scheme.simulate"] == 1
    for owner, saved in zip(owners, before):
        changed = {name for name, value in vars(owner).items() if saved.get(name) is not value}
        assert not changed, (owner.__name__, changed)
