"""Tests of the benchmark's own arithmetic: Kish ESS and span self time.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402
from stats import geomean, kish_ess, median  # noqa: E402


def direct_ess(weights):
    return sum(weights) ** 2 / sum(w * w for w in weights)


def moments(weights):
    """``(n, mean, stderr)`` as the samplers report them (population variance)."""
    n = len(weights)
    mean = sum(weights) / n
    var = sum(w * w for w in weights) / n - mean * mean
    return n, mean, math.sqrt(max(var, 0.0) / n)


@pytest.mark.parametrize(
    "weights",
    [
        [1.0, 2.0, 3.0, 4.0],
        [0.0, 0.0, 5.0, 0.0, 1.0],  # rejected samples carry weight 0
        [1e-150, 2e-150, 7e-150],  # tiny weights, as at t = 1e-300
        [10.0] + [1e-3] * 99,  # one heavy weight dominates
    ],
)
def test_kish_ess_matches_direct_formula(weights):
    assert kish_ess(*moments(weights)) == pytest.approx(direct_ess(weights), rel=1e-9)


def test_kish_ess_zero_variance_is_n():
    weights = [2.5] * 17
    n, mean, stderr = moments(weights)
    assert stderr == 0.0
    assert kish_ess(n, mean, stderr) == 17
    assert direct_ess(weights) == pytest.approx(17)


def test_kish_ess_all_zero_weights():
    assert kish_ess(10, 0.0, 0.0) == 0.0


def test_kish_ess_fractional_n_for_pencil_patches():
    # A pencil patch is estimated from n/3 proposals; ESS scales with it.
    assert kish_ess(1e6 / 3, 1.0, 0.0) == pytest.approx(1e6 / 3)


def test_geomean_and_median():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([]) == 0.0
    assert geomean([1.0, 0.0]) == 0.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


class FakeClock:
    """A clock the test functions advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def make_package(clock: FakeClock):
    """Two modules shaped like ``sampler``: one public function calls another."""
    sampler = types.ModuleType("pkg.sampler")

    def sample_fiber_measure(n):
        clock.tick(2.0)
        return n

    def pushforward_histogram(n):
        clock.tick(1.0)
        sampler.sample_fiber_measure(n)  # resolved through the module, like a global
        clock.tick(0.5)
        sampler.sample_fiber_measure(n)
        return n

    def _private(n):
        clock.tick(4.0)
        return n

    for fn in (sample_fiber_measure, pushforward_histogram, _private):
        fn.__module__ = "pkg.sampler"
        setattr(sampler, fn.__name__, fn)

    cli = types.ModuleType("pkg.cli")
    cli.pushforward_histogram = pushforward_histogram  # bound by name in a caller
    cli.SUITES = {"pushforward": pushforward_histogram}

    def run():
        clock.tick(0.25)
        cli.SUITES["pushforward"](3)
        sampler._private(1)
        return "ok"

    run.__module__ = "pkg.cli"
    cli.run = run
    return sampler, cli


def test_self_time_of_nested_spans():
    clock = FakeClock()
    sampler, cli = make_package(clock)
    tracer = Tracer(clock=clock)
    tracer.install([sampler, cli], "pkg")
    try:
        assert cli.run() == "ok"
    finally:
        tracer.uninstall()
    stats = tracer.stats

    inner = stats["sampler.sample_fiber_measure"]
    assert inner.calls == 2
    assert inner.busy_s == pytest.approx(4.0)
    assert inner.self_s == pytest.approx(4.0)

    outer = stats["sampler.pushforward_histogram"]
    assert outer.calls == 1
    assert outer.busy_s == pytest.approx(5.5)
    assert outer.self_s == pytest.approx(1.5)  # 5.5 minus the two inner calls

    top = stats["cli.run"]
    # The private function is not wrapped, so its time stays in run's self time.
    assert top.busy_s == pytest.approx(9.75)
    assert top.self_s == pytest.approx(9.75 - 5.5)
    assert "sampler._private" not in stats


def test_install_wraps_every_binding_and_uninstall_restores():
    clock = FakeClock()
    sampler, cli = make_package(clock)
    originals = (sampler.pushforward_histogram, cli.pushforward_histogram, cli.SUITES["pushforward"])
    tracer = Tracer(clock=clock)
    tracer.install([sampler, cli], "pkg")
    wrapped = (sampler.pushforward_histogram, cli.pushforward_histogram, cli.SUITES["pushforward"])
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert wrapped[0] is wrapped[1] is wrapped[2]  # one wrapper per function
    assert sampler._private.__name__ == "_private" and not hasattr(sampler._private, "__wrapped__")
    tracer.uninstall()
    assert (sampler.pushforward_histogram, cli.pushforward_histogram, cli.SUITES["pushforward"]) == originals


def test_recursive_call_counts_busy_time_once():
    clock = FakeClock()
    mod = types.ModuleType("pkg.lattice")

    def walk(depth):
        clock.tick(1.0)
        if depth:
            mod.walk(depth - 1)
        return depth

    walk.__module__ = "pkg.lattice"
    mod.walk = walk
    tracer = Tracer(clock=clock)
    tracer.install([mod], "pkg")
    try:
        mod.walk(2)
    finally:
        tracer.uninstall()
    st = tracer.stats["lattice.walk"]
    assert st.calls == 3
    assert st.busy_s == pytest.approx(3.0)
    assert st.self_s == pytest.approx(3.0)


def test_annotator_counts_and_tags():
    clock = FakeClock()
    mod = types.ModuleType("pkg.pencil")

    def sample_pencil(label, n):
        clock.tick(n / 1000)
        return n

    sample_pencil.__module__ = "pkg.pencil"
    mod.sample_pencil = sample_pencil

    def annotate(args, kwargs, result):
        return {"tag": args[0], "samples": result}

    tracer = Tracer({"pencil.sample_pencil": annotate}, clock=clock)
    tracer.install([mod], "pkg")
    try:
        mod.sample_pencil("coordinate", 2000)
        mod.sample_pencil("fermat", 1000)
        mod.sample_pencil("coordinate", 2000)
    finally:
        tracer.uninstall()
    total = tracer.stats["pencil.sample_pencil"]
    assert (total.calls, total.busy_s, total.counts["samples"]) == (3, pytest.approx(5.0), 5000)
    coord = tracer.stats["pencil.sample_pencil.coordinate"]
    assert (coord.calls, coord.busy_s, coord.counts["samples"]) == (2, pytest.approx(4.0), 4000)
    assert tracer.stats["pencil.sample_pencil.fermat"].busy_s == pytest.approx(1.0)


def test_exception_is_recorded_and_reraised():
    clock = FakeClock()
    mod = types.ModuleType("pkg.model")

    def build_dual_complex():
        clock.tick(1.0)
        raise ValueError("bad model")

    build_dual_complex.__module__ = "pkg.model"
    mod.build_dual_complex = build_dual_complex
    tracer = Tracer({"model.build_dual_complex": lambda *a: {"never": 1}}, clock=clock)
    tracer.install([mod], "pkg")
    try:
        with pytest.raises(ValueError):
            mod.build_dual_complex()
    finally:
        tracer.uninstall()
    st = tracer.stats["model.build_dual_complex"]
    assert st.calls == 1 and st.busy_s == pytest.approx(1.0) and st.counts == {}


def test_real_pushforward_histogram_nests_sample_fiber_measure():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from fractions import Fraction

    import tropmass
    from tropmass import cli, measure, sampler

    tracer = Tracer()
    tracer.install([cli, measure, sampler], tropmass.__name__)
    try:
        metric = measure.MonomialChartMetric(b=(1, 2), a=(Fraction(0), Fraction(0)))
        cli.pushforward_histogram(metric, 2000, 10, 1, t=1e-6)
    finally:
        tracer.uninstall()
    outer = tracer.stats["sampler.pushforward_histogram"]
    inner = tracer.stats["sampler.sample_fiber_measure"]
    assert outer.calls == 1 and inner.calls == 1
    assert 0.0 < inner.busy_s < outer.busy_s
    # Every wrapped call inside the histogram is a direct child of it.
    children = sum(
        st.busy_s for name, st in tracer.stats.items() if name != "sampler.pushforward_histogram"
    )
    assert outer.self_s == pytest.approx(outer.busy_s - children, abs=1e-9)
    assert sampler.pushforward_histogram is cli.pushforward_histogram  # restored, same object
