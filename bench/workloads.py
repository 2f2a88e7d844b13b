"""The four benchmark workloads: inputs, operations and correctness gates.

A workload is built from a seed (that construction is part of ``setup_s``)
and exposes a list of `Op`: one call into a public ``tropmass`` function,
a gate that says whether its output is correct, and the Monte-Carlo
estimates ``(n, mean, stderr)`` it produced.  Library functions are always
reached through their module (``sampler.sample_fiber_measure``), so the
span recorders of a traced run see every call.  README.md explains why each
workload exists.
"""

from __future__ import annotations

import math
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Callable

from tropmass import basechange, cli, lattice, measure, model, pencil, sampler, skeleton

from stats import geomean, kish_ess

# Statistical gates fail beyond this many standard errors.  A benchmark run
# makes about ten such comparisons and a comparison of two commits makes
# dozens of runs, so at 3 standard errors a correct program would fail some
# run by chance about half the time; at 5 the chance is about 1e-3.
SIGMA_LIMIT = 5.0
KS_LIMIT = 0.02
# The verification suites are calibrated at frozen seeds; the acceptance
# tests and the documented smoke run use seed 0.
VERIFY_SEED = 0

VERIFY_VERDICTS = (
    "simplex-volume-vs-lattice-index",
    *(f"annulus-unit-mass-t1e-{k}" for k in range(2, 7)),
    "annulus-log-exponent",
    "annulus-decay-exponent",
    "annulus-leading-constant",
    "residual-closed-form-pi",
    "twisted-mass-pi",
    "twisted-log-exponent",
    "pushforward-total-half",
    "pushforward-uniform-ks",
    "decay-rescaled-mass-bounded",
    *(f"polar-{kind}-polydisc-{i}" for i in range(5) for kind in ("rel", "sigma")),
    *(f"polar-{kind}-fiber-{i}" for i in range(5) for kind in ("rel", "sigma")),
    "point-fiber-b3",
    "point-fiber-b3-roots",
    "base-change-splitting",
    "base-change-pushforward",
    "pencil-edge-masses-equal",
    "pencil-edge-ks-E1&E2",
    "pencil-edge-ks-E0&E2",
    "pencil-edge-ks-E0&E1",
    "pencil-residue-propagation-constant",
    "power-sequence-limits",
    "random-sequence-classification",
    "neighborhood-basis-agreement",
    "seminorm-multiplicative",
    "parameter-seminorm-is-radius",
    "non-semistable-weights-non-uniform",
    "semistable-weights-uniform",
)

Estimate = tuple[float, float, float]  # (n, mean, stderr)


@dataclass
class Op:
    """One timed call and what is known about its output."""

    name: str
    call: Callable[[], object]
    gate: Callable[[object], str | None]  # failure reason, or None when correct
    estimates: Callable[[object], list[Estimate]] = lambda result: []
    n: int | None = None  # sample count per call, for provenance
    # Figures of the output by name; those named in BENCHMARK.json become
    # per-layer metrics, the rest go to the detail line.  A figure ``X.ess``
    # also yields ``X.ess_per_s`` over the call's median time.
    layer: Callable[[object], dict[str, float]] | None = None


def _sigma_gap(value: float, target: float, stderr: float) -> float:
    if stderr > 0:
        return abs(value - target) / stderr
    return 0.0 if abs(value - target) <= 1e-9 * max(1.0, abs(target)) else math.inf


def chart_limit(metric: measure.MonomialChartMetric) -> float:
    """Limit of the normalized chart mass: residual mass times volume over gcd."""
    b_active = tuple(metric.b[i] for i in metric.active_indices())
    vol = lattice.simplex_volume(b_active)
    return measure.residual_mass_closed_form(metric) * float(vol / math.gcd(*b_active))


def pencil_gate(res: pencil.PencilSampleResult) -> str | None:
    patches = res.patches
    for i in range(len(patches)):
        for j in range(i + 1, len(patches)):
            se = math.hypot(patches[i].stderr_raw, patches[j].stderr_raw)
            gap = _sigma_gap(patches[i].mass_raw, patches[j].mass_raw, se)
            if gap > SIGMA_LIMIT:
                return f"patches {patches[i].label}, {patches[j].label} differ by {gap:.2f} SE"
    for p in patches:
        if p.ks_uniform is not None and not p.ks_uniform <= KS_LIMIT:
            return f"edge {p.label}: KS {p.ks_uniform:.4f} > {KS_LIMIT}"
    return None


def estimates_of(res) -> list[Estimate]:
    """The Monte-Carlo estimates in a sampler result."""
    if isinstance(res, sampler.FiberSampleResult):
        return [(res.n_samples, res.mass, res.stderr)]
    if isinstance(res, sampler.SimplexHistogram):
        return [(res.n_samples, res.total_mass, res.total_stderr)]
    if isinstance(res, pencil.PencilSampleResult):
        # Each patch is estimated from two routes of n/6 proposals each.
        return [(res.n_samples / 3, p.mass_raw, p.stderr_raw) for p in res.patches]
    raise TypeError(f"no estimates in {type(res).__name__}")


class Workload:
    name = ""
    # How `ess_per_s` combines the estimates: "geomean" of ESS over call
    # time per estimate, or "total" ESS over the workload's wall time.
    ess_mode = "geomean"
    # Timed rounds run until the next one would pass the time budget, but
    # never fewer than this.
    min_rounds = 1

    def ops(self, round_: int) -> list[Op]:
        """The fixed work of timed round ``round_`` (1, 2, ...).

        Sampling workloads draw fresh seeds each round, so no round repeats
        a call whose result could have been kept from an earlier one.
        """
        raise NotImplementedError

    def warm_ops(self) -> list[Op]:
        """Small calls through the same code paths, run before timing."""
        raise NotImplementedError

    def sampling_seed(self, round_: int, k: int) -> int:
        return (self.seed * 1000 + round_) * 1000 + k

    def close(self) -> None:
        pass


class VerifyAll(Workload):
    """``tropmass verify --suite all`` at full size, through `cli.run`."""

    name = "verify-all"
    ess_mode = "total"
    min_rounds = 2  # the fastest of two 10-second runs
    RECORDED = ("sample_fiber_measure", "pushforward_histogram", "sample_pencil")

    def __init__(self, seed: int, root: Path) -> None:
        # The suites run at VERIFY_SEED whatever the seed; see README.md.
        self._scratch = root / ".bench_tmp"
        self._scratch.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=self._scratch)
        out = self._tmp.name
        self.config = cli.ExperimentConfig(
            command="verify", suite="all", seed=VERIFY_SEED, threads=1, outdir=out
        )
        self.quick = cli.ExperimentConfig(
            command="verify", suite="all", seed=VERIFY_SEED, threads=1, quick=True, outdir=out
        )

    def _run_recording(self, config: cli.ExperimentConfig) -> tuple[cli.RunReport, list[Estimate]]:
        """Run with the sampling entry points in `cli` recording their estimates.

        The recorder reads no clock and keeps only ``(n, mean, stderr)``, so
        the timed run is neither traced nor holding samples longer.
        """
        estimates: list[Estimate] = []
        namespace = vars(cli)
        saved = {name: namespace[name] for name in self.RECORDED}

        def recorder(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                estimates.extend(estimates_of(out))
                return out

            return call

        for name, fn in saved.items():
            namespace[name] = recorder(fn)
        try:
            return cli.run(config), estimates
        finally:
            namespace.update(saved)

    @staticmethod
    def _gate(outcome) -> str | None:
        report, _ = outcome
        names = tuple(v.name for v in report.verdicts)
        if names != VERIFY_VERDICTS:
            return f"verdict names changed: {len(names)} verdicts"
        failed = [v.name for v in report.verdicts if not v.passed]
        return f"failed verdicts: {failed}" if failed else None

    def ops(self, round_: int) -> list[Op]:
        return [
            Op("verify-all", lambda: self._run_recording(self.config), self._gate, lambda out: out[1])
        ]

    def warm_ops(self) -> list[Op]:
        return [Op("verify-all-quick", lambda: self._run_recording(self.quick), self._gate)]

    def close(self) -> None:
        self._tmp.cleanup()
        try:
            self._scratch.rmdir()
        except OSError:  # another run still uses it
            pass


FAMILIES = (
    *((f"ones-p{p}", (1,) * (p + 1), (0,) * (p + 1), 1e-6) for p in range(1, 6)),
    ("twisted", (1, 1), (0, 1), 1e-6),
    ("decay-t1e-6", (2, 1), (1, 1), 1e-6),
    ("decay-t1e-300", (2, 1), (1, 1), 1e-300),
)


class Charts(Workload):
    """The chart sampler on 8 families, and the pushforward histogram with its KS test."""

    name = "charts"
    N = 1_000_000
    N_WARM = 10_000
    BINS = 50

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.families = []
        for label, b, a, t in FAMILIES:
            metric = measure.MonomialChartMetric(b=b, a=tuple(Fraction(x) for x in a))
            self.families.append((label, sampler.LocalChart(metric, t), chart_limit(metric)))
        self.hist_metric = measure.MonomialChartMetric(b=(1, 2), a=(Fraction(0), Fraction(0)))
        self.hist_limit = chart_limit(self.hist_metric)

    def _family_op(self, k: int, label: str, chart, limit: float, n: int, seed: int) -> Op:

        def gate(res) -> str | None:
            gap = _sigma_gap(res.mass, limit, res.stderr)
            if gap > SIGMA_LIMIT:
                return f"mass {res.mass:.6g} +- {res.stderr:.2g} is {gap:.2f} SE from {limit:.6g}"
            return None

        def layer(res) -> dict[str, float]:
            key = f"sampler.chart.{label}"
            return {
                f"{key}.accept_rate": res.accept_rate,
                f"{key}.ess": kish_ess(res.n_samples, res.mass, res.stderr),
            }

        return Op(
            f"sample_fiber_measure:{label}",
            lambda: sampler.sample_fiber_measure(chart, n, seed),
            gate,
            estimates_of,
            n,
            layer,
        )

    def _hist_op(self, n: int, seed: int) -> Op:

        def call():
            hist = sampler.pushforward_histogram(self.hist_metric, n, self.BINS, seed, t=1e-6)
            e = hist.edges[0]
            cdf = sampler.uniform_cdf(float(e[0]), float(e[-1]))
            return hist, sampler.ks_statistic(hist.values[:, 0], hist.weights, cdf)

        def gate(outcome) -> str | None:
            hist, ks = outcome
            gap = _sigma_gap(hist.total_mass, self.hist_limit, hist.total_stderr)
            if gap > SIGMA_LIMIT:
                return f"histogram total is {gap:.2f} SE from {self.hist_limit:.6g}"
            if not ks <= KS_LIMIT:
                return f"histogram KS {ks:.4f} > {KS_LIMIT}"
            return None

        return Op(
            "pushforward_histogram+ks_statistic", call, gate, lambda out: estimates_of(out[0]), n
        )

    def _ops(self, n: int, round_: int) -> list[Op]:
        ops = [
            self._family_op(k, *fam, n, self.sampling_seed(round_, k))
            for k, fam in enumerate(self.families)
        ]
        ops.append(self._hist_op(n, self.sampling_seed(round_, len(ops))))
        return ops

    def ops(self, round_: int) -> list[Op]:
        return self._ops(self.N, round_)

    def warm_ops(self) -> list[Op]:
        return self._ops(self.N_WARM, 0)


class Pencil(Workload):
    """`pencil.sample_pencil` on the degenerating and the smooth cubic pencil."""

    name = "pencil"
    # At 1e6 a round takes 17 s and a run could time each call only once.
    # At 5e5 it times each twice; at 2.5e5 peak memory varied by 10% from
    # run to run with how the two threads of the last problem overlapped.
    N = 500_000
    N_WARM = 20_000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        coordinate = pencil.HypersurfacePencil.coordinate()
        fermat = pencil.HypersurfacePencil.fermat()
        # (label, pencil, t, shards = threads)
        self.problems = (
            ("coordinate", coordinate, 1e-5, 1),
            ("fermat", fermat, 1e-2, 1),
            ("coordinate-x2", coordinate, 1e-5, 2),
        )

    def _op(self, label: str, pen, t: float, shards: int, n: int, seed: int) -> Op:
        def call():
            return pencil.sample_pencil(pen, t, n, seed, bins=25, shards=shards, threads=shards)

        def layer(res) -> dict[str, float]:
            return {f"pencil.sample_pencil.{label}.root_failures": res.n_failures}

        return Op(f"sample_pencil:{label}", call, pencil_gate, estimates_of, n, layer)

    def _ops(self, n: int, round_: int) -> list[Op]:
        return [
            self._op(*prob, n, self.sampling_seed(round_, k)) for k, prob in enumerate(self.problems)
        ]

    def ops(self, round_: int) -> list[Op]:
        return self._ops(self.N, round_)

    def warm_ops(self) -> list[Op]:
        return self._ops(self.N_WARM, 0)

    @staticmethod
    def untraced_layer(times: dict[str, float]) -> dict[str, float]:
        """Thread speed-up of the coordinate problem, from untraced call times."""
        return {
            "pencil.thread_speedup": times["sample_pencil:coordinate"]
            / times["sample_pencil:coordinate-x2"]
        }


class Exact(Workload):
    """Exact rational arithmetic: lattice oracle, base change, skeleton pipeline."""

    name = "exact"
    ess_mode = "total"
    CHUNK = 250  # oracle vectors per timed call

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.vectors = [
            b for length in (1, 2, 3, 4) for b in product(range(1, 7), repeat=length)
        ] + list(product(range(1, 6), repeat=5))
        rng.shuffle(self.vectors)
        self.pairs = [
            (b, m) for length in (1, 2, 3) for b in product(range(1, 5), repeat=length)
            for m in range(1, 7)
        ]
        rng.shuffle(self.pairs)
        self.chart_models = {}
        for b in {b for b, _ in self.pairs}:
            comps = tuple(model.Component(f"E{i}", x) for i, x in enumerate(b))
            names = [c.name for c in comps]
            strata = tuple(
                model.Stratum(combo)
                for size in range(1, len(b) + 1)
                for combo in combinations(names, size)
            )
            self.chart_models[b] = model.WeightedSncModel(comps, strata, name="bc")
        self.pencil_models = [(n, model.coordinate_pencil(n)) for n in (2, 3, 4, 5)]

    def _lattice(self, vectors) -> tuple[int, int]:
        bad = 0
        for b in vectors:
            target = Fraction(1, math.factorial(len(b) - 1))
            if lattice.simplex_volume(b) * lattice.lattice_index(b) != target:
                bad += 1
        return bad, len(vectors)

    def _base_change(self, pairs) -> tuple[int, int]:
        bad = 0
        measures = {}
        for b, m in pairs:
            fc = basechange.face_base_change(b, m)
            if fc.e * fc.f * fc.g != m or not fc.consistent:
                bad += 1
            if b not in measures:
                measures[b] = measure.assemble_limit_measure(self.chart_models[b])
            if not basechange.pushforward_identity_check(measures[b], m).passed:
                bad += 1
        return bad, 2 * len(pairs)

    def _skeleton(self, models) -> tuple[int, int]:
        bad = checked = 0
        for n, m in models:
            dual = model.build_dual_complex(m)
            wd = model.weight_data(m, dual)
            lm = measure.assemble_limit_measure(m)
            sk = skeleton.barycentric_subdivide(dual)
            report = skeleton.pseudomanifold_check(sk)
            magnitudes = skeleton.residue_chain_propagate(sk, sk.cells[0].cell_id, 1.0)
            bad += wd.d != n - 1
            bad += not lm.total_mass > 0
            bad += not report.all_pass
            bad += sum(1 for v in magnitudes.values() if v != 1.0)
            checked += 3 + len(magnitudes)
        return bad, checked

    @staticmethod
    def _gate(outcome) -> str | None:
        bad, checked = outcome
        return f"{bad} of {checked} exact checks failed" if bad else None

    @staticmethod
    def _estimates(outcome) -> list[Estimate]:
        # Each exact check is a zero-variance estimate from one evaluation,
        # so it contributes Kish ESS 1.
        return [(outcome[1], 1.0, 0.0)]

    def _ops(self, vectors, pairs, models) -> list[Op]:
        # The oracle is timed in chunks of about 0.2 s: the fastest of a
        # short call's repeats is more likely to miss the machine's slow spells.
        ops = [
            Op(
                f"lattice-oracle-{i // self.CHUNK:02d}",
                lambda chunk=vectors[i : i + self.CHUNK]: self._lattice(chunk),
                self._gate,
                self._estimates,
                len(vectors[i : i + self.CHUNK]),
            )
            for i in range(0, len(vectors), self.CHUNK)
        ]
        ops.append(Op("base-change", lambda: self._base_change(pairs), self._gate, self._estimates, len(pairs)))
        ops.append(Op("skeleton", lambda: self._skeleton(models), self._gate, self._estimates, len(models)))
        return ops

    def ops(self, round_: int) -> list[Op]:
        return self._ops(self.vectors, self.pairs, self.pencil_models)

    def warm_ops(self) -> list[Op]:
        return self._ops(self.vectors[:50], self.pairs[:20], self.pencil_models[:1])


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "verify-all":
        return VerifyAll(seed, root)
    if name == "charts":
        return Charts(seed)
    if name == "pencil":
        return Pencil(seed)
    if name == "exact":
        return Exact(seed)
    raise ValueError(f"unknown workload {name!r}")


def ess_per_s(workload: Workload, estimates: dict[str, list[Estimate]], times: dict[str, float]) -> float:
    """End-to-end effective samples per second (see README.md)."""
    if workload.ess_mode == "geomean":
        return geomean(
            kish_ess(*est) / times[name] for name, ests in estimates.items() for est in ests
        )
    total = math.fsum(kish_ess(*est) for ests in estimates.values() for est in ests)
    return total / math.fsum(times.values())
