"""Command-line harness: reproducible experiments and verification suites.

The ``tropmass`` command exposes the library through subcommands that share a
small configuration vocabulary (model preset or spec file, ``t``-schedule,
sample count, seed, bins, tolerance, output directory).  Every run produces a
`RunReport`: the echoed configuration, a content hash of the inputs, a list
of check verdicts that each carry a quantitative discrepancy, and timings
(the whole command, and for ``verify`` each suite).  Tabular artifacts are
written as CSV (deterministic: sorted fields, shortest round-trip float
formatting, fixed line terminator), nested reports as JSON.  Re-running a
subcommand with an identical configuration and seed reproduces
byte-identical CSV files.

Exit status is nonzero exactly when some check fails.  Statistical checks
fail only beyond three standard errors (unless the check carries its own
limit); exact checks fail on any discrepancy.

The ``verify`` subcommand runs named suites; each suite reproduces one
acceptance scenario end to end (``tropmass verify --suite list`` prints the
names).  The output directory defaults to the ``TROPMASS_OUTDIR`` environment
variable, then to ``./tropmass-out``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .basechange import face_base_change, model_base_change, pushforward_identity_check
from .hybrid import (
    LaurentSeriesPoly,
    basis_neighborhood_converges,
    hybrid_converges,
    hybrid_seminorm,
)
from .lattice import lattice_index, simplex_volume
from .measure import (
    TWO_PI,
    MonomialChartMetric,
    assemble_limit_measure,
    chart_limit_mass,
    residual_mass_closed_form,
)
from .model import (
    PRESETS,
    ModelSpecError,
    WeightedSncModel,
    build_dual_complex,
    coordinate_pencil,
    load_preset,
    simplex_model,
    weight_data,
)
from .pencil import HypersurfacePencil, PatchEstimate, elliptic_lattice_covolume, sample_pencil
from .sampler import (
    FiberSampleResult,
    LocalChart,
    MassFit,
    SimplexHistogram,
    TrigPoly,
    check_fit_schedule,
    enumerate_point_fiber,
    fit_mass_asymptotics,
    ks_statistic,
    polar_fiber_check,
    polar_full_check,
    pushforward_histogram,
    sample_fiber_measure,
    uniform_cdf,
)
from .skeleton import (
    TriangulatedSkeleton,
    barycentric_subdivide,
    parse_skeleton_spec,
    pseudomanifold_check,
    residue_chain_propagate,
)

OUTDIR_ENV = "TROPMASS_OUTDIR"
DEFAULT_OUTDIR = "tropmass-out"

SAMPLING_COMMANDS = frozenset(
    {"sample", "pushforward", "fit-mass", "polar-check", "hybrid-check", "verify"}
)
LADDER = tuple(10.0**-k for k in range(2, 7))  # the suites' t schedule, 1e-2..1e-6


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters of one subcommand invocation."""

    command: str
    model: str | None = None
    b: tuple[int, ...] | None = None
    a: tuple[Fraction, ...] | None = None
    n: int = 2
    epsilon: float = 0.1
    t_schedule: tuple[float, ...] = ()
    n_samples: int | None = None
    n_polys: int | None = None
    seed: int | None = None
    bins: int | None = None
    tolerance: float | None = None
    threads: int = 1
    m: int | None = None
    residues: tuple[tuple[str, float], ...] = ()
    anchor: str | None = None
    rho: float | None = None
    subdivide: bool = False
    suite: str | None = None
    quick: bool = False
    outdir: str = DEFAULT_OUTDIR

    def __post_init__(self) -> None:
        if self.command in SAMPLING_COMMANDS and self.seed is None:
            raise ConfigError(f"{self.command}: --seed is mandatory for sampling subcommands")
        if self.tolerance is not None and not self.tolerance > 0:
            raise ConfigError("--tolerance must be positive")
        if self.n_samples is not None and self.n_samples < 1:
            raise ConfigError("--n-samples must be positive")
        if self.n_polys is not None and self.n_polys < 1:
            raise ConfigError("--n-polys and --n-sequences must be positive")
        if self.bins is not None and self.bins < 1:
            raise ConfigError("--bins must be positive")
        if self.threads < 1:
            raise ConfigError("--threads must be positive")
        for t in self.t_schedule:
            if not 0.0 < t < 1.0:
                raise ConfigError(f"t values must lie in (0, 1), got {t!r}")
        for _, value in self.residues:
            if not math.isfinite(value) or value < 0:
                raise ConfigError("residue values must be finite and >= 0")

    def echo(self) -> dict[str, object]:
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}


def _plain(v: object) -> object:
    """JSON-ready form of a config value: tuples as lists, fractions as strings."""
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return str(v) if isinstance(v, Fraction) else v


@dataclass(frozen=True)
class CheckVerdict:
    """One named check with its quantitative discrepancy.

    ``kind`` is ``exact`` (fails on any discrepancy), ``statistical``
    (discrepancy in standard errors, fails beyond ``limit``), or ``bound``
    (discrepancy is the measured value, fails above ``limit``).
    """

    name: str
    kind: str
    passed: bool
    discrepancy: float
    limit: float
    detail: str


def exact_check(name: str, discrepancy: float, detail: str) -> CheckVerdict:
    d = float(discrepancy)
    return CheckVerdict(name, "exact", d == 0.0, d, 0.0, detail)


def stat_check(name: str, sigmas: float, detail: str, limit: float = 3.0) -> CheckVerdict:
    s = float(sigmas)
    return CheckVerdict(name, "statistical", math.isfinite(s) and s <= limit, s, limit, detail)


def bound_check(name: str, value: float, limit: float, detail: str) -> CheckVerdict:
    v = float(value)
    return CheckVerdict(name, "bound", math.isfinite(v) and v <= limit, v, float(limit), detail)


def sigmas(delta: float, stderr: float) -> float:
    """Discrepancy in standard errors; a zero-variance estimate must match exactly."""
    if stderr > 0:
        return abs(delta) / stderr
    return 0.0 if abs(delta) <= 1e-9 else math.inf


@dataclass(frozen=True)
class RunReport:
    """Result of `run`: config echo, input hash, verdicts, timings, artifacts."""

    config: ExperimentConfig
    content_hash: str
    verdicts: tuple[CheckVerdict, ...]
    timings: tuple[tuple[str, float], ...]
    artifacts: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def path(self) -> Path:
        return Path(self.config.outdir) / f"{self.config.command}-{_slug(self.config)}-report.json"

    def to_json(self) -> str:
        payload = {
            "config": self.config.echo(),
            "content_hash": self.content_hash,
            "passed": self.passed,
            "verdicts": [dataclasses.asdict(v) for v in self.verdicts],
            "timings": {name: seconds for name, seconds in self.timings},
            "artifacts": list(self.artifacts),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# parsing helpers


def parse_t_schedule(text: str) -> tuple[float, ...]:
    """Parse ``1e-2..1e-6`` (decade ladder), comma lists, or single values."""
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            start, stop = float(lo_s), float(hi_s)
            if not 0 < stop <= start:
                raise ConfigError(f"range {token!r} must run from larger to smaller positive t")
            t = start
            while t > stop * (1.0 + 1e-9):
                out.append(t)
                t /= 10.0
            out.append(stop)
        elif token:
            out.append(float(token))
    if not out:
        raise ConfigError(f"empty t schedule {text!r}")
    return tuple(out)


def _parse_list(text: str, convert: Callable[[str], object], what: str) -> tuple:
    try:
        return tuple(convert(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated {what}, got {text!r}") from None


def _parse_residues(items: Sequence[str]) -> tuple[tuple[str, float], ...]:
    out = []
    for item in items:
        if "=" not in item:
            raise ConfigError(f"residue {item!r} must look like FACE=VALUE")
        face, _, value = item.partition("=")
        out.append((face.strip(), float(value)))
    return tuple(out)


Loaded = tuple[WeightedSncModel, str | None, float | None, bytes]
# A runner's verdicts and artifact paths, optionally followed by the
# ``(name, seconds)`` timings of its stages.
Outcome = tuple[list[CheckVerdict], list[Path]] | tuple[
    list[CheckVerdict], list[Path], list[tuple[str, float]]
]


def _load_model(cfg: ExperimentConfig) -> Loaded:
    """Resolve the model argument to a model, optional skeleton anchor and rho, input bytes.

    The input bytes are those of a spec file, empty for a preset.
    """
    path = Path(cfg.model)
    if path.suffix or path.exists():
        try:
            raw = path.read_bytes()
        except OSError as e:
            raise ConfigError(f"cannot read model spec {cfg.model!r}: {e}") from None
        text = raw.decode("utf-8")
        model, anchor, rho = parse_skeleton_spec(text, name=path.stem)
        return model, anchor, rho, raw
    return load_preset(cfg.model, cfg.n), None, None, b""


def _need_model(cfg: ExperimentConfig, loaded: Loaded | None) -> Loaded:
    if loaded is None:
        raise ConfigError(f"{cfg.command}: needs --preset NAME or --model FILE")
    return loaded


def _chart_metric(cfg: ExperimentConfig) -> MonomialChartMetric:
    """Monomial chart from explicit ``--b/--a`` or from a one-face preset."""
    if cfg.b is not None:
        a = cfg.a if cfg.a is not None else tuple(Fraction(0) for _ in cfg.b)
        if len(a) != len(cfg.b):
            raise ConfigError(f"--a needs {len(cfg.b)} entries, got {len(a)}")
        return MonomialChartMetric(b=cfg.b, a=a)
    if cfg.model == "annulus":
        return MonomialChartMetric(b=(1, 1), a=(Fraction(0), Fraction(0)))
    if cfg.model == "fermat_smooth":
        return MonomialChartMetric(b=(1,), a=(Fraction(0),))
    raise ConfigError(f"{cfg.command}: needs --b (and optionally --a), or --preset annulus")


def _content_hash(cfg: ExperimentConfig, input_bytes: bytes = b"") -> str:
    """Content hash of the run inputs: canonical config plus input file bytes.

    The output directory is excluded so the hash identifies the experiment,
    not where its artifacts land.
    """
    echoed = cfg.echo()
    echoed.pop("outdir", None)
    canonical = json.dumps(echoed, sort_keys=True).encode()
    blob = b"config %d\0" % len(canonical) + canonical + b"input %d\0" % len(input_bytes) + input_bytes
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# deterministic artifact writers


def write_csv(path: Path, rows: Sequence[Mapping[str, object]]) -> None:
    """Write rows with deterministic formatting (repr floats, fixed EOL)."""
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    path.write_text(buf.getvalue(), encoding="utf-8")


def _fmt(v: object) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def write_json(path: Path, obj: object) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _slug(cfg: ExperimentConfig) -> str:
    if cfg.suite:
        return cfg.suite
    if cfg.model:
        base = Path(cfg.model).stem if Path(cfg.model).suffix else cfg.model
    elif cfg.b is not None:
        base = "chart-" + "-".join(str(x) for x in cfg.b)
    else:
        base = "run"
    return base.replace("/", "-")


# ---------------------------------------------------------------------------
# subcommand runners (verdicts, artifact rows)


def _run_dual_complex(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    model = _need_model(cfg, loaded)[0]
    dual = build_dual_complex(model)
    rows = [
        {
            "face": f.id_string(),
            "components": "&".join(f.components),
            "label": f.label,
            "dim": f.dim,
            "multiplicities": " ".join(str(x) for x in f.simplex.b),
            "b_sigma": f.multiplicity,
            "volume": simplex_volume(f.simplex.b),
        }
        for f in dual.faces
    ]
    csv_path = out / f"dual-complex-{_slug(cfg)}.csv"
    write_csv(csv_path, rows)
    summary = {
        "model": model.name,
        "dim": dual.dim,
        "euler_characteristic": dual.euler_characteristic(),
        "faces_by_dim": {str(k): len(dual.faces_of_dim(k)) for k in range(dual.dim + 1)},
    }
    json_path = out / f"dual-complex-{_slug(cfg)}.json"
    write_json(json_path, summary)
    verdicts = [exact_check("model-valid", 0.0, f"{len(dual.faces)} faces, dim {dual.dim}")]
    return verdicts, [csv_path, json_path]


def _run_weights(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    model = _need_model(cfg, loaded)[0]
    wd = weight_data(model)
    rows = [
        {"component": c.name, "b": c.b, "a": c.a, "kappa": c.kappa}
        for c in model.components
    ]
    csv_path = out / f"weights-{_slug(cfg)}.csv"
    write_csv(csv_path, rows)
    summary = {
        "model": model.name,
        "kappa_min": str(wd.kappa_min),
        "d": wd.d,
        "active_faces": [f.id_string() for f in wd.active_faces],
        "active_top_faces": [f.id_string() for f in wd.active_top_faces()],
    }
    json_path = out / f"weights-{_slug(cfg)}.json"
    write_json(json_path, summary)
    verdicts = [
        exact_check(
            "active-subcomplex-nonempty",
            0.0 if wd.active_faces else 1.0,
            f"kappa_min = {wd.kappa_min}, d = {wd.d}, {len(wd.active_faces)} active faces",
        )
    ]
    return verdicts, [csv_path, json_path]


def _run_limit_measure(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    model = _need_model(cfg, loaded)[0]
    masses = {face: value for face, value in cfg.residues} or None
    measure = assemble_limit_measure(model, masses)
    csv_path = out / f"limit-measure-{_slug(cfg)}.csv"
    write_csv(csv_path, measure.to_rows())
    json_path = out / f"limit-measure-{_slug(cfg)}.json"
    json_path.write_text(measure.to_json(), encoding="utf-8")
    total = measure.total_mass
    verdicts = [
        bound_check(
            "positive-total-mass",
            0.0 if total > 0 else 1.0,
            0.0,
            f"total mass {total} on {len(measure.entries)} faces of dim {measure.d}",
        )
    ]
    return verdicts, [csv_path, json_path]


def _run_base_change(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    if cfg.m is None or cfg.m < 1:
        raise ConfigError("base-change: needs --m >= 1")
    model = _need_model(cfg, loaded)[0]
    report = model_base_change(model, cfg.m)
    csv_path = out / f"base-change-{_slug(cfg)}-m{cfg.m}.csv"
    write_csv(csv_path, report.rows())
    bad_identity = sum(1 for _, r in report.entries if r.e * r.f * r.g != cfg.m)
    bad_lattice = sum(1 for _, r in report.entries if not r.consistent)
    measure = assemble_limit_measure(model)
    push = pushforward_identity_check(measure, cfg.m)
    verdicts = [
        exact_check(
            "splitting-identity",
            bad_identity,
            f"e*f*g = m on {len(report.entries)} faces (m = {cfg.m})",
        ),
        exact_check(
            "lattice-index-consistency",
            bad_lattice,
            "volume and residual scales match the lattice-index predictions",
        ),
        exact_check(
            "pushforward-identity",
            0.0 if push.passed else 1.0,
            f"pushforward of the base-changed measure equals m^d * measure (d = {push.d})",
        ),
    ]
    return verdicts, [csv_path]


def _sweep(
    metric: MonomialChartMetric, ts: Iterable[float], n: int, seed: int, threads: int
) -> list[FiberSampleResult]:
    """Sample the chart's fiber mass at each ``t``; ``threads`` only sets the speed."""
    return [sample_fiber_measure(LocalChart(metric, t), n, seed, threads=threads) for t in ts]


def _edge_verdicts(
    patches: Sequence[PatchEstimate], equal_name: str, ks_prefix: str, ks_limit: float
) -> list[CheckVerdict]:
    """Equal masses on the tropical edges (worst pairwise gap) and a uniform density on each."""
    worst = max(
        (
            sigmas(p.mass_raw - q.mass_raw, math.hypot(p.stderr_raw, q.stderr_raw))
            for p, q in combinations(patches, 2)
        ),
        default=0.0,
    )
    verdicts = [
        stat_check(
            equal_name,
            worst,
            f"worst pairwise gap {worst:.2f} standard errors across {len(patches)} edges",
        )
    ]
    for p in patches:
        verdicts.append(
            bound_check(
                f"{ks_prefix}-{p.label}",
                p.ks_uniform if p.ks_uniform is not None else math.inf,
                ks_limit,
                f"KS distance of edge {p.label} to the uniform edge density",
            )
        )
    return verdicts


def _chart_mass_verdicts(
    metric: MonomialChartMetric, results: Sequence[FiberSampleResult], names: Sequence[str]
) -> list[CheckVerdict]:
    """Each rescaled chart mass against the chart's limit mass."""
    predicted = chart_limit_mass(metric)
    return [
        stat_check(
            name,
            sigmas(res.mass - predicted, res.stderr),
            f"normalized mass {res.mass:.6g} +- {res.stderr:.2g} vs limit mass {predicted:.6g}",
        )
        for name, res in zip(names, results, strict=True)
    ]


def _fit_verdicts(
    metric: MonomialChartMetric,
    results: Sequence[FiberSampleResult],
    prefix: str,
    c_rel_limit: float = 0.02,
) -> tuple[list[CheckVerdict], MassFit, dict[str, float]]:
    """Fit ``c |t|^(2 kappa_min) (log 1/|t|)^d`` to the raw masses and check each parameter.

    Returns the verdicts, the fit and the predicted parameters.
    """
    fit = fit_mass_asymptotics([(res.t, res.mass_raw) for res in results])
    wd = weight_data(simplex_model(metric.b, metric.a, name="chart"))
    kappa_pred = float(wd.kappa_min)
    d_pred = wd.d
    c_pred = TWO_PI**d_pred * chart_limit_mass(metric)
    verdicts = [
        exact_check(
            f"{prefix}-log-exponent",
            abs(fit.d_hat - d_pred),
            f"d_hat = {fit.d_hat} (raw {fit.d_raw:.4f}) vs predicted d = {d_pred}",
        ),
        bound_check(
            f"{prefix}-decay-exponent",
            abs(fit.kappa_min_hat - kappa_pred),
            0.01,
            f"kappa_hat = {fit.kappa_min_hat:.5f} vs predicted {kappa_pred:g}",
        ),
        bound_check(
            f"{prefix}-leading-constant",
            abs(fit.c_hat - c_pred) / c_pred if c_pred else math.inf,
            c_rel_limit,
            f"c_hat = {fit.c_hat:.6g} vs predicted {c_pred:.6g}",
        ),
    ]
    return verdicts, fit, {"kappa_min": kappa_pred, "d": d_pred, "c": c_pred}


def _pushforward_verdicts(
    metric: MonomialChartMetric,
    hist: SimplexHistogram,
    total_name: str,
    ks_name: str,
    ks_limit: float,
) -> list[CheckVerdict]:
    """Total pushforward mass against the limit mass; on an edge, KS to the uniform density."""
    predicted = chart_limit_mass(metric)
    verdicts = [
        stat_check(
            total_name,
            sigmas(hist.total_mass - predicted, hist.total_stderr),
            f"total {hist.total_mass:.6g} +- {hist.total_stderr:.2g} vs predicted {predicted:.6g}",
        )
    ]
    if len(hist.coord_indices) == 1:
        lo, hi = float(hist.edges[0][0]), float(hist.edges[0][-1])
        verdicts.append(
            bound_check(
                ks_name,
                ks_statistic(hist.values[:, 0], hist.weights, uniform_cdf(lo, hi)),
                ks_limit,
                f"KS distance to the uniform density on [{lo:g}, {hi:g}]",
            )
        )
    return verdicts


def _residue_verdict(
    sk: TriangulatedSkeleton, anchor: str, rho: float | None, name: str
) -> tuple[CheckVerdict, dict[str, float]]:
    """Propagate the anchor's residue through the skeleton; the magnitudes must agree."""
    magnitudes = residue_chain_propagate(sk, anchor, rho)
    lo, hi = min(magnitudes.values()), max(magnitudes.values())
    if lo == hi:
        detail = f"propagated magnitude {lo:g} on all {len(magnitudes)} cells"
    else:
        detail = f"propagated magnitudes range over [{lo:g}, {hi:g}] on {len(magnitudes)} cells"
    return exact_check(name, hi - lo, detail), magnitudes


def _sample_chart(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    metric = _chart_metric(cfg)
    ts = cfg.t_schedule or (1e-4,)
    results = _sweep(metric, ts, cfg.n_samples or 100_000, cfg.seed, cfg.threads)
    rows = [
        {
            "t": t,
            "n_samples": res.n_samples,
            "accept_rate": res.accept_rate,
            "mass": res.mass,
            "stderr": res.stderr,
            "mass_raw": res.mass_raw,
            "stderr_raw": res.stderr_raw,
        }
        for t, res in zip(ts, results)
    ]
    csv_path = out / f"sample-{_slug(cfg)}.csv"
    write_csv(csv_path, rows)
    return _chart_mass_verdicts(metric, results, [f"normalized-mass-t{t:g}" for t in ts]), [csv_path]


def _sample_pencil_cmd(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    pen = HypersurfacePencil(cfg.model, cfg.n, cfg.epsilon)
    if pen.n != 2:
        raise ConfigError(f"sample on a pencil needs --n 2 (plane curves), got --n {pen.n}")
    if len(cfg.t_schedule) != 1:
        raise ConfigError("sample on a pencil needs a single --t value")
    t = cfg.t_schedule[0]
    n = cfg.n_samples or 100_000
    ks_limit = cfg.tolerance if cfg.tolerance is not None else 0.02
    res = sample_pencil(pen, t, n, cfg.seed, bins=cfg.bins or 20, threads=cfg.threads)
    rows = []
    for p in res.patches:
        rows.append(
            {
                "patch": p.label,
                "n_points": p.n_points,
                "mass": p.mass,
                "stderr": p.stderr,
                "mass_raw": p.mass_raw,
                "stderr_raw": p.stderr_raw,
                "ks_uniform": p.ks_uniform if p.ks_uniform is not None else "",
            }
        )
    csv_path = out / f"sample-{_slug(cfg)}-t{t:g}.csv"
    write_csv(csv_path, rows)
    hist_rows = []
    for p in res.patches:
        for k in range(len(p.hist_masses)):
            hist_rows.append(
                {
                    "patch": p.label,
                    "bin_lo": p.hist_edges[k],
                    "bin_hi": p.hist_edges[k + 1],
                    "mass": p.hist_masses[k],
                }
            )
    artifacts = [csv_path]
    if hist_rows:
        hist_path = out / f"sample-{_slug(cfg)}-t{t:g}-hist.csv"
        write_csv(hist_path, hist_rows)
        artifacts.append(hist_path)

    verdicts = [
        exact_check("no-root-failures", res.n_failures, f"{res.n_failures} failed fiber solves")
    ]
    if pen.has_tropical_edges:
        patches = res.patches
        verdicts += _edge_verdicts(
            patches, "edge-masses-pairwise-equal", "edge-uniformity-ks", ks_limit
        )
        finite_t = math.log(1.0 / (t * pen.epsilon)) / math.log(1.0 / t)
        for p in patches:
            sig = sigmas(p.mass - finite_t, p.stderr)
            verdicts.append(
                stat_check(
                    f"edge-mass-vs-local-annulus-{p.label}",
                    sig,
                    f"normalized mass {p.mass:.5f} vs finite-t annulus length {finite_t:.5f}",
                    limit=4.0,
                )
            )
    else:
        covol = elliptic_lattice_covolume()
        sig = sigmas(res.total_raw - covol, res.total_raw_stderr)
        verdicts.append(
            stat_check(
                "smooth-fiber-covolume",
                sig,
                f"raw mass {res.total_raw:.5f} vs period-lattice covolume {covol:.5f}",
                limit=4.0,
            )
        )
    return verdicts, artifacts


def _run_sample(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    if cfg.model in HypersurfacePencil.PRESETS:
        return _sample_pencil_cmd(cfg, out, loaded)
    return _sample_chart(cfg, out, loaded)


def _run_pushforward(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    metric = _chart_metric(cfg)
    if len(cfg.t_schedule) != 1:
        raise ConfigError("pushforward needs a single --t value")
    t = cfg.t_schedule[0]
    n = cfg.n_samples or 100_000
    bins = cfg.bins or 50
    ks_limit = cfg.tolerance if cfg.tolerance is not None else 0.02
    hist = pushforward_histogram(metric, n, bins, cfg.seed, t=t, threads=cfg.threads)
    verdicts = _pushforward_verdicts(
        metric, hist, "pushforward-total-mass", "pushforward-uniformity-ks", ks_limit
    )
    if len(hist.coord_indices) == 1:
        e = hist.edges[0]
        rows = [
            {
                "bin_lo": e[k],
                "bin_hi": e[k + 1],
                "mass": hist.masses[k],
                "stderr": hist.stderrs[k],
            }
            for k in range(len(hist.masses))
        ]
    else:
        rows = [
            {
                "bin_lo": "",
                "bin_hi": "",
                "mass": float(hist.total_mass),
                "stderr": float(hist.total_stderr),
            }
        ]
    csv_path = out / f"pushforward-{_slug(cfg)}.csv"
    write_csv(csv_path, rows)
    return verdicts, [csv_path]


def _run_fit_mass(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    metric = _chart_metric(cfg)
    check_fit_schedule(cfg.t_schedule)
    n = cfg.n_samples or 100_000
    results = _sweep(metric, cfg.t_schedule, n, cfg.seed, cfg.threads)
    rows = [
        {
            "t": t,
            "mass_raw": res.mass_raw,
            "stderr_raw": res.stderr_raw,
            "mass": res.mass,
            "stderr": res.stderr,
        }
        for t, res in zip(cfg.t_schedule, results)
    ]
    csv_path = out / f"fit-mass-{_slug(cfg)}.csv"
    write_csv(csv_path, rows)
    c_rel_limit = cfg.tolerance if cfg.tolerance is not None else 0.02
    verdicts, fit, predicted = _fit_verdicts(metric, results, "fit", c_rel_limit)
    json_path = out / f"fit-mass-{_slug(cfg)}.json"
    write_json(json_path, {"fit": dataclasses.asdict(fit), "predicted": predicted})
    return verdicts, [csv_path, json_path]


def _run_polar_check(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    n = cfg.n_samples or 1_000_000
    n_polys = cfg.n_polys or 10
    rel_limit = cfg.tolerance if cfg.tolerance is not None else 0.01
    verdicts, rows = polar_battery(n, n_polys, cfg.seed, rel_limit)
    csv_path = out / f"polar-check-seed{cfg.seed}.csv"
    write_csv(csv_path, rows)
    return verdicts, [csv_path]


def polar_battery(
    n: int, n_polys: int, seed: int, rel_limit: float = 0.01
) -> tuple[list[CheckVerdict], list[dict[str, object]]]:
    """Polar-decomposition checks: random test functions plus the exact point fiber.

    Half the test functions exercise the full polydisc decomposition, half the
    fiber ``z_0^2 z_1 = 10^-3``, whose two branches of ``z_0`` exercise the
    sampler's branch choice; an anchored constant term keeps the exact
    value away from zero, so the relative discrepancy is meaningful.  The
    ``p = 0``, ``b = 3`` fiber is enumerated exactly: three points of mass
    ``1/9`` each.
    """
    rng = np.random.default_rng(seed)
    anchor = ((0, 0), (0, 0), 1.0 + 0j)
    verdicts: list[CheckVerdict] = []
    rows: list[dict[str, object]] = []
    n_full = n_polys // 2
    for trial in range(n_polys):
        f = TrigPoly.random_hermitian(rng, 2, max_degree=2, n_terms=3)
        f = TrigPoly(f.terms + (anchor,))
        if trial < n_full:
            res = polar_full_check(f, n, seed=seed + 100 + trial)
            label = f"polydisc-{trial}"
        else:
            res = polar_fiber_check((2, 1), 1e-3, f, n, seed=seed + 200 + trial)
            label = f"fiber-{trial - n_full}"
        scale = max(abs(res.exact_value), 1.0)
        rel = res.abs_discrepancy / scale
        verdicts.append(
            bound_check(
                f"polar-rel-{label}",
                rel,
                rel_limit,
                f"{res.identity}: MC {res.mc_value:.6g} vs exact {res.exact_value:.6g}",
            )
        )
        verdicts.append(
            stat_check(
                f"polar-sigma-{label}",
                res.sigmas,
                f"{res.identity}: |MC - exact| = {res.abs_discrepancy:.3g} "
                f"({res.sigmas:.2f} standard errors)",
                limit=5.0,
            )
        )
        rows.append(
            {
                "check": label,
                "identity": res.identity,
                "mc_value": repr(res.mc_value),
                "exact_value": repr(res.exact_value),
                "mc_stderr": res.mc_stderr,
                "rel_discrepancy": rel,
                "sigmas": res.sigmas,
            }
        )

    metric = MonomialChartMetric(b=(3,), a=(Fraction(0),))
    roots, masses = enumerate_point_fiber(LocalChart(metric, 1e-3))
    exact_gap = float(abs(len(roots) - 3)) + float(np.abs(masses - 1.0 / 9.0).max())
    verdicts.append(
        exact_check(
            "point-fiber-b3",
            exact_gap,
            f"{len(roots)} points with masses {[float(m) for m in masses]}",
        )
    )
    root_residual = float(np.abs(roots**3 - 1e-3).max())
    verdicts.append(
        bound_check(
            "point-fiber-b3-roots",
            root_residual,
            1e-12,
            "the three enumerated points satisfy z^3 = t to floating rounding",
        )
    )
    rows.append(
        {
            "check": "point-fiber-b3",
            "identity": "point-enumeration",
            "mc_value": "",
            "exact_value": repr(1.0 / 9.0),
            "mc_stderr": 0.0,
            "rel_discrepancy": exact_gap,
            "sigmas": 0.0,
        }
    )
    return verdicts, rows


def _run_hybrid_check(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    n_seq = cfg.n_polys or 1000
    verdicts = hybrid_battery(n_seq, cfg.seed)
    json_path = out / "hybrid-check.json"
    write_json(json_path, [dataclasses.asdict(v) for v in verdicts])
    return verdicts, [json_path]


def _power_sequence(zeta: float, ks: Iterable[int]) -> list[tuple[float, float]]:
    return [(2.0**-k, 2.0 ** -(zeta * k)) for k in ks]


def hybrid_battery(n_seq: int, seed: int) -> list[CheckVerdict]:
    """Limit-topology checks: edge-point convergence and the hybrid seminorm.

    Power sequences ``(2^-k, 2^-zeta k)`` must converge exactly to
    ``zeta/(1+zeta)`` and to no displaced target; the finite-sequence
    predicate must agree with membership in the shrinking closed
    neighborhoods on randomized sequences; the seminorm must be
    multiplicative and restrict to ``|t| = r`` on the hybrid circle.
    """
    verdicts: list[CheckVerdict] = []
    ks = range(1, 60)
    bad = 0
    for zeta in (0.5, 1.0, 2.0):
        w = zeta / (1.0 + zeta)
        seq = _power_sequence(zeta, ks)
        if not hybrid_converges(seq, w):
            bad += 1
        if hybrid_converges(seq, min(w + 0.1, 1.0)):
            bad += 1
        if not basis_neighborhood_converges(seq, w):
            bad += 1
    verdicts.append(
        exact_check(
            "power-sequence-limits",
            bad,
            "sequences (2^-k, 2^-zeta k) converge to zeta/(1+zeta) for zeta in {1/2, 1, 2}",
        )
    )

    rng = np.random.default_rng(seed)
    mismatch = disagree = 0
    for _ in range(n_seq):
        w_star = float(rng.uniform(0.15, 0.85))
        kind = int(rng.integers(3))
        pts = []
        for k in range(1, 40):
            big_l = min(1.5 * 1.35**k, 500.0)
            if kind == 0:
                wk = w_star + float(rng.uniform(-1, 1)) * 0.2 * 0.5**k
            elif kind == 1:
                wk = w_star + 0.12 + 0.2 * 0.5**k
            else:
                big_l = 1.5 + 0.01 * k
                wk = w_star
            wk = min(max(wk, 0.02), 0.98)
            pts.append((math.exp(-(1 - wk) * big_l), math.exp(-wk * big_l)))
        expected = kind == 0
        a = hybrid_converges(pts, w_star)
        b = basis_neighborhood_converges(pts, w_star)
        mismatch += a != expected
        disagree += a != b
    verdicts.append(
        exact_check(
            "random-sequence-classification",
            mismatch,
            f"{n_seq - mismatch}/{n_seq} randomized sequences classified correctly",
        )
    )
    verdicts.append(
        exact_check(
            "neighborhood-basis-agreement",
            disagree,
            f"finite predicate agrees with closed-neighborhood membership on {n_seq} sequences",
        )
    )

    worst_rel = 0.0
    for trial in range(50):
        r = float(rng.uniform(0.1, 0.9))
        f = _random_laurent(rng)
        g = _random_laurent(rng)
        z = 0.0 if trial % 5 == 0 else r * float(rng.uniform(0.1, 1.0)) * np.exp(
            1j * float(rng.uniform(0, TWO_PI))
        )
        sf, sg, sfg = (
            hybrid_seminorm(f, z, r),
            hybrid_seminorm(g, z, r),
            hybrid_seminorm(f * g, z, r),
        )
        if sf * sg > 0:
            worst_rel = max(worst_rel, abs(sfg - sf * sg) / (sf * sg))
        else:
            worst_rel = max(worst_rel, abs(sfg))
    verdicts.append(
        bound_check(
            "seminorm-multiplicative",
            worst_rel,
            1e-12,
            "relative defect of |fg| = |f||g| over 50 random Laurent pairs",
        )
    )

    t_poly = LaurentSeriesPoly.monomial(1)
    worst = 0.0
    for r in (0.2, 0.5, 0.8):
        for z in (0.0, 0.3 * r, r, r * complex(math.cos(2.0), math.sin(2.0))):
            if abs(z) > r:
                continue
            worst = max(worst, abs(hybrid_seminorm(t_poly, z, r) - r))
    verdicts.append(
        exact_check(
            "parameter-seminorm-is-radius",
            worst,
            "the seminorm of the parameter equals r at every point of the hybrid circle",
        )
    )
    return verdicts


def _random_laurent(rng: np.random.Generator) -> LaurentSeriesPoly:
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        exp = int(rng.integers(-3, 4))
        terms[exp] = complex(rng.normal(), rng.normal())
    f = LaurentSeriesPoly.from_dict(terms)
    if f.is_zero:
        return LaurentSeriesPoly.monomial(0)
    return f


def _run_skeleton_check(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    model, anchor_from_file, rho_from_file, _ = _need_model(cfg, loaded)
    dual = build_dual_complex(model)
    sk = barycentric_subdivide(dual) if cfg.subdivide else TriangulatedSkeleton.from_dual_complex(dual)
    report = pseudomanifold_check(sk)
    rows = [
        {
            "cell": c.cell_id,
            "vertices": " ".join(c.vertices),
            "multiplicities": " ".join(str(m) for m in c.multiplicities),
            "b_sigma": c.b_sigma,
            "residue": c.residue if c.residue is not None else "",
        }
        for c in sk.cells
    ]
    csv_path = out / f"skeleton-{_slug(cfg)}.csv"
    write_csv(csv_path, rows)

    branching = sum(1 for f in sk.facets if len(f.cells) > 2)
    boundary = sum(1 for f in sk.facets if len(f.cells) != 2)
    verdicts = [
        exact_check("nonbranching", branching, f"{branching} facets in more than two cells"),
        exact_check(
            "strongly-connected",
            0.0 if report.strongly_connected else 1.0,
            f"{len(sk.cells)} top cells connected through facets"
            if report.strongly_connected
            else "top cells split into several facet-connected components",
        ),
        exact_check("closed", boundary, f"{boundary} boundary facets"),
    ]
    anchor = cfg.anchor if cfg.anchor is not None else anchor_from_file
    rho = cfg.rho if cfg.rho is not None else rho_from_file
    if anchor is not None and cfg.subdivide:
        ids = {c.cell_id for c in sk.cells}
        if anchor not in ids:
            # An anchor naming a face of the original complex maps to the
            # subdivided cells whose flag terminates at that face; pick the
            # first for determinism (the magnitude is constant anyway).
            children = sorted(i for i in ids if i == anchor or i.endswith("<" + anchor))
            if children:
                anchor = children[0]
    if anchor is not None and rho is None and sk.cell(anchor).residue is None:
        rho = 1.0
    summary: dict[str, object] = {
        "model": model.name,
        "cells": len(sk.cells),
        "dim": sk.dim,
        "nonbranching": report.nonbranching,
        "strongly_connected": report.strongly_connected,
        "closed": report.closed,
    }
    if anchor is not None:
        verdict, magnitudes = _residue_verdict(sk, anchor, rho, "residue-propagation-constant")
        verdicts.append(verdict)
        summary["residue_magnitudes"] = {k: magnitudes[k] for k in sorted(magnitudes)}
    json_path = out / f"skeleton-{_slug(cfg)}.json"
    write_json(json_path, summary)
    return verdicts, [csv_path, json_path]


# ---------------------------------------------------------------------------
# verification suites (one per acceptance scenario)


def suite_lattice(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Exact simplex volumes against the lattice-index normal-form oracle."""
    mismatches = 0
    checked = 0
    for length in (1, 2, 3, 4):
        for b in product(range(1, 7), repeat=length):
            checked += 1
            p = length - 1
            if simplex_volume(b) * lattice_index(b) != Fraction(1, math.factorial(p)):
                mismatches += 1
    return [
        exact_check(
            "simplex-volume-vs-lattice-index",
            mismatches,
            f"{checked} multiplicity vectors (entries <= 6, length <= 4) checked exactly",
        )
    ]


def suite_annulus_mass(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Unit annulus mass at every scale plus the fitted asymptotics."""
    n = 10_000 if quick else 100_000
    metric = MonomialChartMetric(b=(1, 1), a=(Fraction(0), Fraction(0)))
    results = _sweep(metric, LADDER, n, seed, threads)
    names = [f"annulus-unit-mass-t1e-{k}" for k in range(2, 7)]
    return _chart_mass_verdicts(metric, results, names) + _fit_verdicts(metric, results, "annulus")[0]


def suite_chart_residual(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Twisted chart: mass converges to pi; residual closed form is exact."""
    metric = MonomialChartMetric(b=(1, 1), a=(Fraction(0), Fraction(1)))
    closed = residual_mass_closed_form(metric)
    verdicts = [
        bound_check(
            "residual-closed-form-pi",
            abs(closed - math.pi),
            1e-12,
            f"closed form {closed!r} vs pi (floating rounding only)",
        )
    ]
    n_final = 50_000 if quick else 500_000
    (res,) = _sweep(metric, (1e-6,), n_final, seed, threads)
    verdicts.append(
        bound_check(
            "twisted-mass-pi",
            abs(res.mass - math.pi) / math.pi,
            0.02,
            f"normalized mass {res.mass:.5f} +- {res.stderr:.2g} vs pi at t = 1e-6",
        )
    )
    n = 10_000 if quick else 100_000
    fit = _fit_verdicts(metric, _sweep(metric, LADDER, n, seed, threads), "twisted")[0]
    return verdicts + fit[:1]


def suite_pushforward(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Pushforward histogram of the (1,2) chart: mass 1/2, uniform on [0, 1/2]."""
    metric = MonomialChartMetric(b=(1, 2), a=(Fraction(0), Fraction(0)))
    n = 100_000 if quick else 1_000_000
    hist = pushforward_histogram(metric, n, 50, seed, t=1e-6, threads=threads)
    return _pushforward_verdicts(
        metric, hist, "pushforward-total-half", "pushforward-uniform-ks", 0.02
    )


def suite_decay(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Chart with decay exponent 1/2: rescaled mass stays bounded."""
    metric = MonomialChartMetric(b=(2, 1), a=(Fraction(1), Fraction(1)))
    n = 20_000 if quick else 100_000
    rescaled = [r.mass_raw / t for t, r in zip(LADDER, _sweep(metric, LADDER, n, seed, threads))]
    ratio = max(rescaled) / min(rescaled)
    return [
        bound_check(
            "decay-rescaled-mass-bounded",
            ratio,
            1.5,
            f"mass * |t|^-1 spans [{min(rescaled):.4f}, {max(rescaled):.4f}] over the schedule",
        )
    ]


def suite_polar(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Polar decompositions on random test functions plus the exact point fiber."""
    n = 100_000 if quick else 1_000_000
    verdicts, _ = polar_battery(n, 10, seed)
    return verdicts


def suite_base_change(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Exact splitting and pushforward identities for every small b-vector and degree."""
    bad_split = bad_push = checked = 0
    for length in (1, 2, 3):
        for b in product(range(1, 5), repeat=length):
            for m in range(1, 7):
                checked += 1
                fc = face_base_change(b, m)
                if fc.e * fc.f * fc.g != m or not fc.consistent:
                    bad_split += 1
            measure = assemble_limit_measure(simplex_model(b, name="bc"))
            for m in range(1, 7):
                if not pushforward_identity_check(measure, m).passed:
                    bad_push += 1
    return [
        exact_check(
            "base-change-splitting",
            bad_split,
            f"e*f*g = m and lattice scales exact on {checked} (b, m) pairs",
        ),
        exact_check(
            "base-change-pushforward",
            bad_push,
            "pushforward of the base-changed measure equals m^d * measure for every case",
        ),
    ]


def suite_pencil(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Triangle degeneration at desk scale: equal edges, uniform edges, constant residues."""
    pen = HypersurfacePencil.coordinate()
    n = 100_000 if quick else 1_000_000
    res = sample_pencil(pen, 1e-5, n, seed, bins=25, threads=threads)
    verdicts = _edge_verdicts(res.patches, "pencil-edge-masses-equal", "pencil-edge-ks", 0.02)
    sk = TriangulatedSkeleton.from_dual_complex(build_dual_complex(coordinate_pencil(2)))
    verdicts.append(_residue_verdict(sk, "E0&E1", 1.0, "pencil-residue-propagation-constant")[0])
    return verdicts


def suite_hybrid(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Limit-topology and seminorm checks at acceptance scale."""
    return hybrid_battery(200 if quick else 1000, seed)


def suite_regression(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Non-semistable skeleton: unequal multiplicities force a non-uniform limit."""
    model = simplex_model((1, 2, 4), name="non-semistable-cycle", boundary=True)
    measure = assemble_limit_measure(model)
    weights = {e.face.id_string(): e.weight for e in measure.entries}
    distinct = sorted(set(weights.values()))
    b_sigmas = {e.face.id_string(): e.b_sigma for e in measure.entries}
    nonuniform_ok = 0.0 if len(distinct) > 1 else 1.0
    verdicts = [
        exact_check(
            "non-semistable-weights-non-uniform",
            nonuniform_ok,
            f"edge weights {weights} with b_sigma {b_sigmas}",
        )
    ]

    semistable = simplex_model((1, 1, 1), name="semistable-cycle", boundary=True)
    uniform = assemble_limit_measure(semistable)
    u_weights = sorted(set(e.weight for e in uniform.entries))
    verdicts.append(
        exact_check(
            "semistable-weights-uniform",
            0.0 if len(u_weights) == 1 else 1.0,
            f"reduced multiplicities give the constant weight {u_weights}",
        )
    )
    return verdicts


SUITES: dict[str, Callable[..., list[CheckVerdict]]] = {
    "lattice": suite_lattice,
    "annulus-mass": suite_annulus_mass,
    "chart-residual": suite_chart_residual,
    "pushforward": suite_pushforward,
    "decay": suite_decay,
    "polar": suite_polar,
    "base-change": suite_base_change,
    "pencil": suite_pencil,
    "hybrid": suite_hybrid,
    "regression": suite_regression,
}


def _run_verify(cfg: ExperimentConfig, out: Path, loaded: Loaded | None) -> Outcome:
    if cfg.suite is None:
        raise ConfigError("verify: needs --suite NAME (or --suite list)")
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    verdicts: list[CheckVerdict] = []
    timings: list[tuple[str, float]] = []
    for name in names:
        t0 = time.perf_counter()
        verdicts.extend(SUITES[name](seed=cfg.seed, quick=cfg.quick, threads=cfg.threads))
        timings.append((f"verify.{name}", time.perf_counter() - t0))
    return verdicts, [], timings


RUNNERS: dict[str, Callable[[ExperimentConfig, Path, Loaded | None], Outcome]] = {
    "dual-complex": _run_dual_complex,
    "weights": _run_weights,
    "limit-measure": _run_limit_measure,
    "base-change": _run_base_change,
    "sample": _run_sample,
    "pushforward": _run_pushforward,
    "fit-mass": _run_fit_mass,
    "polar-check": _run_polar_check,
    "hybrid-check": _run_hybrid_check,
    "skeleton-check": _run_skeleton_check,
    "verify": _run_verify,
}


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch a validated configuration and collect the run report."""
    out = Path(config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    loaded = _load_model(config) if config.model is not None else None
    verdicts, artifacts, *stages = RUNNERS[config.command](config, out, loaded)
    elapsed = time.perf_counter() - t0
    report = RunReport(
        config=config,
        content_hash=_content_hash(config, loaded[3] if loaded else b""),
        verdicts=tuple(verdicts),
        timings=((config.command, elapsed), *(stages[0] if stages else ())),
        artifacts=tuple(str(p) for p in artifacts),
    )
    report.path.write_text(report.to_json(), encoding="utf-8")
    return report


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropmass",
        description="Exact skeletal limit measures of degenerating volume forms, "
        "with Monte-Carlo verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", dest="outdir", metavar="OUT", default=None, help=f"output directory (default ${OUTDIR_ENV} or ./{DEFAULT_OUTDIR})")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (mandatory for sampling)")
    common.add_argument("--threads", type=int, default=1, help="sampler chunks run in this many threads (results do not depend on it)")
    common.add_argument("--tolerance", type=float, default=None, help="override the default check tolerance")

    model_args = argparse.ArgumentParser(add_help=False)
    group = model_args.add_mutually_exclusive_group()
    group.add_argument("--preset", dest="model", metavar="NAME", help=f"model preset: {sorted(PRESETS)}")
    group.add_argument("--model", dest="model", metavar="FILE", help="path to a model-spec file")
    model_args.add_argument("--n", type=int, default=2, help="projective dimension for coordinate_pencil")

    chart_args = argparse.ArgumentParser(add_help=False)
    chart_args.add_argument("--b", default=None, help="chart multiplicities, e.g. 1,2")
    chart_args.add_argument("--a", default=None, help="chart twist weights, e.g. 0,1/2")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dual-complex", parents=[common, model_args], help="faces of the dual complex")
    sub.add_parser("weights", parents=[common, model_args], help="slopes and the active subcomplex")
    p = sub.add_parser("limit-measure", parents=[common, model_args], help="assemble the limit measure")
    p.add_argument("--residue", dest="residues", action="append", default=[], metavar="FACE=VALUE", help="residual mass of a face")
    p = sub.add_parser("base-change", parents=[common, model_args], help="exact base-change arithmetic")
    p.add_argument("--m", type=int, required=True, help="degree of the base change")
    p = sub.add_parser("sample", parents=[common, model_args, chart_args], help="Monte-Carlo fiber mass")
    p.add_argument("--t", dest="t_schedule", metavar="T", required=True, help="t value or schedule (1e-2..1e-6 or comma list)")
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.1, help="pencil modulus")
    p = sub.add_parser("pushforward", parents=[common, model_args, chart_args], help="histogram of the tropical image")
    p.add_argument("--t", dest="t_schedule", metavar="T", required=True)
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)
    p = sub.add_parser("fit-mass", parents=[common, model_args, chart_args], help="fit the mass asymptotics")
    p.add_argument("--t", dest="t_schedule", metavar="T", required=True, help="t schedule, e.g. 1e-2..1e-6")
    p.add_argument("--n-samples", type=int, default=None)
    p = sub.add_parser("polar-check", parents=[common], help="polar decomposition identities")
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--n-polys", type=int, default=None)
    p = sub.add_parser("hybrid-check", parents=[common], help="limit-topology and seminorm checks")
    p.add_argument("--n-sequences", dest="n_polys", metavar="N", type=int, default=None)
    p = sub.add_parser("skeleton-check", parents=[common, model_args], help="pseudomanifold and residue checks")
    p.add_argument("--subdivide", action="store_true", help="barycentrically subdivide first")
    p.add_argument("--anchor", default=None, help="anchor cell id for residue propagation")
    p.add_argument("--rho", type=float, default=None, help="anchor residue magnitude")
    p = sub.add_parser("verify", parents=[common], help="named verification suites")
    p.add_argument("--suite", required=True, help=f"suite name, 'all', or 'list' ({sorted(SUITES)})")
    p.add_argument("--quick", action="store_true", help="smaller sample sizes (smoke test, not certifying)")
    return parser


# Parser values that need converting into their config field's type.
_CONVERTERS: dict[str, Callable[..., object]] = {
    "t_schedule": parse_t_schedule,
    "b": lambda text: _parse_list(text, int, "integers"),
    "a": lambda text: _parse_list(text, Fraction, "rationals"),
    "residues": _parse_residues,
}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Build the config from the parser's values; each parser dest is a config field."""
    values = {k: v for k, v in vars(args).items() if v is not None}
    for name, convert in _CONVERTERS.items():
        if name in values:
            values[name] = convert(values[name])
    values["outdir"] = args.outdir or os.environ.get(OUTDIR_ENV) or DEFAULT_OUTDIR
    return ExperimentConfig(**values)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "suite", None) == "list":
        for name in sorted(SUITES):
            print(name)
        return 0
    try:
        config = config_from_args(args)
        report = run(config)
    except (ConfigError, ModelSpecError, ValueError) as err:
        print(f"[error] {err}", file=sys.stderr)
        return 2
    for v in report.verdicts:
        status = "pass" if v.passed else "FAIL"
        print(f"[{status}] {v.name}: {v.detail} (discrepancy {v.discrepancy:.4g}, limit {v.limit:g})")
    print(f"report: {report.path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
