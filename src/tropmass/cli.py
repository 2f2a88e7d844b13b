"""Command-line harness: reproducible experiments and verification suites.

`COMMANDS` has one row per ``tropmass`` subcommand: its runner, its help
line, and each config field it reads with the default it applies; `FIELDS`
gives each field's flag.  A subcommand's parser holds exactly its row's flags
(and ``--out``) and takes no abbreviation, so a flag the command does not
read exits 2, as does such a field given to `ExperimentConfig`.  Every run
produces a `RunReport`: the configuration as used, a content hash of the
inputs, check verdicts that each carry a quantitative discrepancy, and
timings (the whole command, and for ``verify`` each suite).

Each subcommand's runner is a pure function of the configuration and the
loaded model: it returns an `Outcome` holding its verdicts and its artifacts,
each artifact a file name mapped to CSV rows or a JSON payload.  `run` alone
writes files: every artifact, chosen by file suffix, then the report.  CSV is
deterministic (fixed field order, shortest round-trip float formatting,
fixed line terminator); JSON is indented with sorted keys and a trailing
newline.  Re-running a subcommand with an identical configuration and seed
reproduces byte-identical CSV files.

Exit status is 0 when every check passes, 1 when one fails, 2 for a
configuration or parse error and 3 for an internal error.  Only the input
errors of `INPUT_ERRORS` exit 2, each naming the flag, face or line at
fault; any other exception, a `ValueError` included, is an internal error.
Statistical checks fail only beyond three standard errors (unless the check
carries its own limit); exact checks fail on any discrepancy.

The ``verify`` subcommand runs named suites; each suite reproduces one
acceptance scenario end to end (``tropmass verify --suite list`` prints the
names).  The ``polar`` and ``hybrid`` suites are the ``polar-check`` and
``hybrid-check`` runners at fixed configurations.  The output directory
defaults to the ``TROPMASS_OUTDIR`` environment variable, then to
``./tropmass-out``.
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
import traceback
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    REQUIRED,
    ModelError,
    ModelSpecError,
    WeightedSncModel,
    build_dual_complex,
    coordinate_pencil,
    load_preset,
    simplex_model,
    weight_data,
)
from .pencil import HypersurfacePencil, PencilError, PencilSampleResult, elliptic_lattice_covolume, sample_pencil
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
    sigmas,
    uniform_cdf,
)
from .skeleton import (
    SkeletonError,
    TriangulatedSkeleton,
    barycentric_subdivide,
    parse_skeleton_spec,
    pseudomanifold_check,
    residue_chain_propagate,
)

OUTDIR_ENV = "TROPMASS_OUTDIR"
DEFAULT_OUTDIR = "tropmass-out"

LADDER = tuple(10.0**-k for k in range(2, 7))  # the suites' t schedule, 1e-2..1e-6

# Largest --n: coordinate_pencil(n) has 2^(n+1) - 2 strata, and its
# barycentric subdivision (n + 1)! top cells.
N_MAX = 6


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# The errors of a bad input, which exit 2.
INPUT_ERRORS = (ConfigError, ModelSpecError, ModelError, SkeletonError, PencilError)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters of one subcommand invocation.

    ``command`` names a row of `COMMANDS`.  A field that the row does not read
    must stay ``None``; a field that it reads and that is not given takes the
    row's default, and one whose default is `REQUIRED` must be given.
    """

    command: str
    model: str | None = None
    b: tuple[int, ...] | None = None
    a: tuple[Fraction, ...] | None = None
    n: int | None = None
    epsilon: float | None = None
    t_schedule: tuple[float, ...] | None = None
    n_samples: int | None = None
    n_polys: int | None = None
    seed: int | None = None
    bins: int | None = None
    tolerance: float | None = None
    threads: int | None = None
    m: int | None = None
    residues: tuple[tuple[str, float], ...] | None = None
    anchor: str | None = None
    rho: float | None = None
    subdivide: bool | None = None
    suite: str | None = None
    quick: bool | None = None
    outdir: str = DEFAULT_OUTDIR

    def __post_init__(self) -> None:
        row = COMMANDS.get(self.command)
        if row is None:
            raise ConfigError(f"unknown command {self.command!r}; choose from {sorted(COMMANDS)}")
        given = {k: v for k, v in vars(self).items() if v is not None and k not in ("command", "outdir")}
        unread = [row.flag(name) for name in given if name not in row.reads]
        if unread:
            raise ConfigError(f"{self.command} does not read {', '.join(unread)}")
        if "model" in given and ("b" in given or "a" in given):
            raise ConfigError("give the chart either by --b/--a or by --preset/--model, not both")
        for name in ("n_samples", "n_polys", "bins", "threads", "m", "tolerance"):
            if name in given and not given[name] > 0:
                raise ConfigError(f"{row.flag(name)} must be positive")
        if given.get("seed", 0) < 0:
            raise ConfigError(f"{row.flag('seed')} must be non-negative")
        if not math.isfinite(given.get("tolerance", 0.0)):
            raise ConfigError(f"{row.flag('tolerance')} must be finite")
        rho = given.get("rho", 0.0)
        if not (math.isfinite(rho) and rho >= 0):
            raise ConfigError(f"{row.flag('rho')} must be finite and >= 0")
        for t in given.get("t_schedule", ()):
            if not 0.0 < t < 1.0:
                raise ConfigError(f"t values must lie in (0, 1), got {t!r}")
        residues = given.get("residues", ())
        for _, value in residues:
            if not math.isfinite(value) or value < 0:
                raise ConfigError("residue values must be finite and >= 0")
        faces = [face for face, _ in residues]
        if len(set(faces)) != len(faces):
            raise ConfigError(f"a residue is given twice in {faces}")
        missing = [row.flag(k) for k, d in row.reads.items() if d is REQUIRED and given.get(k) in (None, ())]
        if missing:
            raise ConfigError(f"{self.command}: needs {' and '.join(missing)}")
        if "n" in given:
            # `_load_model` reads an existing path as a spec file, whatever its name.
            if self.model != "coordinate_pencil" or Path(self.model).exists():
                raise ConfigError(f"--n sets the dimension of coordinate_pencil only, not of {self.model!r}")
            if not 1 <= self.n <= N_MAX:
                raise ConfigError(f"--n must lie in 1..{N_MAX}, got {self.n}")
        for name, default in row.reads.items():
            if name not in given:
                object.__setattr__(self, name, default)

    def echo(self) -> dict[str, object]:
        """The command, each field its row reads with the value used, and the output directory."""
        names = ("command", *COMMANDS[self.command].reads, "outdir")
        return {name: _plain(getattr(self, name)) for name in names}


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

    def to_json(self) -> dict[str, object]:
        """The JSON payload of the report file."""
        return {
            "config": self.config.echo(),
            "content_hash": self.content_hash,
            "passed": self.passed,
            "verdicts": [dataclasses.asdict(v) for v in self.verdicts],
            "timings": {name: seconds for name, seconds in self.timings},
            "artifacts": list(self.artifacts),
        }


# ---------------------------------------------------------------------------
# parsing helpers


def parse_t_schedule(text: str) -> tuple[float, ...]:
    """Parse ``1e-2..1e-6`` (decade ladder), comma lists, or single values.

    Rung ``k`` of a ladder is the start's decimal text shifted by ``k``
    decades, so ``1e-2..1e-7`` holds exactly the floats of ``1e-2`` ... ``1e-7``.
    """
    def number(s: str) -> float:
        try:
            return float(s)
        except ValueError:
            raise ConfigError(f"--t value {s.strip()!r} is not a number") from None

    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            start, stop = number(lo_s), number(hi_s)
            if not (0 < stop <= start and math.isfinite(start)):
                raise ConfigError(f"range {token!r} must run from larger to smaller positive t")
            k = 0
            while (t := float(Decimal(lo_s).scaleb(-k))) > stop:
                out.append(t)
                k += 1
            out.append(stop)
        elif token:
            out.append(number(token))
    if not out:
        raise ConfigError(f"empty t schedule {text!r}")
    return tuple(out)


def _parse_list(text: str, convert: Callable[[str], object], what: str) -> tuple:
    try:
        return tuple(convert(tok.strip()) for tok in text.split(",") if tok.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected comma-separated {what}, got {text!r}") from None


def _parse_residues(items: Sequence[str]) -> tuple[tuple[str, float], ...]:
    out = []
    for item in items:
        face, _, value = item.partition("=")
        try:
            out.append((face.strip(), float(value)))
        except ValueError:
            raise ConfigError(f"--residue {item!r} must look like FACE=VALUE, VALUE a number") from None
    return tuple(out)


Loaded = tuple[WeightedSncModel, str | None, float | None, bytes]


class Outcome(NamedTuple):
    """What a runner returns: verdicts, artifacts and stage timings.

    ``artifacts`` maps each file name, in writing order, to its CSV rows (a
    ``.csv`` name) or its JSON payload (any other name).  ``stages`` holds
    ``(name, seconds)`` timings of the runner's parts.
    """

    verdicts: list[CheckVerdict]
    artifacts: dict[str, object]
    stages: Sequence[tuple[str, float]] = ()


def _load_model(cfg: ExperimentConfig) -> Loaded:
    """Resolve the model argument to a model, optional skeleton anchor and rho, input bytes.

    The input bytes are those of a spec file, empty for a preset.
    """
    path = Path(cfg.model)
    if path.suffix or path.exists():
        try:
            raw = path.read_bytes()
            text = raw.decode("utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read model spec {cfg.model!r}: {e}") from None
        model, anchor, rho = parse_skeleton_spec(text, name=path.stem)
        return model, anchor, rho, raw
    # The chart commands do not read --n: the preset keeps its own default.
    preset = load_preset(cfg.model) if cfg.n is None else load_preset(cfg.model, cfg.n)
    return preset, None, None, b""


def _chart_metric(cfg: ExperimentConfig, loaded: Loaded | None) -> MonomialChartMetric:
    """Monomial chart from explicit ``--b/--a``, or that of the model's single top face."""
    if cfg.b is not None:
        if not cfg.b or min(cfg.b) < 1:
            raise ConfigError(f"--b needs multiplicities >= 1, got {','.join(map(str, cfg.b))!r}")
        a = cfg.a if cfg.a is not None else tuple(Fraction(0) for _ in cfg.b)
        if len(a) != len(cfg.b):
            raise ConfigError(f"--a needs {len(cfg.b)} entries, got {len(a)}")
        return MonomialChartMetric(b=cfg.b, a=a)
    dual = build_dual_complex(loaded[0]) if loaded is not None else None
    if dual is None or len(dual.faces_of_dim(dual.dim)) != 1:
        raise ConfigError(f"{cfg.command}: needs --b (and optionally --a), or a model with one top face")
    (top,) = dual.faces_of_dim(dual.dim)
    return MonomialChartMetric(b=top.simplex.b, a=tuple(dual.model.component(n).a for n in top.components))


def _content_hash(cfg: ExperimentConfig, input_bytes: bytes = b"") -> str:
    """Content hash of the run inputs: canonical config plus input file bytes.

    The output directory and the directory of a spec file are excluded (the
    file counts by its name and bytes), so the hash identifies the
    experiment, not where its inputs and artifacts live.
    """
    echoed = cfg.echo()
    del echoed["outdir"]
    if cfg.model is not None:
        echoed["model"] = Path(cfg.model).name
    canonical = json.dumps(echoed, sort_keys=True).encode()
    blob = b"config %d\0" % len(canonical) + canonical + b"input %d\0" % len(input_bytes) + input_bytes
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# deterministic artifact writers (called by `run` only)


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


def _finite_json(obj: object) -> object:
    """``obj`` with each non-finite float as the string ``float()`` reads back: "inf", "-inf", "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def write_json(path: Path, obj: object) -> None:
    """Write strict JSON: a non-finite float becomes a string, and any other raises."""
    text = json.dumps(_finite_json(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


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
# subcommand runners: (config, loaded model) -> Outcome, no I/O


def _run_dual_complex(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    model = loaded[0]
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
    summary = {
        "model": model.name,
        "dim": dual.dim,
        "euler_characteristic": dual.euler_characteristic(),
        "faces_by_dim": {str(k): len(dual.faces_of_dim(k)) for k in range(dual.dim + 1)},
    }
    verdicts = [exact_check("model-valid", 0.0, f"{len(dual.faces)} faces, dim {dual.dim}")]
    name = f"dual-complex-{_slug(cfg)}"
    return Outcome(verdicts, {f"{name}.csv": rows, f"{name}.json": summary})


def _run_weights(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    model = loaded[0]
    wd = weight_data(model)
    rows = [
        {"component": c.name, "b": c.b, "a": c.a, "kappa": c.kappa}
        for c in model.components
    ]
    summary = {
        "model": model.name,
        "kappa_min": str(wd.kappa_min),
        "d": wd.d,
        "active_faces": [f.id_string() for f in wd.active_faces],
        "active_top_faces": [f.id_string() for f in wd.active_top_faces()],
    }
    verdicts = [
        exact_check(
            "active-subcomplex-nonempty",
            0.0 if wd.active_faces else 1.0,
            f"kappa_min = {wd.kappa_min}, d = {wd.d}, {len(wd.active_faces)} active faces",
        )
    ]
    name = f"weights-{_slug(cfg)}"
    return Outcome(verdicts, {f"{name}.csv": rows, f"{name}.json": summary})


def _run_limit_measure(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    model = loaded[0]
    masses = {face: value for face, value in cfg.residues} or None
    measure = assemble_limit_measure(model, masses)
    total = measure.total_mass
    verdicts = [
        bound_check(
            "positive-total-mass",
            0.0 if total > 0 else 1.0,
            0.0,
            f"total mass {total} on {len(measure.entries)} faces of dim {measure.d}",
        )
    ]
    name = f"limit-measure-{_slug(cfg)}"
    return Outcome(verdicts, {f"{name}.csv": measure.to_rows(), f"{name}.json": measure.to_json()})


def _run_base_change(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    model = loaded[0]
    report = model_base_change(model, cfg.m)
    bad_identity = sum(1 for _, r in report.entries if not r.splits)
    bad_lattice = sum(1 for _, r in report.entries if not r.index_agrees)
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
            f"splitting degree e equals the lattice index of Z^(p+1) + Z b/m on {len(report.entries)} faces",
        ),
        exact_check(
            "pushforward-identity",
            0.0 if push.passed else 1.0,
            f"pushforward of the base-changed measure equals m^d * measure (d = {push.d})",
        ),
    ]
    return Outcome(verdicts, {f"base-change-{_slug(cfg)}-m{cfg.m}.csv": report.rows()})


def _columns(obj: object, names: Sequence[str]) -> dict[str, object]:
    """The named attributes of ``obj``, in order: the cells of one CSV row."""
    return {name: getattr(obj, name) for name in names}


def _sweep(
    metric: MonomialChartMetric, ts: Iterable[float], n: int, seed: int, threads: int
) -> list[FiberSampleResult]:
    """Sample the chart's fiber mass at each ``t``; ``threads`` only sets the speed."""
    return [sample_fiber_measure(LocalChart(metric, t), n, seed, threads=threads) for t in ts]


def _edge_verdicts(res: PencilSampleResult, equal_name: str, ks_prefix: str, ks_limit: float) -> list[CheckVerdict]:
    """Equal masses on the tropical edges (worst pairwise gap) and a uniform density on each."""
    patches = res.patches
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
            f"worst pairwise gap {worst:.2f} standard errors across {len(patches)} edges; each route's "
            f"standard error is the spread of its {res.shifts} lattice shift means "
            f"({res.shifts - 1} degrees of freedom)",
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
) -> tuple[list[CheckVerdict], MassFit | None, dict[str, float]]:
    """Fit ``c |t|^(2 kappa_min) (log 1/|t|)^d`` to the raw masses and check each parameter.

    Returns the verdicts, the fit and the predicted parameters.  A mass
    estimate of 0 (no accepted sample) leaves nothing to fit: the fit is
    ``None`` and the three verdicts fail with discrepancy ``inf``.
    """
    kappa_pred = float(metric.kappa_min)
    d_pred = metric.active_dim
    c_pred = TWO_PI**d_pred * chart_limit_mass(metric)
    predicted = {"kappa_min": kappa_pred, "d": d_pred, "c": c_pred}
    names = [f"{prefix}-log-exponent", f"{prefix}-decay-exponent", f"{prefix}-leading-constant"]
    zero = [f"{abs(res.t):g}" for res in results if res.mass_raw <= 0]
    if zero:
        detail = f"no fit: the mass estimate is 0 at t = {', '.join(zero)}"
        gaps, details, fit = [math.inf] * 3, [detail] * 3, None
    else:
        fit = fit_mass_asymptotics([(res.t, res.mass_raw) for res in results])
        gaps = [
            abs(fit.d_hat - d_pred),
            abs(fit.kappa_min_hat - kappa_pred),
            abs(fit.c_hat - c_pred) / c_pred if c_pred else math.inf,
        ]
        details = [
            f"d_hat = {fit.d_hat} (raw {fit.d_raw:.4f}) vs predicted d = {d_pred}",
            f"kappa_hat = {fit.kappa_min_hat:.5f} vs predicted {kappa_pred:g}",
            f"c_hat = {fit.c_hat:.6g} vs predicted {c_pred:.6g}",
        ]
    verdicts = [
        exact_check(names[0], gaps[0], details[0]),
        bound_check(names[1], gaps[1], 0.01, details[1]),
        bound_check(names[2], gaps[2], c_rel_limit, details[2]),
    ]
    return verdicts, fit, predicted


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
        ks = math.inf  # no accepted sample, as for a pencil edge with no points
        if hist.weights.size:
            ks = ks_statistic(hist.values[:, 0], hist.weights, uniform_cdf(lo, hi))
        verdicts.append(
            bound_check(
                ks_name,
                ks,
                ks_limit,
                f"KS distance to the uniform density on [{lo:g}, {hi:g}]",
            )
        )
    return verdicts


def _residue_verdict(
    sk: TriangulatedSkeleton, anchor: str, rho: float, name: str
) -> tuple[CheckVerdict, dict[str, float]]:
    """Propagate the anchor's residue through the skeleton, one magnitude on every cell.

    An anchor naming no cell raises `SkeletonError`.  A propagation that
    succeeds is constant, so the check fails only on a skeleton that cannot
    carry it (not closed, not strongly connected, or a cell with
    ``b_sigma != 1``), with the reason in its detail.
    """
    sk.cell(anchor)
    try:
        magnitudes = residue_chain_propagate(sk, anchor, rho)
    except SkeletonError as err:
        return exact_check(name, 1.0, f"no propagation: {err}"), {}
    detail = f"propagated magnitude {magnitudes[anchor]:g} on all {len(magnitudes)} cells"
    return exact_check(name, 0.0, detail), magnitudes


def _run_sample_chart(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    if loaded is not None and not loaded[3] and cfg.model in HypersurfacePencil.PRESETS:
        raise ConfigError(f"sample runs charts only: for the pencil, run sample-pencil --preset {cfg.model}")
    metric = _chart_metric(cfg, loaded)
    ts = cfg.t_schedule
    results = _sweep(metric, ts, cfg.n_samples, cfg.seed, cfg.threads)
    columns = ("n_samples", "accept_rate", "mass", "stderr", "mass_raw", "stderr_raw")
    rows = [{"t": t, **_columns(res, columns)} for t, res in zip(ts, results)]
    verdicts = _chart_mass_verdicts(metric, results, [f"normalized-mass-t{t:g}" for t in ts])
    return Outcome(verdicts, {f"sample-{_slug(cfg)}.csv": rows})


def _check_bins(cfg: ExperimentConfig) -> None:
    """Refuse more bins than samples; called before sampling by the runs that bin."""
    if cfg.bins > cfg.n_samples:
        raise ConfigError(f"--bins {cfg.bins} exceeds --n-samples {cfg.n_samples}")


def _run_sample_pencil(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    pen = HypersurfacePencil(cfg.model, epsilon=cfg.epsilon)
    if len(cfg.t_schedule) != 1:
        raise ConfigError("sample-pencil needs a single --t value")
    if pen.has_tropical_edges:
        _check_bins(cfg)
    t = cfg.t_schedule[0]
    res = sample_pencil(pen, t, cfg.n_samples, cfg.seed, bins=cfg.bins, threads=cfg.threads)
    columns = ("n_points", "mass", "stderr", "mass_raw", "stderr_raw")
    rows = [
        {"patch": p.label, **_columns(p, columns), "ks_uniform": p.ks_uniform if p.ks_uniform is not None else ""}
        for p in res.patches
    ]
    hist_rows = [
        {
            "patch": p.label,
            "bin_lo": p.hist_edges[k],
            "bin_hi": p.hist_edges[k + 1],
            "mass": p.hist_masses[k],
        }
        for p in res.patches
        for k in range(len(p.hist_masses))
    ]
    name = f"sample-{_slug(cfg)}-t{t:g}"
    artifacts: dict[str, object] = {f"{name}.csv": rows}
    if hist_rows:
        artifacts[f"{name}-hist.csv"] = hist_rows
    layout = ("n_samples", "rule_points", "shifts", "n_failures")
    artifacts[f"{name}.json"] = {key: getattr(res, key) for key in layout}

    verdicts = [
        exact_check(
            "no-root-failures",
            res.n_failures,
            f"{res.n_failures} failed fiber solves in {res.n_samples} evaluations "
            f"({res.shifts} shifts of a {res.rule_points}-point lattice rule per route)",
        )
    ]
    if pen.has_tropical_edges:
        patches = res.patches
        verdicts += _edge_verdicts(res, "edge-masses-pairwise-equal", "edge-uniformity-ks", cfg.tolerance)
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
    return Outcome(verdicts, artifacts)


def _run_pushforward(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    metric = _chart_metric(cfg, loaded)
    if len(cfg.t_schedule) != 1:
        raise ConfigError("pushforward needs a single --t value")
    if metric.active_dim == 1:
        _check_bins(cfg)
    t = cfg.t_schedule[0]
    hist = pushforward_histogram(metric, cfg.n_samples, cfg.bins, cfg.seed, t=t, threads=cfg.threads)
    verdicts = _pushforward_verdicts(
        metric, hist, "pushforward-total-mass", "pushforward-uniformity-ks", cfg.tolerance
    )
    if len(hist.coord_indices) == 1:
        e = hist.edges[0]
        rows = [
            {"bin_lo": e[k], "bin_hi": e[k + 1], "mass": hist.masses[k], "stderr": hist.stderrs[k]}
            for k in range(len(hist.masses))
        ]
    else:
        rows = [{"bin_lo": "", "bin_hi": "", "mass": float(hist.total_mass), "stderr": float(hist.total_stderr)}]
    return Outcome(verdicts, {f"pushforward-{_slug(cfg)}.csv": rows})


def _run_fit_mass(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    metric = _chart_metric(cfg, loaded)
    try:
        check_fit_schedule(cfg.t_schedule)
    except ValueError as err:
        raise ConfigError(f"--t: {err}") from None
    results = _sweep(metric, cfg.t_schedule, cfg.n_samples, cfg.seed, cfg.threads)
    columns = ("mass_raw", "stderr_raw", "mass", "stderr")
    rows = [{"t": t, **_columns(res, columns)} for t, res in zip(cfg.t_schedule, results)]
    verdicts, fit, predicted = _fit_verdicts(metric, results, "fit", cfg.tolerance)
    name = f"fit-mass-{_slug(cfg)}"
    summary = {"fit": dataclasses.asdict(fit) if fit else None, "predicted": predicted}
    return Outcome(verdicts, {f"{name}.csv": rows, f"{name}.json": summary})


def _run_polar_check(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    """Polar-decomposition checks: random test functions plus the exact point fiber.

    Half the test functions exercise the full polydisc decomposition, half the
    fiber ``z_0^2 z_1 = 10^-3``, whose two branches of ``z_0`` exercise the
    branch choice; an anchored constant term keeps the exact
    value away from zero, so the relative discrepancy is meaningful.  The
    polydisc functions also carry ``|z_0|^2 + |z_1|^2``, whose integral
    depends on the discs' radial law.  Each identity evaluates all its test
    functions on shared points of a randomized lattice rule: the polydisc
    those of `polar_full_check` with seed ``seed + 100``, the fiber those of
    `polar_fiber_check` with seed ``seed + 200 + n_full`` (``n_full``
    polydisc functions), whose branch coordinate puts the points on both
    branches of ``z_0``.  Each rule has a fixed size, so no flag sizes
    either identity.  The ``p = 0``, ``b = 3`` fiber is enumerated exactly:
    three points of mass ``1/9`` each.
    """
    seed = cfg.seed
    rng = np.random.default_rng(seed)
    anchor = ((0, 0), (0, 0), 1.0 + 0j)
    radial = (((1, 0), (1, 0), 1.0 + 0j), ((0, 1), (0, 1), 1.0 + 0j))
    verdicts: list[CheckVerdict] = []
    rows: list[dict[str, object]] = []
    n_full = cfg.n_polys // 2
    fs = [
        TrigPoly(
            TrigPoly.random_hermitian(rng, 2, max_degree=2, n_terms=3).terms
            + (anchor,)
            + (radial if i < n_full else ())
        )
        for i in range(cfg.n_polys)
    ]
    results = polar_full_check(fs[:n_full], seed + 100) if n_full else []
    results += polar_fiber_check((2, 1), 1e-3, fs[n_full:], seed + 200 + n_full)
    for trial, res in enumerate(results):
        label = f"polydisc-{trial}" if trial < n_full else f"fiber-{trial - n_full}"
        scale = max(abs(res.exact_value), 1.0)
        rel = res.abs_discrepancy / scale
        verdicts.append(
            bound_check(
                f"polar-rel-{label}",
                rel,
                cfg.tolerance,
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
                "mc_value": res.mc_value,
                "exact_value": res.exact_value,
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
    rows.append({
        "check": "point-fiber-b3", "identity": "point-enumeration", "mc_value": "", "exact_value": 1.0 / 9.0,
        "mc_stderr": 0.0, "rel_discrepancy": exact_gap, "sigmas": 0.0,
    })
    return Outcome(verdicts, {f"polar-check-seed{seed}.csv": rows})


HYBRID_CHUNK = 250  # `_run_hybrid_check`: random sequences generated and classified at once


def _random_bidisc_sequences(
    rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Targets ``w_star``, kinds, and ``(count, 39, 2)`` points of ``count`` random bidisc sequences.

    The points are ``(e^{-(1-w_k) L_k}, e^{-w_k L_k})``.  Kind 0 converges to
    ``w_star``, kind 1 to ``w_star + 0.12``; along kind 2 ``L_k`` stalls.
    Each sequence draws ``w_star``, its kind and, for kind 0, 39 uniforms, in
    that order, so the stream is the same as one sequence at a time.
    """
    ks = np.arange(1, 40)
    w_star, kind = [], []
    jitter = np.zeros((count, ks.size))
    for i in range(count):
        w_star.append(float(rng.uniform(0.15, 0.85)))
        kind.append(int(rng.integers(3)))
        if kind[-1] == 0:
            jitter[i] = rng.uniform(-1, 1, ks.size)
    w_star, kind = np.array(w_star), np.array(kind)
    w_col = w_star[:, None]
    wk = np.where(
        kind[:, None] == 0,
        w_col + jitter * 0.2 * 0.5**ks,
        np.where(kind[:, None] == 1, (w_col + 0.12) + 0.2 * 0.5**ks, w_col),
    )
    wk = np.clip(wk, 0.02, 0.98)
    big_l = np.where(kind[:, None] == 2, 1.5 + 0.01 * ks, np.minimum(1.5 * 1.35**ks, 500.0))
    return w_star, kind, np.stack((np.exp(-(1 - wk) * big_l), np.exp(-wk * big_l)), axis=-1)


def _run_hybrid_check(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    """Limit-topology checks: edge-point convergence and the hybrid seminorm.

    Power sequences ``(2^-k, 2^-zeta k)`` must converge exactly to
    ``zeta/(1+zeta)`` and to no displaced target; the finite-sequence
    predicate must agree with membership in the shrinking closed
    neighborhoods on randomized sequences, classified `HYBRID_CHUNK` at a
    time; the seminorm must be multiplicative and restrict to ``|t| = r``
    on the hybrid circle.
    """
    n_seq = cfg.n_polys
    verdicts: list[CheckVerdict] = []
    ks = np.arange(1, 60)
    bad = 0
    for zeta in (0.5, 1.0, 2.0):
        w = zeta / (1.0 + zeta)
        seq = np.column_stack((2.0**-ks, 2.0 ** -(zeta * ks)))
        bad += not hybrid_converges(seq, w)
        bad += hybrid_converges(seq, min(w + 0.1, 1.0))
        bad += not basis_neighborhood_converges(seq, w)
    verdicts.append(
        exact_check(
            "power-sequence-limits",
            bad,
            "sequences (2^-k, 2^-zeta k) converge to zeta/(1+zeta) for zeta in {1/2, 1, 2}",
        )
    )

    rng = np.random.default_rng(cfg.seed)
    mismatch = disagree = 0
    for start in range(0, n_seq, HYBRID_CHUNK):
        w_star, kind, pts = _random_bidisc_sequences(rng, min(HYBRID_CHUNK, n_seq - start))
        a = hybrid_converges(pts, w_star)
        mismatch += int((a != (kind == 0)).sum())
        disagree += int((a != basis_neighborhood_converges(pts, w_star)).sum())
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
    return Outcome(verdicts, {"hybrid-check.json": [dataclasses.asdict(v) for v in verdicts]})


def _random_laurent(rng: np.random.Generator) -> LaurentSeriesPoly:
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        exp = int(rng.integers(-3, 4))
        terms[exp] = complex(rng.normal(), rng.normal())
    f = LaurentSeriesPoly.from_dict(terms)
    if f.is_zero:
        return LaurentSeriesPoly.monomial(0)
    return f


def _run_skeleton_check(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    model, anchor_from_file, rho_from_file, _ = loaded
    anchor = cfg.anchor if cfg.anchor is not None else anchor_from_file
    if cfg.rho is not None and anchor is None:
        raise ConfigError(
            f"--rho {cfg.rho:g} needs an anchor cell: give --anchor or a residue_anchor in the model file"
        )
    dual = build_dual_complex(model)
    sk = barycentric_subdivide(dual) if cfg.subdivide else TriangulatedSkeleton.from_dual_complex(dual)
    report = pseudomanifold_check(sk)
    rows = [
        {
            "cell": c.cell_id,
            "vertices": " ".join(c.vertices),
            "multiplicities": " ".join(str(m) for m in c.multiplicities),
            "b_sigma": c.b_sigma,
        }
        for c in sk.cells
    ]
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
    rho = cfg.rho if cfg.rho is not None else rho_from_file
    rho = 1.0 if rho is None else rho
    if anchor is not None and cfg.subdivide:
        ids = {c.cell_id for c in sk.cells}
        if anchor not in ids:
            # An anchor naming a face of the original complex maps to the
            # subdivided cells whose flag terminates at that face; pick the
            # first for determinism (the magnitude is constant anyway).
            children = sorted(i for i in ids if i == anchor or i.endswith("<" + anchor))
            if children:
                anchor = children[0]
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
    name = f"skeleton-{_slug(cfg)}"
    return Outcome(verdicts, {f"{name}.csv": rows, f"{name}.json": summary})


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
    """Twisted chart: mass converges to pi; residual closed form is exact.

    On the chart ``b = (1, 1)``, ``a = (0, 1)`` the active face is the vertex
    ``x_0``, and the sampler draws ``y_1`` uniform on ``[0, L]``, ``L = log
    1/|t|``, with weight ``2 pi L e^{-2 y_1}``.  The finite-``t`` mass is
    therefore ``2 pi integral_0^L e^{-2 y} dy = pi (1 - e^{-2L}) = pi (1 -
    |t|^2)``: at ``t = 1e-6`` it differs from ``pi`` by about ``3e-12``,
    far below any standard error, so ``twisted-mass-pi`` is a z-score
    against ``pi`` with the pencil's limit of 4.  Its standard error is
    ``pi sqrt((L - 1) / n)``: 0.51% of ``pi`` at full size (a limit of
    about 2.0%) and 1.6% at ``--quick``.
    """
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
        stat_check(
            "twisted-mass-pi",
            sigmas(res.mass - math.pi, res.stderr),
            f"normalized mass {res.mass:.5f} +- {res.stderr:.2g} vs pi at t = 1e-6",
            limit=4.0,
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
    """The ``polar-check`` runner at its defaults.

    Both identities run on lattice rules of fixed size, so ``quick`` changes nothing.
    """
    return _run_polar_check(ExperimentConfig(command="polar-check", seed=seed), None).verdicts


def suite_base_change(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Exact splitting and pushforward identities for every small b-vector and degree."""
    bad_split = bad_push = checked = 0
    for length in (1, 2, 3):
        for b in product(range(1, 5), repeat=length):
            for m in range(1, 7):
                checked += 1
                if not face_base_change(b, m).consistent:
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
    """Triangle degeneration at desk scale: equal edges, uniform edges, constant residues.

    The budgets give 16 shifts of the Fibonacci rules of 2584 points
    (248,064 evaluations) and, when ``quick``, 987 points (94,752).
    """
    pen = HypersurfacePencil.coordinate()
    n = 100_000 if quick else 250_000
    res = sample_pencil(pen, 1e-5, n, seed, bins=25, threads=threads)
    verdicts = _edge_verdicts(res, "pencil-edge-masses-equal", "pencil-edge-ks", 0.02)
    sk = TriangulatedSkeleton.from_dual_complex(build_dual_complex(coordinate_pencil(2)))
    verdicts.append(_residue_verdict(sk, "E0&E1", 1.0, "pencil-residue-propagation-constant")[0])
    return verdicts


def suite_hybrid(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """The ``hybrid-check`` runner at its defaults; 200 random sequences when quick."""
    cfg = ExperimentConfig(command="hybrid-check", seed=seed, n_polys=200 if quick else None)
    return _run_hybrid_check(cfg, None).verdicts


def suite_regression(seed: int = 0, quick: bool = False, threads: int = 1) -> list[CheckVerdict]:
    """Non-semistable skeleton: edge weights ``1 / (b_i b_j)``, unequal for unequal multiplicities."""
    model = simplex_model((1, 2, 4), name="non-semistable-cycle", boundary=True)
    measure = assemble_limit_measure(model)
    weights = {e.face.id_string(): e.weight for e in measure.entries}
    gap = max(abs(e.weight - 1 / math.prod(e.face.simplex.b)) for e in measure.entries)
    verdicts = [
        exact_check(
            "non-semistable-weights-non-uniform",
            gap,
            f"edge weights {weights} against the exact 1/(b_i b_j): 1/2, 1/4, 1/8",
        )
    ]

    semistable = simplex_model((1, 1, 1), name="semistable-cycle", boundary=True)
    u_weights = [e.weight for e in assemble_limit_measure(semistable).entries]
    verdicts.append(
        exact_check(
            "semistable-weights-uniform",
            max(abs(w - 1) for w in u_weights),
            f"edge weights {u_weights} against the exact 1 of reduced multiplicities",
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


def _run_verify(cfg: ExperimentConfig, loaded: Loaded | None) -> Outcome:
    if cfg.suite != "all" and cfg.suite not in SUITES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; choose from {sorted(SUITES)} or 'all'")
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    verdicts: list[CheckVerdict] = []
    timings: list[tuple[str, float]] = []
    for name in names:
        t0 = time.perf_counter()
        verdicts.extend(SUITES[name](seed=cfg.seed, quick=cfg.quick, threads=cfg.threads))
        timings.append((f"verify.{name}", time.perf_counter() - t0))
    return Outcome(verdicts, {}, timings)


# ---------------------------------------------------------------------------
# the command table: one row per subcommand, one flag entry per config field

Flags = Mapping[str, Mapping[str, object]]  # flag -> its argparse keywords


class Command(NamedTuple):
    """A subcommand: its runner, its help line, and each config field it reads.

    ``reads`` maps each field to the default the command applies: ``None``
    leaves it unset, `REQUIRED` makes it mandatory.  Every command also takes
    ``--out``.  ``own_flags`` spells a field this command's own way.
    """

    runner: Callable[[ExperimentConfig, Loaded | None], Outcome]
    help: str
    reads: Mapping[str, object]
    own_flags: Mapping[str, Flags] = {}

    def flags(self, name: str) -> Flags:
        return self.own_flags.get(name, FIELDS[name])

    def flag(self, name: str) -> str:
        return " or ".join(self.flags(name))


FIELDS: dict[str, Flags] = {
    "model": {
        "--preset": {"metavar": "NAME", "help": f"model preset: {sorted(PRESETS)}"},
        "--model": {"metavar": "FILE", "help": "path to a model-spec file"},
    },
    "n": {"--n": {"type": int, "help": f"projective dimension for coordinate_pencil, 1..{N_MAX}"}},
    "b": {"--b": {"help": "chart multiplicities, e.g. 1,2"}},
    "a": {"--a": {"help": "chart twist weights, e.g. 0,1/2"}},
    "epsilon": {"--epsilon": {"type": float, "help": "pencil modulus"}},
    "t_schedule": {"--t": {"metavar": "T", "help": "t value or schedule (1e-2..1e-6 or comma list)"}},
    "n_samples": {"--n-samples": {"type": int, "metavar": "N", "help": "Monte-Carlo samples"}},
    "n_polys": {"--n-polys": {"type": int, "metavar": "N", "help": "random test functions"}},
    "seed": {"--seed": {"type": int, "help": "RNG seed"}},
    "bins": {"--bins": {"type": int, "help": "histogram bins"}},
    "tolerance": {"--tolerance": {"type": float, "help": "limit of the command's tolerance checks"}},
    "threads": {"--threads": {"type": int, "help": "sampler threads (results do not depend on them)"}},
    "m": {"--m": {"type": int, "help": "degree of the base change"}},
    "residues": {"--residue": {"action": "append", "metavar": "FACE=VALUE", "help": "residual mass of a face"}},
    "anchor": {"--anchor": {"help": "anchor cell id for residue propagation"}},
    "rho": {"--rho": {"type": float, "help": "anchor residue magnitude"}},
    "subdivide": {"--subdivide": {"action": "store_true", "help": "barycentrically subdivide first"}},
    "suite": {"--suite": {"help": f"suite name, 'all', or 'list' ({sorted(SUITES)})"}},
    "quick": {"--quick": {"action": "store_true", "help": "smaller sample sizes (smoke test, not certifying)"}},
    "outdir": {"--out": {"metavar": "OUT", "help": f"output directory (default ${OUTDIR_ENV} or ./{DEFAULT_OUTDIR})"}},
}

# The chart commands take --b/--a or a model with one top face.  --tolerance
# bounds a KS distance (sample-pencil, pushforward), the relative error of c
# (fit-mass) or of each identity (polar-check).
COMMANDS: dict[str, Command] = {
    "dual-complex": Command(_run_dual_complex, "faces of the dual complex", dict(model=REQUIRED, n=2)),
    "weights": Command(_run_weights, "slopes and the active subcomplex", dict(model=REQUIRED, n=2)),
    "limit-measure": Command(_run_limit_measure, "assemble the limit measure", dict(
        model=REQUIRED, n=2, residues=())),
    "base-change": Command(_run_base_change, "exact base-change arithmetic", dict(
        model=REQUIRED, n=2, m=REQUIRED)),
    "sample": Command(_run_sample_chart, "Monte-Carlo fiber mass on a chart", dict(
        model=None, b=None, a=None, t_schedule=REQUIRED, n_samples=100_000, seed=REQUIRED, threads=1)),
    "sample-pencil": Command(_run_sample_pencil, "Monte-Carlo fiber mass on a pencil of plane cubics", dict(
        model=REQUIRED, t_schedule=REQUIRED, n_samples=100_000, bins=20, epsilon=0.1, tolerance=0.02,
        seed=REQUIRED, threads=1), own_flags={"model": {"--preset": {
            "metavar": "NAME", "choices": HypersurfacePencil.PRESETS,
            "help": f"pencil preset: {list(HypersurfacePencil.PRESETS)}"}},
        "n_samples": {"--n-samples": {"type": int, "metavar": "N", "help": (
            "evaluation budget, at least 96: 6 routes x 16 shifts of the largest Fibonacci "
            "lattice rule of at most N / 96 points")}}}),
    "pushforward": Command(_run_pushforward, "histogram of the tropical image", dict(
        model=None, b=None, a=None, t_schedule=REQUIRED, n_samples=100_000, bins=50, tolerance=0.02,
        seed=REQUIRED, threads=1)),
    "fit-mass": Command(_run_fit_mass, "fit the mass asymptotics", dict(
        model=None, b=None, a=None, t_schedule=REQUIRED, n_samples=100_000, tolerance=0.02,
        seed=REQUIRED, threads=1)),
    "polar-check": Command(_run_polar_check, "polar decomposition identities", dict(
        n_polys=10, tolerance=0.01, seed=REQUIRED)),
    "hybrid-check": Command(_run_hybrid_check, "limit-topology and seminorm checks", dict(
        n_polys=1000, seed=REQUIRED), own_flags={"n_polys": {"--n-sequences": {
            "type": int, "metavar": "N", "help": "random sequences"}}}),
    "skeleton-check": Command(_run_skeleton_check, "pseudomanifold and residue checks", dict(
        model=REQUIRED, n=2, subdivide=False, anchor=None, rho=None)),
    "verify": Command(_run_verify, "named verification suites", dict(
        suite=REQUIRED, quick=False, seed=REQUIRED, threads=1)),
}


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch a validated configuration, write its artifacts and report, return the report.

    This is the only place that writes files: each artifact as CSV when its
    name ends in ``.csv`` and as JSON otherwise, in the runner's order.
    """
    out = Path(config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    loaded = _load_model(config) if config.model is not None else None
    outcome = COMMANDS[config.command].runner(config, loaded)
    paths = []
    for name, payload in outcome.artifacts.items():
        path = out / name
        (write_csv if path.suffix == ".csv" else write_json)(path, payload)
        paths.append(str(path))
    elapsed = time.perf_counter() - t0
    report = RunReport(
        config=config,
        content_hash=_content_hash(config, loaded[3] if loaded else b""),
        verdicts=tuple(outcome.verdicts),
        timings=((config.command, elapsed), *outcome.stages),
        artifacts=tuple(paths),
    )
    write_json(report.path, report.to_json())
    return report


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    """One subparser per row of `COMMANDS`, with exactly the flags of the fields it reads."""
    description = "Exact skeletal limit measures of degenerating volume forms, with Monte-Carlo verification."
    parser = argparse.ArgumentParser(prog="tropmass", description=description, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, row in COMMANDS.items():
        p = sub.add_parser(command, help=row.help, allow_abbrev=False)
        for name, default in (*row.reads.items(), ("outdir", None)):
            flags = row.flags(name)
            target = p.add_mutually_exclusive_group() if len(flags) > 1 else p
            note = " (required)" if default is REQUIRED else f" (default {default})" if default else ""
            for flag, kwargs in flags.items():
                target.add_argument(flag, dest=name, **{**kwargs, "help": kwargs["help"] + note})
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
    except INPUT_ERRORS as err:
        print(f"[error] {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    for v in report.verdicts:
        status = "pass" if v.passed else "FAIL"
        print(f"[{status}] {v.name}: {v.detail} (discrepancy {v.discrepancy:.4g}, limit {v.limit:g})")
    print(f"report: {report.path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
