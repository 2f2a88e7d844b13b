"""Monte-Carlo integration of residue volume forms on plane-curve pencils.

Two cubic pencils in the projective plane are supported: the family
``t eps (z0^3 + z1^3 + z2^3) + z0 z1 z2 = 0`` degenerating to the coordinate
triangle, and the family ``z0^3 + z1^3 + z2^3 + eps t z0 z1 z2 = 0`` staying
smooth at ``t = 0``.  Both reduce in each max-coordinate affine patch to the
symmetric equation ``A (1 + u^3 + v^3) + B u v = 0``; the holomorphic residue
form is ``du / (dF/dv)`` and glues across patches, so the fiber volume
``nu_t = integral |eta_t|^2`` splits into the three patch contributions.

Each patch is integrated by two-route multiple importance sampling: one route
draws ``u`` (log-uniformly on an annulus whose inner radius is set by the
coverage bound ``|u v| >= |A / B| / 2`` away from the unit circles) and
root-solves the cubic for ``v``; the mirror route swaps the roles.  The
balance-heuristic weight ``1 / (q_u + q_v)`` stays bounded at ramification
points of either projection, which is where the plain single-route estimator
has infinite variance.  Roots come from batched companion-matrix eigenvalues
polished by two Newton steps; points whose relative residual exceeds 1e-10
are excluded and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .measure import TWO_PI
from .sampler import _map_shards, _shard_counts, ks_statistic, uniform_cdf

RESIDUAL_TOLERANCE = 1e-10
_STRATA = 16


class PencilError(ValueError):
    """Invalid pencil configuration or parameter."""


@dataclass(frozen=True)
class HypersurfacePencil:
    """A one-parameter anticanonical pencil of plane curves.

    ``preset`` selects the degeneration type, ``n`` the ambient projective
    dimension (sampling is implemented for ``n = 2``), ``epsilon`` the pencil
    modulus.
    """

    preset: str
    n: int = 2
    epsilon: float = 0.1

    PRESETS: ClassVar[tuple[str, ...]] = ("coordinate_pencil", "fermat_smooth")

    def __post_init__(self) -> None:
        if self.preset not in self.PRESETS:
            raise PencilError(f"unknown preset {self.preset!r}")
        if self.n < 1:
            raise PencilError("projective dimension must be at least 1")
        if not 0 < self.epsilon <= 0.5:
            raise PencilError("epsilon must lie in (0, 0.5]")

    @staticmethod
    def coordinate(n: int = 2, epsilon: float = 0.1) -> "HypersurfacePencil":
        return HypersurfacePencil("coordinate_pencil", n, epsilon)

    @staticmethod
    def fermat(n: int = 2, epsilon: float = 0.1) -> "HypersurfacePencil":
        return HypersurfacePencil("fermat_smooth", n, epsilon)

    def coefficients(self, t: complex) -> tuple[complex, complex]:
        """The pair ``(A, B)`` of ``A (z0^3+z1^3+z2^3) + B z0 z1 z2``."""
        if self.preset == "coordinate_pencil":
            return t * self.epsilon, 1.0 + 0j
        return 1.0 + 0j, self.epsilon * t

    @property
    def singular_radius(self) -> float:
        """Smallest |t| at which a fiber acquires a singular point.

        The cubic ``sum z_i^3 + psi z0 z1 z2`` is singular exactly when
        ``psi^3 = -27`` (or at the triangle ``psi = infinity``), giving
        ``|psi| = 3``.
        """
        if self.preset == "coordinate_pencil":
            # psi = B / A = 1 / (t eps).
            return 1.0 / (3.0 * self.epsilon)
        # psi = eps t.
        return 3.0 / self.epsilon

    @property
    def patch_labels(self) -> tuple[str, ...]:
        """Per-patch labels: for the triangle degeneration, the dual edge it sees."""
        if self.preset == "coordinate_pencil":
            out = []
            for k in range(3):
                i, j = sorted(set(range(3)) - {k})
                out.append(f"E{i}&E{j}")
            return tuple(out)
        return ("patch-0", "patch-1", "patch-2")

    @property
    def has_tropical_edges(self) -> bool:
        return self.preset == "coordinate_pencil"

    def validate_t(self, t: complex) -> complex:
        t = complex(t)
        if not 0 < abs(t) <= 0.5:
            raise PencilError("need 0 < |t| <= 0.5")
        if abs(t) > self.singular_radius / 3.0:
            raise PencilError(
                f"|t| = {abs(t)} too close to the singular radius "
                f"{self.singular_radius}"
            )
        return t


@dataclass(frozen=True)
class PatchEstimate:
    """Contribution of one max-coordinate patch to the fiber volume."""

    label: str
    mass_raw: float
    stderr_raw: float
    mass: float
    stderr: float
    ks_uniform: float | None
    n_points: int
    hist_masses: np.ndarray
    hist_edges: np.ndarray
    values: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class PencilSampleResult:
    """Fiber volume of a pencil member, split by patch / dual edge."""

    preset: str
    epsilon: float
    t: complex
    n_samples: int
    n_failures: int
    patches: tuple[PatchEstimate, ...]
    gradient_min: float
    seed: int

    @property
    def total_raw(self) -> float:
        return math.fsum(p.mass_raw for p in self.patches)

    @property
    def total_raw_stderr(self) -> float:
        return math.sqrt(math.fsum(p.stderr_raw**2 for p in self.patches))

    @property
    def total_normalized(self) -> float:
        """``nu_t / (2 pi log 1/|t|)`` — the quantity converging to the limit mass."""
        return self.total_raw / (TWO_PI * math.log(1.0 / abs(self.t)))

    @property
    def total_normalized_stderr(self) -> float:
        return self.total_raw_stderr / (TWO_PI * math.log(1.0 / abs(self.t)))


@dataclass(frozen=True)
class SmoothnessReport:
    """Discriminant clearance and sampled gradient floor for one parameter."""

    t: complex
    singular_radius: float
    gradient_min: float
    n_probe: int
    passed: bool


def _solve_symmetric_cubic(
    a_coeff: complex, b_coeff: complex, u: np.ndarray
) -> np.ndarray:
    """Roots in ``v`` of ``A (1 + u^3 + v^3) + B u v = 0`` for a batch of ``u``.

    Returns an ``(n, 3)`` array; companion-matrix eigenvalues polished by two
    Newton steps on the unscaled equation.
    """
    n = u.shape[0]
    c1 = (b_coeff / a_coeff) * u
    c0 = 1.0 + u**3
    comp = np.zeros((n, 3, 3), dtype=complex)
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 0, 2] = -c0
    comp[:, 1, 2] = -c1
    v = np.linalg.eigvals(comp)
    uu = u[:, None]
    for _ in range(2):
        f = a_coeff * (1.0 + uu**3 + v**3) + b_coeff * uu * v
        df = 3.0 * a_coeff * v**2 + b_coeff * uu
        step = np.where(np.abs(df) > 0, f / np.where(df == 0, 1.0, df), 0.0)
        v = v - step
    return v


def _annulus_density(r: np.ndarray, r_lo: float, log_scale: bool) -> np.ndarray:
    """Area density of the radial proposal on the annulus ``r_lo <= r <= 1``.

    ``log_scale`` selects the log-uniform proposal (matching the tropical
    mass of a degenerating edge); otherwise the proposal is area-uniform
    (matching the bulk of a smooth fiber).  Either way the support reaches
    down to ``r_lo``, which must sit below the ramification radii of the
    coordinate projections so that the mirror route keeps the
    multiple-importance weights bounded there.
    """
    if log_scale:
        span = math.log(1.0 / r_lo)
        dens = 1.0 / (TWO_PI * span * r**2)
    else:
        dens = np.full_like(r, 1.0 / (math.pi * (1.0 - r_lo**2)))
    return np.where((r >= r_lo) & (r <= 1.0), dens, 0.0)


def _sample_patch_route(
    a_coeff: complex,
    b_coeff: complex,
    m: int,
    r_lo: float,
    log_scale: bool,
    rng: np.random.Generator,
) -> dict:
    """One route of the two-route estimator on one patch.

    Draws ``u`` on the annulus (stratified over sub-annuli of equal proposal
    mass, i.e. equal predicted measure), solves for ``v``, filters to the
    patch region ``|u| <= 1, |v| <= 1``, and weights by the balance heuristic
    over both routes.  By the ``u <-> v`` symmetry of the equation the mirror
    route is this function with fresh randomness (it sees the reflected edge
    coordinate, which the exactly symmetric fiber measure renders harmless).
    """
    strata = np.repeat(np.arange(_STRATA), _shard_counts(m, _STRATA))
    quantile = (strata + rng.uniform(size=m)) / _STRATA
    if log_scale:
        x = quantile * math.log(1.0 / r_lo)
        rad = np.exp(-x)
    else:
        rad = np.sqrt(r_lo**2 + quantile * (1.0 - r_lo**2))
    u = rad * np.exp(1j * TWO_PI * rng.uniform(size=m))
    v = _solve_symmetric_cubic(a_coeff, b_coeff, u)

    uu = u[:, None]
    f = a_coeff * (1.0 + uu**3 + v**3) + b_coeff * uu * v
    scale = np.abs(a_coeff) * (1.0 + np.abs(uu) ** 3 + np.abs(v) ** 3) + np.abs(
        b_coeff * uu * v
    )
    residual_ok = np.abs(f) <= RESIDUAL_TOLERANCE * scale
    in_region = np.abs(v) <= 1.0
    fail_count = int(np.sum(in_region & ~residual_ok))
    keep = in_region & residual_ok

    fv = 3.0 * a_coeff * v**2 + b_coeff * uu
    fu = 3.0 * a_coeff * uu**2 + b_coeff * v
    with np.errstate(divide="ignore", invalid="ignore"):
        q_u = _annulus_density(np.abs(uu), r_lo, log_scale) * np.abs(fv) ** 2
        q_v = _annulus_density(np.abs(v), r_lo, log_scale) * np.abs(fu) ** 2
        contrib = np.where(keep, 1.0 / (q_u + q_v), 0.0)
        w_edge = np.log(1.0 / np.abs(uu * np.ones_like(v))) / np.log(
            1.0 / np.abs(uu * v)
        )

    per_sample = contrib.sum(axis=1)
    grad = np.sqrt(np.abs(fu) ** 2 + np.abs(fv) ** 2) / (
        np.abs(a_coeff) + np.abs(b_coeff)
    )
    grad_min = float(grad[keep].min()) if keep.any() else math.inf
    return {
        "sum": float(per_sample.sum()),
        "sumsq": float((per_sample**2).sum()),
        "m": m,
        "failures": fail_count,
        "grad_min": grad_min,
        "values": w_edge[keep],
        "weights": contrib[keep],
        "n_points": int(keep.sum()),
    }


def sample_pencil(
    pencil: HypersurfacePencil,
    t: complex,
    n: int,
    seed: int,
    *,
    bins: int = 20,
    shards: int = 1,
    threads: int = 1,
) -> PencilSampleResult:
    """Estimate the residue-form volume of the fiber at ``t``, split by patch.

    ``n`` samples are divided evenly over 3 patches x 2 routes (x shards).
    For the triangle degeneration each patch contribution is the mass of one
    dual-complex edge, and the pushforward coordinate
    ``log|z_i/z_k| / log|z_i z_j / z_k^2|`` is binned and tested for
    uniformity.  Root-solving failures are excluded and counted.
    """
    if pencil.n != 2:
        raise NotImplementedError("sampling is implemented for plane curves (n = 2)")
    t = pencil.validate_t(t)
    if n < 6 * _STRATA * max(1, shards):
        raise ValueError("sample count too small for the stratified layout")
    a_coeff, b_coeff = pencil.coefficients(t)
    ratio = abs(a_coeff / b_coeff)
    # The inner proposal radius must clear both the coverage bound
    # (|u v| is pinned near |A/B| on a degenerating fiber) and the
    # ramification radii ~ sqrt(|B/A| or |A/B|) of either projection.
    r_lo = min(ratio, 1.0 / ratio, 1.0) / 4.0
    log_scale = pencil.has_tropical_edges

    seqs = np.random.SeedSequence(seed).spawn(6 * shards)
    m_route = _shard_counts(n, 6)

    def run(job: int) -> tuple[int, dict]:
        route = job // shards
        m = _shard_counts(m_route[route], shards)[job % shards]
        out = _sample_patch_route(
            a_coeff, b_coeff, m, r_lo, log_scale, np.random.default_rng(seqs[job])
        )
        return route, out

    results = _map_shards(run, 6 * shards, threads)

    lam_norm = TWO_PI * math.log(1.0 / abs(t))
    patches: list[PatchEstimate] = []
    total_failures = 0
    grad_min = math.inf
    for k, label in enumerate(pencil.patch_labels):
        mass = 0.0
        var = 0.0
        vals: list[np.ndarray] = []
        wts: list[np.ndarray] = []
        n_pts = 0
        for route in (2 * k, 2 * k + 1):
            parts = [out for r, out in results if r == route]
            m = sum(p["m"] for p in parts)
            s = sum(p["sum"] for p in parts)
            sq = sum(p["sumsq"] for p in parts)
            mean = s / m
            mass += mean
            var += max(sq / m - mean**2, 0.0) / m
            total_failures += sum(p["failures"] for p in parts)
            grad_min = min(grad_min, min(p["grad_min"] for p in parts))
            n_pts += sum(p["n_points"] for p in parts)
            for p in parts:
                vals.append(p["values"])
                wts.append(p["weights"] / (m * lam_norm))
        values = np.concatenate(vals)
        weights = np.concatenate(wts)
        stderr = math.sqrt(var)
        ks = None
        if pencil.has_tropical_edges and values.size:
            ks = float(ks_statistic(values, weights, uniform_cdf(0.0, 1.0)))
        hist, hist_edges = np.histogram(
            values, bins=bins, range=(0.0, 1.0), weights=weights
        )
        patches.append(
            PatchEstimate(
                label=label,
                mass_raw=mass,
                stderr_raw=stderr,
                mass=mass / lam_norm,
                stderr=stderr / lam_norm,
                ks_uniform=ks,
                n_points=n_pts,
                hist_masses=hist,
                hist_edges=hist_edges,
                values=values,
                weights=weights,
            )
        )
    return PencilSampleResult(
        preset=pencil.preset,
        epsilon=pencil.epsilon,
        t=t,
        n_samples=n,
        n_failures=total_failures,
        patches=tuple(patches),
        gradient_min=grad_min,
        seed=seed,
    )


def smoothness_check(
    pencil: HypersurfacePencil,
    t: complex,
    n_probe: int = 20_000,
    seed: int = 0,
) -> SmoothnessReport:
    """Verify the sampled fiber stays clear of the discriminant.

    Combines the closed-form singular radius of the cubic pencil with a
    Monte-Carlo probe of the gradient norm along the fiber.
    """
    t = complex(t)
    probe = sample_pencil(pencil, t, max(n_probe, 6 * _STRATA), seed)
    passed = (
        abs(t) <= pencil.singular_radius / 3.0
        and math.isfinite(probe.gradient_min)
        and probe.gradient_min > 1e-8
    )
    return SmoothnessReport(
        t=t,
        singular_radius=pencil.singular_radius,
        gradient_min=probe.gradient_min,
        n_probe=probe.n_samples,
        passed=passed,
    )


def predicted_edge_mass(pencil: HypersurfacePencil) -> float:
    """Limit mass carried by each dual edge of the triangle degeneration.

    Near each triangle vertex the curve is the local model ``u v = const``
    with unit residual factor, so each edge carries
    ``R * b^{-1} * Vol = 1``.
    """
    if not pencil.has_tropical_edges:
        raise PencilError("the smooth pencil has no tropical edges")
    return 1.0


def elliptic_lattice_covolume() -> float:
    """Covolume of the period lattice of the smooth cubic ``sum z_i^3 = 0``.

    The curve is isomorphic to ``y^2 = x^3 - 432``, whose real half-period is
    ``(1/3) 432^(-1/6) B(1/6, 1/2)``; the lattice is hexagonal, so the
    covolume is ``Omega^2 sqrt(3)/2``.
    """
    omega = (
        (2.0 / 3.0)
        * 432.0 ** (-1.0 / 6.0)
        * math.gamma(1.0 / 6.0)
        * math.gamma(0.5)
        / math.gamma(2.0 / 3.0)
    )
    return omega * omega * math.sqrt(3.0) / 2.0
