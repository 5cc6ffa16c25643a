"""Numerical checks of the electrostatic identities the transport relies on.

Every check is a pure function of a batch field callable; the suite doubles
as a CLI diagnostic (`efm verify-physics`) and as test infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import betainc

from .core import EfmError, seeded_stream
from .field import (_PAIR_BLOCK, EmpiricalField, PlateSet, one_sided_ez,
                    sphere_surface_area, superposition_field)


@dataclass
class FluxReport:
    estimate: float
    target: float
    relative_error: float
    n_samples: int
    std_error: float = float("nan")

    @classmethod
    def build(cls, estimate, target, n_samples, std_error=float("nan")):
        rel = abs(estimate - target) / max(abs(target), 1.0)
        return cls(float(estimate), float(target), float(rel), int(n_samples), float(std_error))


def _uniform_sphere(n_mc: int, dim: int, stream) -> np.ndarray:
    g = stream.standard_normal((n_mc, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def flux_through_sphere(field_fn, center, radius: float, n_mc: int, stream,
                        target: float = 0.0) -> FluxReport:
    """Monte Carlo flux of `field_fn` through a sphere.

    Uniform surface points u give flux = area * mean(E(c + r u) . u); the
    reported std_error is the plain MC standard error of that mean.
    """
    if radius <= 0:
        raise EfmError("radius must be positive")
    if n_mc < 1:
        raise EfmError("n_mc must be >= 1")
    center = np.asarray(center, dtype=float)
    dim = len(center)
    normals = _uniform_sphere(n_mc, dim, stream)
    pts = center[None, :] + radius * normals
    vals = np.einsum("ij,ij->i", field_fn(pts), normals)
    area = sphere_surface_area(dim - 1) * radius ** (dim - 1)
    est = area * vals.mean()
    se = area * vals.std(ddof=1) / np.sqrt(n_mc) if n_mc > 1 else float("nan")
    return FluxReport.build(est, target, n_mc, se)


def flux_through_box(field_fn, lo, hi, n_per_face: int, target: float = 0.0) -> FluxReport:
    """Midpoint-rule flux through an axis-aligned box.

    Each of the 2*dim faces gets an n_per_face^(dim-1) midpoint grid with
    outward normals.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or not np.all(hi > lo):
        raise EfmError("empty box")
    dim = len(lo)
    total = 0.0
    n_total = 0
    for axis in range(dim):
        others = [a for a in range(dim) if a != axis]
        axes_1d = [lo[a] + (hi[a] - lo[a]) * (np.arange(n_per_face) + 0.5) / n_per_face
                   for a in others]
        mesh = np.meshgrid(*axes_1d, indexing="ij") if others else []
        n_face = n_per_face ** len(others) if others else 1
        pts = np.empty((n_face, dim))
        for a, m in zip(others, mesh):
            pts[:, a] = m.ravel()
        face_area = np.prod([hi[a] - lo[a] for a in others]) if others else 1.0
        for side, sign in ((lo[axis], -1.0), (hi[axis], +1.0)):
            pts[:, axis] = side
            vals = field_fn(pts)[:, axis]
            total += sign * face_area * vals.mean()
            n_total += n_face
    return FluxReport.build(total, target, n_total)


def circulation(field_fn, loop_points) -> float:
    """Trapezoidal line integral of E . dl around a closed polyline."""
    pts = np.atleast_2d(np.asarray(loop_points, dtype=float))
    if len(pts) < 9:
        raise EfmError("loop must have at least 8 segments")
    if not np.allclose(pts[0], pts[-1], rtol=0, atol=1e-12):
        raise EfmError("open polyline: first point must equal last")
    vals = field_fn(pts)
    dl = np.diff(pts, axis=0)
    mid = 0.5 * (vals[:-1] + vals[1:])
    return float(np.einsum("ij,ij->", mid, dl))


@dataclass(frozen=True)
class CapSpec:
    """Spherical cap: points at angle <= polar_angle from `axis`, on the
    sphere of given center and radius."""

    center: np.ndarray
    radius: float
    axis: np.ndarray
    polar_angle: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        axis = np.asarray(self.axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axis", axis)
        if not (0 <= self.polar_angle <= np.pi):
            raise EfmError("polar_angle must lie in [0, pi]")


def cap_solid_angle(dim: int, polar_angle: float) -> float:
    """Solid angle of a spherical cap in R^dim, via the regularized
    incomplete beta closed form."""
    full = sphere_surface_area(dim - 1)
    theta = float(polar_angle)
    if theta <= 0:
        return 0.0
    if theta >= np.pi:
        return full
    if theta <= np.pi / 2:
        return 0.5 * full * float(betainc((dim - 1) / 2.0, 0.5, np.sin(theta) ** 2))
    return full - cap_solid_angle(dim, np.pi - theta)


def solid_angle_flux(field_fn, q: float, cap: CapSpec, n_mc: int, stream) -> FluxReport:
    """MC flux of a point charge at the cap's sphere center through the cap.

    Target is q * Omega / S_{dim-1}. The estimator samples the whole sphere
    and keeps the cap by an indicator, so its variance is dominated by the
    binomial cap fraction.
    """
    dim = len(cap.center)
    normals = _uniform_sphere(n_mc, dim, stream)
    inside = normals @ cap.axis >= np.cos(cap.polar_angle)
    pts = cap.center[None, :] + cap.radius * normals
    vals = np.einsum("ij,ij->i", field_fn(pts), normals) * inside
    area = sphere_surface_area(dim - 1) * cap.radius ** (dim - 1)
    est = area * vals.mean()
    se = area * vals.std(ddof=1) / np.sqrt(n_mc) if n_mc > 1 else float("nan")
    omega = cap_solid_angle(dim, cap.polar_angle)
    target = q * omega / sphere_surface_area(dim - 1)
    return FluxReport.build(est, target, n_mc, se)


def silverman_bandwidth(samples) -> float:
    """Silverman's rule-of-thumb bandwidth for a Gaussian product kernel."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, d = samples.shape
    sigma = samples.std(axis=0, ddof=1).mean()
    return float(sigma * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4)))


def gaussian_kde_density(samples, weights, bandwidth: float, eval_points) -> np.ndarray:
    """Weighted isotropic-Gaussian kernel density at the evaluation points."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    d = samples.shape[1]
    norm = (2 * np.pi * bandwidth ** 2) ** (-0.5 * d)
    out = np.empty(len(pts))
    block = max(1, _PAIR_BLOCK // max(len(samples), 1))
    for i0 in range(0, len(pts), block):
        i1 = min(i0 + block, len(pts))
        r2 = cdist(pts[i0:i1], samples, "sqeuclidean")
        out[i0:i1] = norm * (np.exp(-0.5 * r2 / bandwidth ** 2) @ weights)
    return out


@dataclass
class PlateJump:
    point: np.ndarray
    jump: float
    density_estimate: float
    residual: float


def plate_jump_residual(field: EmpiricalField, eval_points, kde_bandwidth: float | None = None,
                        limit_epsilon: float | None = None, stream=None) -> list[PlateJump]:
    """Compare the E_z jump across the positive plate with the plate density.

    For points inside the positive plate's support, the one-sided limit
    difference E_z(+eps) - E_z(-eps) should recover the local charge
    density; the report pairs each jump with a Gaussian-KDE estimate of
    that density and their residual.
    """
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if limit_epsilon is None:
        limit_epsilon = field.plate_gap * 1e-3
    if kde_bandwidth is None:
        kde_bandwidth = silverman_bandwidth(field.plate_pos.samples)
    if kde_bandwidth <= 0:
        raise EfmError("kde_bandwidth must be positive")
    e_lo, e_hi = one_sided_ez(lambda p: field.evaluate(p, stream), pts, 0.0, limit_epsilon)
    dens = gaussian_kde_density(field.plate_pos.samples, field.plate_pos.weights,
                                kde_bandwidth, pts)
    jumps = e_hi - e_lo
    return [PlateJump(p, float(j), float(d), float(j - d))
            for p, j, d in zip(pts, jumps, dens)]


# ---------------------------------------------------------------------------
# Self-contained verification suite for the CLI.

@dataclass
class CheckResult:
    check_name: str
    estimate: float
    target: float
    tolerance: float
    passed: bool
    details: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"check_name": self.check_name, "estimate": self.estimate,
             "target": self.target, "tolerance": self.tolerance, "pass": self.passed}
        d.update(self.details)
        return d


def _check(name, estimate, target, tol, **details) -> CheckResult:
    return CheckResult(name, float(estimate), float(target), float(tol),
                       bool(abs(estimate - target) <= tol), details)


def plate_system(cfg, seed: int) -> EmpiricalField:
    """512-charge Gaussian plates, N(0, s^2 I) at z=0 and N(s 1, s^2 I) at
    z=plate_gap, in the configured dimension.

    A uniform-sphere flux estimate in d = D+1 dimensions has a variance
    that grows like exp(d t^2), t = (charge distance) / (sphere radius).
    The spread s = min(1, sqrt(6 / (D (D+1)))) is 1 at D <= 2 and shrinks
    the plate radius s sqrt(D) like 1/sqrt(D+1) beyond, so the enclosure
    checks keep their D=2 variance at any D.
    """
    d = cfg.dim_d
    spread = min(1.0, np.sqrt(6.0 / (d * (d + 1))))
    stream = seeded_stream(seed, "verify/plates")
    pos = PlateSet(spread * stream.standard_normal((512, d)), 0.0, +1)
    neg = PlateSet(spread * (stream.standard_normal((512, d)) + 1.0), cfg.plate_gap, -1)
    return EmpiricalField(pos, neg, cfg.field_epsilon)


def plate_enclosure_checks(system: EmpiricalField, seed: int,
                           n_mc: int = 100_000) -> list[CheckResult]:
    """Gauss's law for the positive plate alone (flux 1) and for both plates
    (flux 0), each through a sphere of n_mc Monte Carlo points.

    The positive-plate sphere is centred at the origin with radius
    sqrt(d_in d_out), d_in and d_out the distances of the farthest positive
    and the nearest negative charge, so both clear it by the same factor.
    The neutral-pair sphere is centred between the plates with a radius of
    (2 gap + 6) sqrt((D+1) / 3), which keeps (D+1) t^2 at its D=2 value.
    """
    gap = system.plate_gap
    dim = system.dim + 1
    d_in = float(np.linalg.norm(system.plate_pos.samples, axis=1).max())  # plate at z=0
    d_out = float(np.sqrt(np.min(np.sum(system.plate_neg.samples ** 2, axis=1)) + gap ** 2))
    rep_pos = flux_through_sphere(system.evaluate, np.zeros(dim), np.sqrt(d_in * d_out),
                                  n_mc, seeded_stream(seed, "verify/plates/pos"), target=1.0)
    center_both = np.zeros(dim)
    center_both[-1] = gap / 2
    r_both = (2.0 * gap + 6.0) * max(1.0, np.sqrt(dim / 3.0))
    rep_both = flux_through_sphere(system.evaluate, center_both, r_both, n_mc,
                                   seeded_stream(seed, "verify/plates/both"), target=0.0)
    return [_check("gauss_positive_plate", rep_pos.estimate, 1.0, 0.02,
                   std_error=rep_pos.std_error),
            _check("gauss_neutral_pair", rep_both.estimate, 0.0, 0.02 * abs(rep_pos.estimate),
                   std_error=rep_both.std_error)]


def run_verification_suite(cfg, seed: int | None = None) -> list[CheckResult]:
    """Run the full diagnostic suite on a synthetic two-plate system.

    Gauss-law fluxes (point charge inside/outside, plate enclosures),
    circulation around random loops, partial-surface flux against the
    solid-angle closed form, and the plate jump vs density check.
    """
    if seed is None:
        seed = cfg.seed
    checks: list[CheckResult] = []
    gap = cfg.plate_gap

    def point_fn(source, q):
        src = np.asarray(source, dtype=float)
        return lambda pts: superposition_field(pts, src[None, :], np.array([q]), 0.0)

    # Gauss: unit point charge, inside and outside, in dims 2..4.
    for dim in (2, 3, 4):
        stream = seeded_stream(seed, f"verify/gauss/{dim}")
        src = np.full(dim, 0.2)
        rep = flux_through_sphere(point_fn(src, 1.0), np.zeros(dim), 1.5, 100_000,
                                  stream, target=1.0)
        checks.append(_check(f"gauss_sphere_inside_dim{dim}", rep.estimate, 1.0, 0.02,
                             std_error=rep.std_error))
        rep = flux_through_sphere(point_fn(src, 1.0), np.full(dim, 5.0), 1.5, 100_000,
                                  stream, target=0.0)
        checks.append(_check(f"gauss_sphere_outside_dim{dim}", rep.estimate, 0.0, 0.02,
                             std_error=rep.std_error))

    # Two-plate enclosures in the augmented dimension of the configured system.
    system = plate_system(cfg, seed)
    dim = cfg.dim_d + 1
    field_fn = system.evaluate
    checks.extend(plate_enclosure_checks(system, seed))

    # Circulation around random loops for the plate system.
    stream = seeded_stream(seed, "verify/circulation")
    worst = 0.0
    for _ in range(5):
        center = np.zeros(dim)
        center[:-1] = stream.uniform(-2, 2, size=dim - 1)
        center[-1] = stream.uniform(0.2 * gap, 0.8 * gap)
        radius = stream.uniform(0.5, min(3.0, 0.4 * gap))
        axes = np.linalg.qr(stream.standard_normal((dim, 2)))[0].T
        angles = np.linspace(0.0, 2 * np.pi, 257)
        loop = center + radius * (np.outer(np.cos(angles), axes[0])
                                  + np.outer(np.sin(angles), axes[1]))
        vals = field_fn(loop)
        scale = np.median(np.linalg.norm(vals, axis=1)) * 2 * np.pi * radius
        worst = max(worst, abs(circulation(field_fn, loop)) / scale)
    checks.append(_check("circulation_relative", worst, 0.0, 1e-3))

    # Partial-surface flux vs the solid-angle closed form.
    for dim_c, name in ((3, "hemisphere_flux"), (3, "quarter_cap_flux")):
        theta = np.pi / 2 if name == "hemisphere_flux" else np.pi / 4
        cap = CapSpec(np.zeros(dim_c), 1.0, np.eye(dim_c)[-1], theta)
        rep = solid_angle_flux(point_fn(np.zeros(dim_c), 1.0), 1.0, cap, 200_000,
                               seeded_stream(seed, f"verify/cap/{name}"))
        tol = 0.01 * rep.target if name == "hemisphere_flux" else 0.02 * rep.target
        checks.append(_check(name, rep.estimate, rep.target, tol,
                             std_error=rep.std_error))

    # Plate jump vs density on a 1-D uniform plate.
    stream = seeded_stream(seed, "verify/jump")
    n_jump = 50_000
    plate = PlateSet(stream.uniform(-1, 1, size=(n_jump, 1)), 0.0, +1)
    far_neg = PlateSet(np.zeros((1, 1)), 40.0, -1)
    jump_field = EmpiricalField(plate, far_neg, cfg.field_epsilon)
    pts = np.linspace(-0.5, 0.5, 11)[:, None]
    reports = plate_jump_residual(jump_field, pts, limit_epsilon=0.04)
    med_jump = float(np.median([r.jump for r in reports]))
    checks.append(_check("plate_jump_density", med_jump, 0.5, 0.05))

    return checks
