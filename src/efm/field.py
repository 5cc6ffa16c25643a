"""Exact electrostatic fields of point-charge plates in D+1 dimensions.

Direct summation over weighted sample charges; this is the ground-truth
oracle used both for training targets and for transport on small problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import FieldError

# Norms below this are treated as a vanishing field when normalizing.
TINY_FIELD_NORM = 1e-30

# Above this ambient dimension the inverse-power weights c / r**d are formed
# in log space with per-row shifts: r**d leaves float range long before the
# normalized field direction stops being meaningful. At or below it the plain
# powers stay in range and are cheaper to form.
LOG_ACCUMULATION_DIM = 32

_PAIR_BLOCK = 4_000_000  # max pairwise entries materialized at once


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit n-sphere embedded in R^(n+1).

    S_n = 2 pi^((n+1)/2) / Gamma((n+1)/2); S_1 = 2 pi, S_2 = 4 pi.
    """
    if n < 0:
        raise ValueError("sphere dimension must be nonnegative")
    half = (n + 1) / 2.0
    return float(2.0 * np.exp(half * np.log(np.pi) - gammaln(half)))


def point_charge_field(x, source, q: float, field_epsilon: float = 0.0) -> np.ndarray:
    """Field of a single point charge q at `source`, evaluated at `x`.

    E(x) = q / S_{d-1} * (x - source) / (|x - source|^2 + eps^2)^(d/2),
    which is the exact inverse-power law when field_epsilon is zero.
    """
    x = np.asarray(x, dtype=float)
    source = np.asarray(source, dtype=float)
    d = x.shape[-1]
    diff = x - source
    r2 = np.sum(diff * diff, axis=-1, keepdims=True) + field_epsilon ** 2
    return q / sphere_surface_area(d - 1) * diff / r2 ** (0.5 * d)


def scaled_superposition(points, sources, charges, field_epsilon: float = 0.0,
                         sources_sq=None):
    """Direct-sum field of many charges, split as (vec, log_scale).

    The true field is vec * exp(log_scale)[:, None]. Every dimension uses
    one identity: with per-pair weights w_ij = c_j / r_ij^d,
    sum_j w_ij (p_i - s_j) = p_i * sum_j w_ij - (W @ S)_i, two BLAS-friendly
    terms. For ambient dimension <= LOG_ACCUMULATION_DIM the weights are the
    plain powers and log_scale = 0. Above it only the weights change: they
    are formed in log space and shifted by their row maximum, which is
    returned as log_scale, so the direction stays representable even when
    the magnitude under- or overflows. Every float temporary is a
    (rows, n) float64 block of at most _PAIR_BLOCK entries, whatever the
    dimension. `sources_sq` may carry precomputed row norms of `sources`
    for hot loops. With field_epsilon == 0 an evaluation point on a charge,
    up to rounding, raises FieldError.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    charges = np.asarray(charges, dtype=float)
    m, d = points.shape
    if sources.shape[1] != d:
        raise FieldError("points and sources must share a dimension")
    n = sources.shape[0]
    inv_area = 1.0 / sphere_surface_area(d - 1)
    eps2 = field_epsilon * field_epsilon
    vec = np.empty((m, d))
    log_scale = np.zeros(m)
    block = max(1, _PAIR_BLOCK // max(n, 1))
    s_sq = sources_sq if sources_sq is not None else np.einsum("ij,ij->i", sources, sources)
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        blk = points[i0:i1]
        blk_sq = np.einsum("ij,ij->i", blk, blk)[:, None]
        # pairwise squared distances via the quadratic expansion; rounding
        # can push tiny values slightly negative, so clamp at zero
        r2 = blk_sq + s_sq[None, :] - 2.0 * (blk @ sources.T)
        np.maximum(r2, 0.0, out=r2)
        # an r2 within the expansion's rounding error of 0 is a point on a charge
        if eps2 == 0.0 and np.any(r2 <= 4.0 * np.finfo(float).eps * (blk_sq + s_sq[None, :])):
            raise FieldError("evaluation point coincides with a charge and field_epsilon is 0")
        r2 += eps2
        if d > LOG_ACCUMULATION_DIM:
            with np.errstate(divide="ignore"):
                logw = np.log(np.abs(charges))[None, :] - (0.5 * d) * np.log(r2)
            shift = np.max(logw, axis=1)
            shift[~np.isfinite(shift)] = 0.0
            w = np.sign(charges)[None, :] * np.exp(logw - shift[:, None])
            log_scale[i0:i1] = shift
        elif d % 2 == 0:
            w = charges[None, :] / r2 ** (d // 2)
        else:
            w = charges[None, :] / (r2 ** (d // 2) * np.sqrt(r2))
        vec[i0:i1] = inv_area * (blk * w.sum(axis=1)[:, None] - w @ sources)
    return vec, log_scale


def superposition_field(points, sources, charges, field_epsilon: float = 0.0) -> np.ndarray:
    """Direct-sum field of many point charges at many evaluation points."""
    squeeze = np.asarray(points).ndim == 1
    vec, log_scale = scaled_superposition(points, sources, charges, field_epsilon)
    out = vec * np.exp(log_scale)[:, None]
    return out[0] if squeeze else out


def one_sided_ez(field_fn, x, plate_z: float, eps: float):
    """One-sided E_z limits at m points x (m, D) of a plate at z=plate_z:
    (E_z at z=plate_z - eps, E_z at z=plate_z + eps), two length-m arrays
    from one call of the batch callable `field_fn` on 2m rows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.repeat([plate_z - eps, plate_z + eps], len(x))[:, None]
    ez = field_fn(np.hstack([np.vstack([x, x]), z]))[:, -1]
    return ez[:len(x)], ez[len(x):]


def normalize_rows(vals):
    """Unit rows plus a degeneracy mask.

    A row is degenerate when its direction is numerically meaningless
    (norm below TINY_FIELD_NORM in the given representation); rows whose
    absolute magnitude underflows but arrive pre-scaled (the `vec` of a
    (vec, log_scale) pair) still carry a valid direction and are
    normalized normally.
    """
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    norms = np.linalg.norm(vals, axis=1)
    degenerate = norms < TINY_FIELD_NORM
    unit = np.zeros_like(vals)
    ok = ~degenerate
    unit[ok] = vals[ok] / norms[ok, None]
    return unit, degenerate


@dataclass(frozen=True)
class PlateSet:
    """A plate's charge distribution: weighted samples at a fixed z offset.

    Weights default to uniform 1/N so the total charge is exactly `sign`.
    """

    samples: np.ndarray
    z_offset: float
    sign: int
    weights: np.ndarray | None = None

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.size == 0:
            raise FieldError("plate samples must be nonempty")
        if not np.all(np.isfinite(samples)):
            raise FieldError("plate samples must be finite")
        if self.sign not in (+1, -1):
            raise FieldError("plate sign must be +1 or -1")
        if self.weights is None:
            weights = np.full(len(samples), 1.0 / len(samples))
        else:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != (len(samples),):
                raise FieldError("weights must match the number of samples")
            if np.any(weights < 0):
                raise FieldError("weights must be nonnegative")
            total = weights.sum()
            if not np.isclose(total, 1.0, rtol=1e-9, atol=1e-12):
                raise FieldError("weights must sum to 1")
        samples.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def extended(self) -> np.ndarray:
        """Samples lifted to (D+1)-dim points at this plate's z offset."""
        cached = self.__dict__.get("_cached_extended")
        if cached is None:
            cached = np.hstack([self.samples, np.full((self.n, 1), self.z_offset)])
            cached.flags.writeable = False
            object.__setattr__(self, "_cached_extended", cached)
        return cached


@dataclass(frozen=True)
class EmpiricalField:
    """Two-plate field: positive plate at z=0, negative plate at z=plate_gap.

    `mc_subsample`, when set, makes each evaluation use a uniform
    without-replacement subsample of each plate with weights renormalized
    to total charge +-1 (the Monte Carlo estimate of the plate integrals).
    """

    plate_pos: PlateSet
    plate_neg: PlateSet
    field_epsilon: float = 1e-4
    mc_subsample: int | None = None

    def __post_init__(self):
        if self.plate_pos.sign != +1 or self.plate_neg.sign != -1:
            raise FieldError("plate signs must be +1 (pos) and -1 (neg)")
        if self.plate_pos.z_offset != 0.0:
            raise FieldError("positive plate must sit at z=0")
        if not self.plate_neg.z_offset > 0:
            raise FieldError("negative plate must sit at z=plate_gap > 0")
        if self.plate_pos.dim != self.plate_neg.dim:
            raise FieldError("plates must share the data dimension")
        if self.mc_subsample is not None and self.mc_subsample < 1:
            raise FieldError("mc_subsample must be a positive integer")

    @property
    def dim(self) -> int:
        return self.plate_pos.dim

    @property
    def plate_gap(self) -> float:
        return self.plate_neg.z_offset

    def _static_sources(self):
        cached = self.__dict__.get("_cached_sources")
        if cached is None:
            sources = np.vstack([self.plate_pos.extended(), self.plate_neg.extended()])
            charges = np.concatenate([self.plate_pos.weights, -self.plate_neg.weights])
            cached = (sources, charges, np.einsum("ij,ij->i", sources, sources))
            object.__setattr__(self, "_cached_sources", cached)
        return cached

    def _sources(self, stream):
        """Charges to sum over: (sources, charges, sources_sq).

        `sources_sq` holds the squared row norms of `sources`, in both
        branches. Without `mc_subsample` these are every sample of both
        plates (cached). With it, each plate contributes a without-replacement
        draw of up to `mc_subsample` rows from `stream`, and the drawn
        charges are renormalized to total +1 and -1 over those rows.
        """
        if self.mc_subsample is None:
            return self._static_sources()
        if stream is None:
            raise FieldError("mc_subsample requires a random stream")
        ext_p, w_p = self._draw(self.plate_pos, "positive", stream)
        ext_n, w_n = self._draw(self.plate_neg, "negative", stream)
        sources = np.vstack([ext_p, ext_n])
        charges = np.concatenate([w_p, -w_n])
        return sources, charges, np.einsum("ij,ij->i", sources, sources)

    def _draw(self, plate: PlateSet, name: str, stream):
        idx = stream.choice(plate.n, size=min(self.mc_subsample, plate.n), replace=False)
        total = plate.weights[idx].sum()
        if total == 0.0:
            raise FieldError(f"mc_subsample drew only zero-weight samples of the {name} plate")
        return plate.extended()[idx], plate.weights[idx] / total

    def scaled_evaluate(self, points, stream=None):
        """(vec, log_scale) form of evaluate; see scaled_superposition."""
        sources, charges, sources_sq = self._sources(stream)
        return scaled_superposition(points, sources, charges, self.field_epsilon,
                                    sources_sq=sources_sq)

    def evaluate(self, points, stream=None) -> np.ndarray:
        """Field at one (D+1)-point or a batch of them, by direct summation."""
        squeeze = np.asarray(points).ndim == 1
        vec, log_scale = self.scaled_evaluate(points, stream)
        out = vec * np.exp(log_scale)[:, None]
        return out[0] if squeeze else out

    def normalized(self, points, stream=None):
        """Unit-norm field rows and the mask of degenerate (vanishing) rows."""
        vec, _ = self.scaled_evaluate(points, stream)
        return normalize_rows(vec)
