"""Sampling and optimization of the ratio sys_upper^2 / vol.

Charges are drawn entry-wise as r * exp(i pi phi) with phi uniform on
(0, 1) and log10 r uniform on [-3, 3], which keeps every sample inside
the standard heart and spans six decades of scale.  The optimizer is a
derivative-free coordinate pattern search: the ratio is invariant under
rescaling, so the volume is gauge-fixed to 1 and the squared systole
bound is pushed as high as it will go.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from adesystole.roots import RootSystem
from adesystole.stability import _root_moduli, _systole_upper, _volume, systole_lower

# Phases are kept this far inside (0, 1); the supremum can sit on the wall.
PHASE_MARGIN = 1e-7

# A sample counts as violating only beyond float round-off.
VIOLATION_REL_TOL = 1e-12

_LOG_R_RANGE = (-3.0, 3.0)
_HISTOGRAM_BINS = 32
_CHUNK = 8192


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for sampling and for the pattern search."""

    sample_count: int = 1000
    seed: int = 0
    restarts: int = 1
    step_init: float = 0.25
    step_min: float = 1e-9
    max_iters: int = 200

    def __post_init__(self):
        for name in ("sample_count", "seed", "restarts", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.step_min < self.step_init:
            raise ValueError(
                f"need 0 < step_min < step_init, got {self.step_min} and {self.step_init}"
            )


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of a sampling run or an optimization run.

    The per-point arrays ratios / sys_upper / sys_lower / volumes are
    indexed by sample (or by restart, for the optimizer); the histogram
    buckets cover [0, bound] and count the same points.  For sampling,
    samples_violating counts samples over the bound; for the optimizer it
    counts every ratio evaluation over the bound (each start and each
    trial move), so it is not a count of restarts.
    """

    best_ratio: float
    best_charge: np.ndarray
    samples_violating: int
    histogram: tuple[tuple[float, float, int], ...]
    bound: Fraction
    ratios: np.ndarray
    sys_upper: np.ndarray
    sys_lower: np.ndarray
    volumes: np.ndarray

    def summary(self) -> dict:
        return {
            "best_ratio": self.best_ratio,
            "best_charge": [[z.real, z.imag] for z in self.best_charge],
            "samples_violating": self.samples_violating,
            "samples": int(self.ratios.shape[0]),
            "bound": float(self.bound),
            "bound_exact": str(self.bound),
            "histogram": [
                {"lo": lo, "hi": hi, "count": count} for lo, hi, count in self.histogram
            ],
        }


def _histogram(ratios: np.ndarray, bound: float):
    edges = np.linspace(0.0, bound, _HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(np.minimum(ratios, bound), bins=edges)
    return tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(_HISTOGRAM_BINS)
    )


def _draw_charges(rng: np.random.Generator, count: int, rank: int) -> np.ndarray:
    phase = rng.uniform(0.0, 1.0, size=(count, rank))
    phase[phase == 0.0] = 0.5  # measure-zero guard: phases live in the open interval
    log_r = rng.uniform(*_LOG_R_RANGE, size=(count, rank))
    return 10.0**log_r * np.exp(1j * np.pi * phase)


def _batch_stats(rs: RootSystem, charges: np.ndarray):
    """Per-row (sys_upper, sys_lower, volume) for a block of charges."""
    roots_t = rs.complex_root_matrix.T
    sys_up = np.empty(charges.shape[0])
    sys_lo = np.empty(charges.shape[0])
    vol = np.empty(charges.shape[0])
    for start in range(0, charges.shape[0], _CHUNK):
        block = charges[start : start + _CHUNK]
        moduli = np.abs(block @ roots_t)
        sys_lo[start : start + _CHUNK] = moduli.min(axis=1)
        vol[start : start + _CHUNK] = (moduli**2).sum(axis=1) / rs.coxeter
        sys_up[start : start + _CHUNK] = np.abs(block).min(axis=1)
    return sys_up, sys_lo, vol


def sample_ratios(rs: RootSystem, cfg: SearchConfig) -> SearchResult:
    """Draw heart-compatible charges and measure the ratio on each.

    Deterministic for a given (rs, cfg); the violation count must come
    out zero unless the inequality itself is broken.
    """
    rng = np.random.default_rng(cfg.seed)
    charges = _draw_charges(rng, cfg.sample_count, rs.rank)
    sys_up, sys_lo, vol = _batch_stats(rs, charges)
    ratios = sys_up**2 / vol
    bound = rs.bound
    bound_f = float(bound)
    violating = int((ratios > bound_f * (1.0 + VIOLATION_REL_TOL)).sum())
    best = int(np.argmax(ratios))
    return SearchResult(
        best_ratio=float(ratios[best]),
        best_charge=charges[best].copy(),
        samples_violating=violating,
        histogram=_histogram(ratios, bound_f),
        bound=bound,
        ratios=ratios,
        sys_upper=sys_up,
        sys_lower=sys_lo,
        volumes=vol,
    )


def _charge_from_params(x: np.ndarray, rank: int) -> np.ndarray:
    return 10.0 ** x[rank:] * np.exp(1j * np.pi * x[:rank])


def _ratio_parts(rs: RootSystem, z: np.ndarray) -> tuple[float, float, float]:
    """(ratio, sys_upper, volume) of a charge; a trial needs only the ratio."""
    vol = _volume(rs, _root_moduli(rs, z))
    sys_up = _systole_upper(z)
    return sys_up**2 / vol, sys_up, vol


def optimize_ratio(rs: RootSystem, cfg: SearchConfig) -> SearchResult:
    """Push the ratio toward its supremum by coordinate pattern search.

    Parameters are the n phases and n log-moduli; phases are clamped a
    margin inside (0, 1) because the supremum may live on the wall of the
    heart.  Runs cfg.restarts searches from seeded random starts and
    reports the per-restart bests (see SearchResult for what each field
    counts).

    A move changes one coordinate of x, which stays inside its box, so a
    trial clamps that coordinate alone and recomputes the one charge entry
    it feeds, by the same elementwise expression as `_charge_from_params`.
    """
    rng = np.random.default_rng(cfg.seed)
    n = rs.rank
    bound = rs.bound
    bound_f = float(bound)
    limit = bound_f * (1.0 + VIOLATION_REL_TOL)
    box = [(PHASE_MARGIN, 1.0 - PHASE_MARGIN)] * n + [_LOG_R_RANGE] * n

    best_per_restart = np.empty(cfg.restarts)
    sys_up_per = np.empty(cfg.restarts)
    sys_lo_per = np.empty(cfg.restarts)
    vol_per = np.empty(cfg.restarts)
    violating = 0
    best_ratio = -np.inf
    best_z = best_vol = None

    for restart in range(cfg.restarts):
        x = np.empty(2 * n)
        x[:n] = rng.uniform(PHASE_MARGIN, 1.0 - PHASE_MARGIN, size=n)
        x[n:] = rng.uniform(*_LOG_R_RANGE, size=n)
        z = _charge_from_params(x, n)
        ratio = _ratio_parts(rs, z)[0]
        if ratio > limit:
            violating += 1
        step = cfg.step_init
        for _ in range(cfg.max_iters):
            improved = False
            for dim, (lo, hi) in enumerate(box):
                k = dim % n
                for sign in (1.0, -1.0):
                    trial = x.copy()
                    trial[dim] = min(max(x[dim] + sign * step, lo), hi)
                    trial_z = z.copy()
                    trial_z[k : k + 1] = 10.0 ** trial[n + k : n + k + 1] * np.exp(
                        1j * np.pi * trial[k : k + 1]
                    )
                    trial_ratio = _ratio_parts(rs, trial_z)[0]
                    if trial_ratio > limit:
                        violating += 1
                    if trial_ratio > ratio:
                        x, z, ratio = trial, trial_z, trial_ratio
                        improved = True
            if not improved:
                step /= 2.0
                if step < cfg.step_min:
                    break
        ratio, sys_up, vol = _ratio_parts(rs, z)
        best_per_restart[restart] = ratio
        sys_up_per[restart] = sys_up
        sys_lo_per[restart] = systole_lower(rs, z)
        vol_per[restart] = vol
        if ratio > best_ratio:
            best_ratio, best_z, best_vol = ratio, z, vol

    return SearchResult(
        best_ratio=float(best_ratio),
        best_charge=best_z / np.sqrt(best_vol),  # gauge: report the volume-1 representative
        samples_violating=violating,
        histogram=_histogram(best_per_restart, bound_f),
        bound=bound,
        ratios=best_per_restart,
        sys_upper=sys_up_per,
        sys_lower=sys_lo_per,
        volumes=vol_per,
    )
