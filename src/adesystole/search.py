"""Sampling and optimization of the ratio sys_upper^2 / vol.

Charges are drawn entry-wise as r * exp(i pi phi) with phi uniform on
(0, 1) and log10 r uniform on [-3, 3], which keeps every sample inside
the standard heart and spans six decades of scale.  The seeded draw is
default_rng(seed) taking all count x n phases, then all count x n
log-radii.  The sampler streams it block by block from two PCG64
generators: one at the start of the phase block, one advanced past it to
the start of the log-radius block.  Each block of charges is drawn,
multiplied by the root matrix and reduced to its rows' systole bounds
and volumes while it is still in cache, so the sampler holds the three
per-sample result arrays (24 B per sample) and a block, never the
charges.  The ratios are derived from those arrays and summarized a
block at a time, never stored.  The optimizer is a derivative-free
coordinate pattern search: the ratio is invariant under rescaling, so
the volume is gauge-fixed to 1 and the squared systole bound is pushed
as high as it will go.

Every entry of the search's charge, at the start and after each move,
is a one-entry `_charge` of its own phase and log-radius, and a trial
move changes one entry.  `_screen` bounds a trial's ratio in O(1)
instead of one product over the positive roots, and only a trial whose
bound could beat the current ratio, or go over the bound h/n, is
evaluated exactly.  Seeded results are bit-identical to evaluating
every trial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from adesystole.roots import RootSystem, _check_int, _check_seed
from adesystole.stability import _score

if TYPE_CHECKING:
    from fractions import Fraction

# Phases are kept this far inside (0, 1); the supremum can sit on the wall.
PHASE_MARGIN = 1e-7

# A sample counts as violating only beyond float round-off.
VIOLATION_REL_TOL = 1e-12

_LOG_R_RANGE = (-3.0, 3.0)
_HISTOGRAM_BINS = 32

# Bytes of one block's charge-by-root product; its temporaries then stay
# in cache.
_BLOCK_BYTES = 1 << 20

# Row reductions over at most this many columns are taken column by
# column: numpy's per-row reduction costs more than the work on so short a
# row.  A minimum is exact in any order; numpy's pairwise sum adds fewer
# than 8 elements one by one, so a sum over at most 7 columns, taken in
# order, has the bits of sum(axis=1).
_NARROW_MIN = 8
_NARROW_SUM = 7

# The pattern search's schedule: first step, the step it stops below, most sweeps.
STEP_INIT = 0.25
STEP_MIN = 1e-9
MAX_ITERS = 200

# 24 B per sample and a few MB of blocks are held (see the module
# docstring); 10**8 samples take about 2.4 GB in every output mode.
MAX_SAMPLE_COUNT = 10**8

# A restart takes about 1.4-2.7 ms on A1/A2, 20 ms on E8 and 145 ms on D32,
# so 10**5 restarts run for minutes on A1/A2, about 33 min on E8 and about
# 4 h on D32.
MAX_RESTARTS = 10**5


@dataclass(frozen=True)
class SearchConfig:
    """Charges the sampler draws, the seed of every draw, and the pattern search's starts."""

    sample_count: int = 1000
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        for name in ("sample_count", "seed", "restarts"):
            _check_int(name, getattr(self, name))
        if not 1 <= self.sample_count <= MAX_SAMPLE_COUNT:
            raise ValueError(
                f"sample_count must be between 1 and {MAX_SAMPLE_COUNT:,}, got {self.sample_count}"
            )
        _check_seed(self.seed)
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"restarts must be between 1 and {MAX_RESTARTS:,}, got {self.restarts}")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of a sampling run or an optimization run.

    The per-point arrays ratios / sys_upper / sys_lower / volumes are
    indexed by sample (or by restart, for the optimizer); the histogram
    buckets cover [0, bound] and count the same points.  For sampling,
    samples_violating counts samples over the bound; for the optimizer it
    counts every start and every trial move whose ratio is over the bound,
    so it is not a count of restarts.  A trial the optimizer's screen
    drops without evaluating it is provably under the bound, so the count
    still covers every trial.

    `ratios_of(part)` is the ratio column over a slice, `ratios` all of it.
    A sampler result derives each slice from sys_upper and volumes per
    call; the optimizer stores its column, each restart's `_score` ratio,
    whose Python `x**2` (libm pow) can differ from numpy's square in the
    last bit.
    """

    best_ratio: float
    best_charge: np.ndarray
    samples_violating: int
    histogram: tuple[tuple[float, float, int], ...]
    bound: Fraction
    sys_upper: np.ndarray
    sys_lower: np.ndarray
    volumes: np.ndarray
    stored_ratios: np.ndarray | None = None

    def ratios_of(self, part: slice = slice(None)) -> np.ndarray:
        if self.stored_ratios is not None:
            return self.stored_ratios[part]
        return _ratios(self.sys_upper[part], self.volumes[part])

    ratios = property(ratios_of)

    def summary(self) -> dict:
        return {
            "best_ratio": self.best_ratio,
            "best_charge": [[z.real, z.imag] for z in self.best_charge],
            "samples_violating": self.samples_violating,
            "samples": int(self.volumes.shape[0]),
            "bound": float(self.bound),
            "bound_exact": str(self.bound),
            "histogram": [
                {"lo": lo, "hi": hi, "count": count} for lo, hi, count in self.histogram
            ],
        }


def _ratios(sys_up: np.ndarray, vol: np.ndarray) -> np.ndarray:
    ratios = sys_up**2
    ratios /= vol
    return ratios


def _scan(ratios_of, count: int, bound: float):
    """(first index of the largest ratio, that ratio, the number over the
    bound, the histogram) of a column of `count` ratios, read
    `ratios_of(part)` for one slice of `_BLOCK_BYTES // 8` at a time."""
    edges = np.linspace(0.0, bound, _HISTOGRAM_BINS + 1)
    counts = np.zeros(_HISTOGRAM_BINS, dtype=np.int64)
    best, best_ratio, violating = 0, -math.inf, 0
    rows = _BLOCK_BYTES // 8
    for start in range(0, count, rows):
        ratios = ratios_of(slice(start, start + rows))
        top = int(np.argmax(ratios))
        if ratios[top] > best_ratio:
            best, best_ratio = start + top, float(ratios[top])
        violating += int(np.count_nonzero(ratios > bound * (1.0 + VIOLATION_REL_TOL)))
        counts += np.histogram(np.minimum(ratios, bound), bins=edges)[0]
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(_HISTOGRAM_BINS)
    )
    return best, best_ratio, violating, histogram


def _streams(seed: int, count: int, rank: int, row: int = 0):
    """Generators at `row` of the phase block and of the log-radius block
    of default_rng(seed)'s draw of count x rank charges; a uniform double
    takes one PCG64 step."""
    return (
        np.random.Generator(np.random.PCG64(seed).advance(row * rank)),
        np.random.Generator(np.random.PCG64(seed).advance((count + row) * rank)),
    )


def _charge(phase: np.ndarray, log_r: np.ndarray) -> np.ndarray:
    """The charge entries r * exp(i pi phi) at phases phi and log10 r."""
    return 10.0**log_r * np.exp(1j * np.pi * phase)


def _draw(streams, rows: int, rank: int) -> np.ndarray:
    """The next `rows` charges of the two streams."""
    phase_rng, radius_rng = streams
    phase = phase_rng.uniform(0.0, 1.0, size=(rows, rank))
    phase[phase == 0.0] = 0.5  # measure-zero guard: phases live in the open interval
    return _charge(phase, radius_rng.uniform(*_LOG_R_RANGE, size=(rows, rank)))


def _row_reduce(op: np.ufunc, values: np.ndarray, out: np.ndarray, narrow: int) -> None:
    """`op.reduce(values, axis=1)` into `out`, column by column in order
    when `values` has at most `narrow` columns."""
    if values.shape[1] > narrow:
        op.reduce(values, axis=1, out=out)
        return
    np.copyto(out, values[:, 0])
    for col in range(1, values.shape[1]):
        op(out, values[:, col], out=out)


def sample_ratios(rs: RootSystem, cfg: SearchConfig) -> SearchResult:
    """Draw heart-compatible charges and measure the ratio on each.

    Deterministic for a given (rs, cfg); the violation count must come
    out zero unless the inequality itself is broken.

    The positive roots begin with the n simples, so the first n moduli of
    a row are |Z_i| and give sys_upper.  No block has one row unless
    count is 1: numpy would multiply it on its matrix-vector path, whose
    last bits differ.
    """
    count, n = cfg.sample_count, rs.rank
    roots_t = rs.complex_root_matrix.T
    rows = _BLOCK_BYTES // (roots_t.shape[1] * roots_t.itemsize)
    streams = _streams(cfg.seed, count, n)
    sys_up, sys_lo, vol = (np.empty(count) for _ in range(3))
    start = 0
    while start < count:
        stop = start + rows
        if stop >= count - 1:  # a lone last row joins this block
            stop = count
        moduli = np.abs(_draw(streams, stop - start, n) @ roots_t)
        block = slice(start, stop)
        _row_reduce(np.minimum, moduli, sys_lo[block], _NARROW_MIN)
        _row_reduce(np.minimum, moduli[:, :n], sys_up[block], _NARROW_MIN)
        np.square(moduli, out=moduli)
        _row_reduce(np.add, moduli, vol[block], _NARROW_SUM)
        start = stop
    vol /= rs.coxeter
    best, best_ratio, violating, histogram = _scan(
        lambda part: _ratios(sys_up[part], vol[part]), count, float(rs.bound)
    )
    best_charge = _draw(_streams(cfg.seed, count, n, best), 1, n)[0]
    return SearchResult(best_ratio, best_charge, violating, histogram, rs.bound, sys_up, sys_lo, vol)


# A trial entry from `cmath` and numpy's `_charge` of one entry differ by a
# few ulps of pow and exp (numpy's AVX-512 loops allow 4, libm's 1); the
# screen allows a relative gap of 2^-47 and widens moduli and ratios by 2^-46.
_ENTRY_GAP = 2.0**-47
_WIDEN = 1.0 + 2.0 * _ENTRY_GAP


def _screen(rs: RootSystem, z: np.ndarray, vol: float):
    """The trial screen of charge z, whose root-route volume is vol:
    `bound(k, phase, log_r)` is an upper bound on the ratio `_score`
    returns for z with entry k replaced by `_charge` of (phase, log_r), or
    inf.

    By the coefficient identity C^-1 = R^T R / h the volume is the
    Hermitian form z* C^-1 z, so with w = C^-1 z, computed once per
    point, moving entry k by delta adds 2 Re(conj(delta) w_k) +
    |delta|^2 C^-1_kk.  With u = 2^-53, rounding moves the root-route
    volume of a charge y by at most
    (|Phi+| + 2n + 8) u |y|^T C^-1 |y|: gamma_n b_M on each root value
    Z(M), where b_M = sum_j c_j(M) |y_j| also bounds |Z(M)|; one ulp in
    its modulus; gamma_|Phi+| in the sum of squares; and
    sum_M b_M^2 = h |y|^T C^-1 |y| by the identity.  The current and the
    trial charge each have that error, and |y'|^T C^-1 |y'| <= spread +
    grow, where spread = |z|^T C^-1 |z|, a = C^-1 |z|, grow =
    r (2 a_k + r C^-1_kk) and r = |new entry| + |old entry| bounds every
    term of the update at its modulus.  The error of
    w from the rounded C^-1 (gamma_(n+1) a_k), the entry gap and the
    rounding of the update add at most (n + 220) u grow.  The volume is
    narrowed by err (spread + grow), err = (|Phi+| + 3n + 256) 2^-50, at
    least twice all of these; a volume not bounded away from 0 gives inf.
    sys_upper, from the two smallest |z_j|, and the ratio are widened by
    `_WIDEN`.
    """
    inv = rs.inverse_array  # symmetric: rows @ inv = (inv @ columns)^T
    abs_z = np.abs(z)
    products = np.array((z.real, z.imag, abs_z)) @ inv
    wr, wi, a = products.tolist()
    spread = float(products[2] @ abs_z)
    entries, moduli, diag = z.tolist(), abs_z.tolist(), inv.diagonal().tolist()
    err = (len(rs.positive_roots) + 3 * rs.rank + 256) * 2.0**-50
    low = moduli.index(min(moduli))
    first = moduli[low]
    second = min(moduli[:low] + moduli[low + 1 :], default=math.inf)

    def bound(k: int, phase: float, log_r: float) -> float:
        new = 10.0**log_r * cmath.exp(1j * math.pi * phase)
        modulus = abs(new)
        dr = new.real - entries[k].real
        di = new.imag - entries[k].imag
        c = diag[k]
        reach = modulus + moduli[k]
        grow = reach * (2.0 * a[k] + reach * c)
        trial_vol = vol + (2.0 * (dr * wr[k] + di * wi[k]) + (dr * dr + di * di) * c - err * (spread + grow))
        if trial_vol <= 0.0:
            return math.inf
        sys_up = min(modulus, second if k == low else first) * _WIDEN
        return sys_up * sys_up / trial_vol * _WIDEN

    return bound


def optimize_ratio(rs: RootSystem, cfg: SearchConfig) -> SearchResult:
    """Push the ratio toward its supremum by coordinate pattern search.

    Parameters are the n phases and n log-moduli; phases are clamped a
    margin inside (0, 1) because the supremum may live on the wall of the
    heart.  Runs cfg.restarts searches from seeded random starts; each
    starts with step STEP_INIT, halves it after a sweep with no gain and
    stops once it falls below STEP_MIN or after MAX_ITERS sweeps.  Reports
    the per-restart bests (see SearchResult for what each field counts).

    The state is `params`, its charge z, whose every entry is a one-entry
    `_charge` of its own phase and log-radius, and `screen`, the `_screen`
    of z.  A move changes one coordinate of `params`, which stays inside
    its box, so a trial clamps that coordinate alone; one clamped onto the
    current point is the current point.  Any other trial is screened, and
    only a trial whose `screen` bound reaches min(ratio, limit) is
    evaluated exactly, by `_charge` of its entry and `_score`.  A
    screened-out trial would be neither accepted nor counted as violating,
    so every result is bit-identical to evaluating every trial.  Each
    restart's table row is the `_score` of its accepted point.
    """
    rng = np.random.default_rng(cfg.seed)
    n, h, roots = rs.rank, rs.coxeter, rs.complex_root_matrix
    limit = float(rs.bound) * (1.0 + VIOLATION_REL_TOL)
    box = [(PHASE_MARGIN, 1.0 - PHASE_MARGIN)] * n + [_LOG_R_RANGE] * n
    table = np.empty((4, cfg.restarts))  # each restart's ratio, sys_upper, sys_lower, volume
    violating, best_ratio = 0, -math.inf
    for restart in range(cfg.restarts):
        phase = rng.uniform(PHASE_MARGIN, 1.0 - PHASE_MARGIN, size=n)
        log_r = rng.uniform(*_LOG_R_RANGE, size=n)
        z = np.concatenate([_charge(phase[k : k + 1], log_r[k : k + 1]) for k in range(n)])
        score = _score(roots, z, n, h)
        ratio = score[0]
        violating += ratio > limit
        params = phase.tolist() + log_r.tolist()
        screen = _screen(rs, z, score[3])
        cutoff = min(ratio, limit)
        step = STEP_INIT
        for _ in range(MAX_ITERS):
            improved = False
            for dim, (lo, hi) in enumerate(box):
                k = dim % n
                for sign in (1.0, -1.0):
                    value = min(max(params[dim] + sign * step, lo), hi)
                    if value == params[dim]:
                        violating += ratio > limit  # the trial is the current point
                        continue
                    trial = params.copy()
                    trial[dim] = value
                    if screen(k, trial[k], trial[n + k]) < cutoff:
                        continue
                    trial_z = z.copy()
                    trial_z[k : k + 1] = _charge(np.array([trial[k]]), np.array([trial[n + k]]))
                    trial_score = _score(roots, trial_z, n, h)
                    violating += trial_score[0] > limit
                    if trial_score[0] > ratio:
                        params, z, score = trial, trial_z, trial_score
                        ratio = score[0]
                        screen = _screen(rs, z, score[3])
                        cutoff = min(ratio, limit)
                        improved = True
            if not improved:
                step /= 2.0
                if step < STEP_MIN:
                    break
        table[:, restart] = score
        if ratio > best_ratio:  # gauge: report the volume-1 representative
            best_ratio, best_charge = ratio, z / np.sqrt(score[3])

    ratios, sys_up, sys_lo, vol = table
    histogram = _scan(ratios.__getitem__, cfg.restarts, float(rs.bound))[3]
    return SearchResult(best_ratio, best_charge, violating, histogram, rs.bound, sys_up, sys_lo, vol, ratios)
