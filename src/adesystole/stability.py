"""Central charges and the systole/volume quantities attached to them.

A central charge is a vector of n complex numbers, the values of an
additive map on the n simple classes.  The volume admits two routes that
agree by the exact coefficient identity: a Hermitian form in the inverse
Cartan matrix over the basis, and a Coxeter-normalized sum of |Z(M)|^2
over the positive roots M.  The systole is bracketed: the minimum over
the simples bounds it above, the minimum over all positive roots bounds
it below.  A call checks its charge in one pass over `z.tolist()`; what
is left of its cost is numpy's dispatch of R @ z, abs and one ufunc
reduction per minimum.  `_score`, the one scorer behind `check_inequality`,
the optimizer and the Milnor correspondence, takes both minima from one
`reduceat`.  The products stay `@`: `np.dot` is faster, but it names
itself in the overflow warnings that an out-of-range charge raises.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from adesystole.roots import RootClass, RootSystem, _check_class

# Relative tolerances: cross-formula comparisons, and inequality slack.
REL_TOL = 1e-9
SLACK_REL_TOL = 1e-12

_NORMAL_MIN = float(np.finfo(np.float64).tiny)


def _checked(values, rank: int | None) -> tuple[np.ndarray, list]:
    """The charge vector and its entries, checked finite in one tolist pass."""
    z = np.asarray(values, dtype=np.complex128)
    if z.ndim != 1:
        raise ValueError(f"charge must be a flat vector, got shape {z.shape}")
    if rank is not None and z.shape[0] != rank:
        raise ValueError(f"charge has length {z.shape[0]}, expected {rank}")
    entries = z.tolist()
    if not all(map(cmath.isfinite, entries)):
        raise ValueError("charge has a non-finite entry")
    return z, entries


def as_charge(values, rank: int | None = None) -> np.ndarray:
    """Coerce a sequence of finite complex numbers into a charge vector."""
    return _checked(values, rank)[0]


def _nonzero_charge(rs: RootSystem, Z) -> np.ndarray:
    """A charge with no zero entry (-0.0 is one): a stability condition sends no simple to 0."""
    z, entries = _checked(Z, rs.rank)
    if 0 in entries:
        raise ValueError(f"charge is zero at vertex {entries.index(0) + 1}; a zero entry has no systole")
    return z


def _in_range(vol: float, z: np.ndarray, sys_upper: float | None = None) -> float:
    """The volume of z, unless it is not finite or, for z != 0, below the
    normal float range; sys_upper^2 <= h vol is then finite too.  Given
    z's upper systole, its square must not fall below that range either."""
    if not vol < np.inf or (vol < _NORMAL_MIN and z.any()):
        raise ValueError(f"charge is out of float range: its volume evaluates to {vol!r}")
    if sys_upper is not None and sys_upper * sys_upper < _NORMAL_MIN:
        raise ValueError(
            f"charge is out of float range: its systole squared evaluates to {sys_upper * sys_upper!r}"
        )
    return vol


def evaluate_charge(rs: RootSystem, Z, alpha: RootClass) -> complex:
    """Value of the charge on a class vector: sum of c_i(alpha) * Z_i."""
    z = as_charge(Z, rs.rank)
    alpha = _check_class(alpha, rs.rank)
    with np.errstate(all="ignore"):
        value = complex(np.dot(np.asarray(alpha, dtype=np.float64), z))
    if not cmath.isfinite(value):
        raise ValueError(f"charge is out of float range: its value on {alpha} evaluates to {value!r}")
    return value


def volume_basis(rs: RootSystem, Z) -> float:
    """Volume via the basis form |sum_ij chi^{ij} Z_i conj(Z_j)|.

    The form is Hermitian with real symmetric matrix, so the sum is real
    and (by the positive-root expansion) nonnegative; both facts are
    asserted to REL_TOL before the absolute value is returned.
    """
    z = as_charge(Z, rs.rank)
    s = complex(np.conjugate(z) @ (rs.inverse_array @ z))
    vol = _in_range(abs(s), z)
    scale = max(1.0, vol)
    if abs(s.imag) > REL_TOL * scale:
        raise ArithmeticError(f"volume form is not real: {s!r}")
    if s.real < -REL_TOL * scale:
        raise ArithmeticError(f"volume form is negative: {s!r}")
    return vol


def _root_moduli(classes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|Z(M)| over the rows M of `classes` for an already validated charge."""
    return np.abs(classes @ z)


def _volume(moduli: np.ndarray, coxeter: int, z: np.ndarray) -> float:
    """The root-sum volume of z from its root moduli, checked by `_in_range`."""
    return _in_range(float(moduli @ moduli) / coxeter, z)


def _score(classes: np.ndarray, z: np.ndarray, rank: int, coxeter: int) -> tuple[float, float, float, float]:
    """(ratio, sys_upper, sys_lower, volume) of an already validated charge
    z from its moduli over the positive roots `classes`.  The roots begin
    with the `rank` simples, so the minimum over the first `rank` moduli is
    sys_upper; A1 has no root after its simple, and cuts (0, 0) give its
    one modulus twice."""
    moduli = _root_moduli(classes, z)
    vol = _volume(moduli, coxeter, z)
    sys_up, rest = np.minimum.reduceat(moduli, (0, rank % len(moduli))).tolist()
    return sys_up**2 / vol, sys_up, min(sys_up, rest), vol


def volume_roots(rs: RootSystem, Z) -> float:
    """Volume via the root sum: (1/h) * sum over positive roots of |Z(M)|^2."""
    z = as_charge(Z, rs.rank)
    return _volume(_root_moduli(rs.complex_root_matrix, z), rs.coxeter, z)


def systole_upper(rs: RootSystem, Z) -> float:
    """Upper systole bound min_i |Z_i|; the simples are stable in every
    stability condition over the standard heart, so their smallest modulus
    dominates the systole there."""
    return float(np.minimum.reduce(np.abs(_nonzero_charge(rs, Z))))


def systole_lower(rs: RootSystem, Z) -> float:
    """Lower systole bound min over all positive roots of |Z(M)|; every
    stable class is a positive root up to sign, so nothing stable can have
    smaller modulus."""
    return float(np.minimum.reduce(_root_moduli(rs.complex_root_matrix, _nonzero_charge(rs, Z))))


def heart_membership(Z) -> bool:
    """True iff every entry lies in {r e^{i pi phi} : r > 0, phi in (0, 1]},
    i.e. has positive imaginary part or sits on the negative real axis."""
    z = as_charge(Z)
    return bool(np.all((z.imag > 0) | ((z.imag == 0) & (z.real < 0))))


@dataclass(frozen=True)
class SystolicReport:
    """Systole bracket, volume, and slack against the h/n bound."""

    sys_lower: float
    sys_upper: float
    volume: float
    ratio_upper: float
    bound: Fraction
    slack: float

    def satisfied(self) -> bool:
        """Whether the inequality holds, allowing float round-off."""
        return self.slack >= -SLACK_REL_TOL * self.volume

    def as_dict(self) -> dict:
        return {
            "sys_lower": self.sys_lower,
            "sys_upper": self.sys_upper,
            "volume": self.volume,
            "ratio_upper": self.ratio_upper,
            "bound": float(self.bound),
            "bound_exact": str(self.bound),
            "slack": self.slack,
            "satisfied": self.satisfied(),
        }


def check_inequality(rs: RootSystem, Z) -> SystolicReport:
    """Evaluate the systolic inequality sys^2 <= (h/n) vol at the charge Z,
    using the upper systole bound (which dominates the true systole).

    The charge is validated and scored by `_score`, so the fields equal
    volume_roots, systole_upper and systole_lower exactly."""
    ratio, sys_up, sys_lo, vol = _score(rs.complex_root_matrix, _nonzero_charge(rs, Z), rs.rank, rs.coxeter)
    bound = rs.bound
    return SystolicReport(
        sys_lower=sys_lo,
        sys_upper=sys_up,
        volume=vol,
        ratio_upper=ratio,
        bound=bound,
        slack=float(bound) * vol - sys_up**2,
    )
