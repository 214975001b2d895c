"""Spectral description of a normal deformation.

A deformation is a normal matrix known through its spectrum: distinct
eigenvalues with integer multiplicities.  Every trace functional of a
normal matrix in this package is a weighted moment
sum_i w_i (v_i - s)^k conj(v_i - s)^l of that list, and
:func:`weighted_moments` is the one place such a sum is evaluated, so the
ambient dimension enters only through the weights and through scaling laws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ZeroEigenvalue

__all__ = ["DeformationSpectrum", "weighted_moment", "weighted_moments"]

# a spectrum is real when its imaginary parts are at most REAL_TOL * max(1, |A|)
REAL_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def weighted_moments(values, weights, pairs, shift: complex = 0.0) -> list:
    """The trace moments sum_i w_i (v_i - s)^k conj(v_i - s)^l, one per
    (k, l) of ``pairs``, in one pass over the values.

    A moment with k == l is real and returned as a float, evaluated as
    |v - s|^(2k); any other is returned as a complex.  A negative power at
    a value equal to the shift raises ZeroEigenvalue.  Stacked (S, K) values
    give each moment as an array of S, bit for bit the rows' own calls.
    """
    d = np.asarray(values, dtype=complex)
    if shift:
        d = d - shift
    if min(map(min, pairs)) < 0 and np.any(d == 0):
        raise ZeroEigenvalue(f"shift {shift} coincides with an eigenvalue")
    real = [k == l for k, l in pairs]
    mod = np.abs(d) if any(real) else None
    conj = None if all(real) else np.conj(d)
    # the weights multiply the finished product; the rounding order shows in
    # the last bits of every output
    sums = [(weights * mod ** (2 * k)).sum(-1) if k == l
            else (weights * (d**k * conj**l)).sum(-1) for k, l in pairs]
    if d.ndim > 1:
        return sums
    return [float(m) if k == l else complex(m) for m, (k, l) in zip(sums, pairs)]


def weighted_moment(values, weights, k: int, l: int, shift: complex = 0.0):
    """The one trace moment (k, l) of :func:`weighted_moments`."""
    return weighted_moments(values, weights, ((k, l),), shift)[0]


def canonical_rows(values, counts, n: int) -> list:
    """The canonical spectrum of each row of (S, K) values, every row with
    the K ``counts``: sorted lexicographically, exactly equal values merged
    and their counts added; every value is kept bit for bit."""
    order = np.lexsort((values.imag, values.real))
    values = np.take_along_axis(values, order, axis=-1)
    first = np.diff(values, prepend=np.nan) != 0
    return [DeformationSpectrum(v[starts], np.add.reduceat(c, starts), n)
            for v, c, starts in zip(values, counts[order], map(np.flatnonzero, first))]


def sites_from_json(pairs, counts) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and counts from a list of [re, im] number pairs and a list
    of integers; anything else, a fractional count too, raises ValueError."""
    pairs, counts = np.array(pairs), np.array(counts)
    if pairs.dtype.kind not in "fi" or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("eigenvalues must be a list of [re, im] number pairs")
    if counts.dtype.kind != "i" or counts.ndim != 1:
        raise ValueError("multiplicities must be a list of integers")
    return pairs.astype(float, copy=False).view(complex), counts


@dataclass(frozen=True)
class DeformationSpectrum:
    """Eigenvalues and multiplicities of a normal deformation matrix.

    Parameters
    ----------
    eigenvalues:
        Complex eigenvalues, one entry per distinct value.  Repeated values
        are tolerated (useful mid-flow when blocks collide); use
        :meth:`canonical` to merge them.
    multiplicities:
        Positive integers, same length as ``eigenvalues``, summing to ``n``.
    n:
        Ambient matrix dimension.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    n: int

    def __post_init__(self) -> None:
        ev = np.asarray(self.eigenvalues, dtype=complex).reshape(-1)
        mult = np.asarray(self.multiplicities, dtype=np.int64).reshape(-1)
        if ev.shape != mult.shape:
            raise DimensionMismatch(
                f"{ev.size} eigenvalues vs {mult.size} multiplicities"
            )
        if ev.size == 0:
            raise DimensionMismatch("spectrum must contain at least one eigenvalue")
        if not np.all(np.isfinite(ev.view(float))):
            raise DimensionMismatch("eigenvalues must be finite")
        if np.any(mult <= 0):
            raise DimensionMismatch("multiplicities must be positive")
        total = int(mult.sum())
        if total != self.n:
            raise DimensionMismatch(
                f"multiplicities sum to {total}, expected n={self.n}"
            )
        object.__setattr__(self, "eigenvalues", _readonly(ev))
        object.__setattr__(self, "multiplicities", _readonly(mult))

    # -- serialisation ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": int(self.n),
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "multiplicities": [int(m) for m in self.multiplicities],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeformationSpectrum":
        try:
            n = data["n"]
            if type(n) is not int:
                raise ValueError(f"n must be an integer, got {n!r}")
            ev, mult = sites_from_json(data["eigenvalues"], data["multiplicities"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatch(f"malformed spectrum record: {exc}") from exc
        return cls(ev, mult, n)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "DeformationSpectrum":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    # -- weighted trace calculus --------------------------------------

    @cached_property
    def weights(self) -> np.ndarray:
        """Multiplicities normalised to sum to one, computed once."""
        return _readonly(self.multiplicities / float(self.n))

    def moments(self, pairs, shift: complex = 0.0) -> list:
        """The :meth:`moment` of each (k, l) of ``pairs``, in one pass."""
        return weighted_moments(self.eigenvalues, self.weights, pairs, shift)

    def moment(self, k: int, l: int, shift: complex = 0.0):
        """Normalised trace of (A - shift)^k (A - shift)*^l: see :func:`weighted_moments`."""
        return self.moments(((k, l),), shift)[0]

    def moduli(self) -> np.ndarray:
        return np.abs(self.eigenvalues)

    def operator_norms(self) -> tuple[float, float]:
        """(norm of A, norm of A inverse) for a normal matrix."""
        m = self.moduli()
        if np.any(m == 0.0):
            raise ZeroEigenvalue("zero eigenvalue has no inverse norm")
        return float(m.max()), float(1.0 / m.min())

    def is_real(self) -> bool:
        """Whether every imaginary part is within REAL_TOL of the scale."""
        scale = max(1.0, float(np.max(self.moduli())))
        return float(np.max(np.abs(self.eigenvalues.imag))) <= REAL_TOL * scale

    # -- elementary transforms ----------------------------------------

    def with_eigenvalues(self, ev: np.ndarray) -> "DeformationSpectrum":
        return DeformationSpectrum(ev, self.multiplicities, self.n)

    def canonical(self) -> "DeformationSpectrum":
        """This spectrum in the form of :func:`canonical_rows`."""
        return canonical_rows(self.eigenvalues[None], self.multiplicities, self.n)[0]

    def expand(self) -> np.ndarray:
        """Eigenvalues repeated according to multiplicity (length n)."""
        return np.repeat(self.eigenvalues, self.multiplicities)

    def dense(self) -> np.ndarray:
        """Diagonal dense representative in the diagonalising basis."""
        return np.diag(self.expand())
