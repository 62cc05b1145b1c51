"""Column-error models for interleaved words.

An error matrix E (L x N) hits t worker columns: the support is uniform over
the t-subsets of columns, and supported columns are filled either with
uniform nonzero vectors over GF(q)^L (UREF, finite fields) or with i.i.d.
Gaussian entries (GRE, reals).  The burst weight of E is the number of
nonzero columns, matching column-level Hamming distance on interleaved words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters
from .field import Field, PrimeField, RealField

__all__ = ["ErrorModelSpec", "ErrorMatrix", "sample_error", "hamming_weight", "inject"]

_KINDS = ("uref", "gre")


@dataclass(frozen=True)
class ErrorModelSpec:
    """What to inject: model kind, burst weight t, Gaussian parameters."""

    kind: str
    t: int
    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameters(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not isinstance(self.t, (int, np.integer)) or self.t < 0:
            raise InvalidParameters(f"t must be a non-negative integer, got {self.t!r}")
        if not np.isfinite(self.mean):
            raise InvalidParameters("mean must be finite")
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise InvalidParameters("variance must be positive and finite")


@dataclass(frozen=True)
class ErrorMatrix:
    """An L x N error pattern and its (sorted) column support."""

    e: np.ndarray
    support: tuple

    def __post_init__(self):
        self.e.setflags(write=False)


def sample_error(spec: ErrorModelSpec, field: Field, l: int, n: int, rng) -> ErrorMatrix:
    """Draw an error matrix with exactly spec.t nonzero columns.

    The support is uniform over the t-subsets of [0, n); every supported
    column is nonzero by construction (UREF columns are uniform over
    GF(q)^L minus zero; GRE columns are redrawn in the measure-zero event
    of being exactly zero).
    """
    if l < 1 or n < 1:
        raise InvalidParameters("need l >= 1 and n >= 1")
    if spec.t > n:
        raise InvalidParameters(f"burst weight t={spec.t} exceeds the column count {n}")
    if spec.kind == "uref" and not isinstance(field, PrimeField):
        raise InvalidParameters("the uniform-nonzero model is defined over finite fields only")
    if spec.kind == "gre" and not isinstance(field, RealField):
        raise InvalidParameters("the Gaussian model is defined over the reals only")
    support = np.sort(rng.choice(n, size=spec.t, replace=False)) if spec.t else np.empty(0, dtype=int)
    e = field.zeros((l, n))
    if spec.t:
        std = float(np.sqrt(spec.variance))

        def draw(cols):
            if spec.kind == "uref":
                return field.rand_elements(rng, (l, cols))
            return spec.mean + std * rng.standard_normal((l, cols))

        vals = draw(spec.t)
        while (dead := ~vals.any(axis=0)).any():
            vals[:, dead] = draw(int(dead.sum()))
        e[:, support] = vals
    return ErrorMatrix(e=e, support=tuple(int(j) for j in support))


def hamming_weight(e, field: Field, scale=None) -> int:
    """Number of nonzero columns (column-burst weight).

    A column counts as nonzero when any entry fails the field's is_zero
    test: exact over GF(p), and over the reals at the given per-column scale
    (default 1).
    """
    e = field.array(e)
    if e.ndim != 2:
        raise InvalidParameters("hamming_weight expects an L x N matrix")
    col_scale = 1.0 if scale is None else np.asarray(scale, dtype=np.float64)
    nonzero = ~field.is_zero(e, scale=col_scale)
    return int(np.count_nonzero(np.any(nonzero, axis=0)))


def inject(d, e, field: Field) -> np.ndarray:
    """Entrywise field addition of an error matrix onto a word.

    Each operand is validated once by field.array; the sum of the canonical
    arrays is then one raw add (and one reduction mod p over GF(p)).
    """
    d = field.array(d)
    e = field.array(e)
    if d.shape != e.shape:
        raise InvalidParameters(f"shape mismatch: {d.shape} vs {e.shape}")
    out = d + e
    if isinstance(field, PrimeField):
        out %= field.p
    return out
