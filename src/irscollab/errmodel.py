"""Column-error models for interleaved words.

An error matrix E (L x N) hits t worker columns: the support is uniform over
the t-subsets of columns, and supported columns are filled either with
uniform nonzero vectors over GF(q)^L (UREF, finite fields) or with i.i.d.
standard normal entries (GRE, reals; the paper's Gaussian result does not
depend on the noise's mean or variance).  The burst weight of E is the
number of nonzero columns, matching column-level Hamming distance on
interleaved words.  Each field takes one model, the one model_for names;
sample_error and the harness's ExperimentConfig reject any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters
from .field import Field, PrimeField, RealField, _check_int

__all__ = ["ErrorModelSpec", "ErrorMatrix", "model_for", "sample_error", "inject"]

_KINDS = ("uref", "gre")


def model_for(field: Field) -> str:
    """The one error model defined over field: "uref" over GF(p), "gre" over
    the reals."""
    if isinstance(field, PrimeField):
        return "uref"
    if isinstance(field, RealField):
        return "gre"
    raise InvalidParameters(f"no error model is defined over {field!r}")


def _check_model(kind: str, field: Field) -> None:
    """Raise InvalidParameters unless kind is the error model of field."""
    if kind != model_for(field):
        raise InvalidParameters(f"the {kind!r} error model is not defined over {field!r};"
                                f" it takes {model_for(field)!r}")


@dataclass(frozen=True)
class ErrorModelSpec:
    """What to inject: model kind and burst weight t."""

    kind: str
    t: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameters(f"kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "t", _check_int("t", self.t, 0))


@dataclass(frozen=True, eq=False)
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
    l, n = _check_int("l", l, 1), _check_int("n", n, 1)
    if spec.t > n:
        raise InvalidParameters(f"burst weight t={spec.t} exceeds the column count {n}")
    _check_model(spec.kind, field)
    support, vals = _draw_error(field, l, n, spec.t, rng)
    support.sort()
    e = field.zeros((l, n))
    e[:, support] = vals
    return ErrorMatrix(e=e, support=tuple(int(j) for j in support))


def _draw_error(field: Field, l: int, n: int, t: int, rng):
    """(support, values) of a weight-t error drawn from rng: the support,
    uniform over the t-subsets of [0, n) and in draw order, then an l x t
    block whose columns are redrawn until none is zero.  Column j of the
    block belongs to the j-th smallest column of the support.  The one order
    of an error's draws, for sample_error and the harness's trials; t = 0
    draws nothing.
    """
    support = rng.choice(n, size=t, replace=False)
    vals = field.rand_elements(rng, (l, t))
    # count_nonzero first: it is a tenth of the cost of the column test, and
    # a block without a zero entry has no zero column.
    while np.count_nonzero(vals) < vals.size and (dead := ~vals.any(axis=0)).any():
        vals[:, dead] = field.rand_elements(rng, (l, int(dead.sum())))
    return support, vals


def inject(d, e, field: Field) -> np.ndarray:
    """Entrywise field addition of an error matrix onto a word.

    Each operand is validated once by field.array; the sum of the canonical
    arrays is then one raw add, put in canonical form by field._reduce (one
    reduction mod p in place over GF(p)).
    """
    d = field.array(d)
    e = field.array(e)
    if d.shape != e.shape:
        raise InvalidParameters(f"shape mismatch: {d.shape} vs {e.shape}")
    return field._reduce(d + e)
