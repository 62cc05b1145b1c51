"""Polynomial-coded distributed matrix multiplication.

To multiply A^T B with A (s x r) and B (s x r') on N workers, A and B are cut
into m and n column blocks and each worker i receives the block combinations

    A~_i = sum_j A_j x_i^j,    B~_i = sum_k B_k x_i^(k*m),

the exponent layout (1, m) of Yu, Maddah-Ali and Avestimehr's polynomial
codes, which encode_tasks fixes.  The worker's product C~_i = A~_i^T B~_i is
then the evaluation at x_i of a matrix polynomial whose coefficient of degree
j + k*m is the block A_j^T B_k.  These degrees sweep 0..mn-1 once, so each
scalar entry of the worker outputs, traced across workers, is a codeword of
the RS code of dimension mn on the points x_i, PolyCodeParams.code.  Stacking
all rr'/(mn) such entries gives an interleaved word that the decoders in
:mod:`irscollab.decoder` repair collaboratively.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .errors import InvalidParameters
from .field import Field, PrimeField, _check_int
from .grs import GrsCode, _interpolate_rows

__all__ = [
    "PolyCodeParams",
    "WorkerTask",
    "IrsWord",
    "encode_tasks",
    "worker_compute",
    "assemble_irs",
    "recover_product",
]


@dataclass(frozen=True, eq=False)
class PolyCodeParams:
    """Parameters of a polynomial code for N workers and m x n block products.

    The block counts m and n must be positive integers, and the N workers
    must outnumber K = m*n; each count goes through _check_int.  code,
    derived and not given, is the induced GRS(N, K) code on the points xs,
    built once here: its constructor applies the point rule (pairwise
    distinct and nonzero), and xs becomes its frozen copy of the points.
    Anything else raises InvalidParameters.  Two params are equal when their
    field, counts and points are, and equal params hash alike.
    """

    field: Field
    m: int
    n: int
    num_workers: int
    xs: np.ndarray
    code: GrsCode = dataclass_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("m", "n", "num_workers"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1))
        if self.num_workers <= self.k:
            raise InvalidParameters(
                f"num_workers must exceed K = m*n = {self.k}, got {self.num_workers}"
            )
        code = GrsCode(self.field, self.num_workers, self.k, self.xs)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "xs", code.alphas)

    def _key(self):
        return self.field, self.m, self.n, self.num_workers, tuple(self.xs.tolist())

    def __eq__(self, other):
        return isinstance(other, PolyCodeParams) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def k(self) -> int:
        """Dimension of the induced GRS code: the recovery threshold m*n."""
        return self.m * self.n


@dataclass(frozen=True, eq=False)
class WorkerTask:
    """One worker's encoded inputs, kept as representatives _a and _b.

    Over GF(p), when PrimeField._float_exact holds for the worker product
    (see encode_tasks), they are unreduced float64 integers, bounded by
    m(p - 1)**2 and n(p - 1)**2; otherwise they are canonical.  a_tilde and
    b_tilde are always canonical, reduced from them on first access, so
    only code that reads them pays for the reduction.
    """

    worker_id: int
    _a: np.ndarray
    _b: np.ndarray
    field: Field

    def _canonical(self, rep):
        # Only an unreduced GF(p) representative has a dtype other than the field's.
        return rep if rep.dtype == self.field.dtype else self.field._reduce(rep.astype(np.int64))

    @cached_property
    def a_tilde(self) -> np.ndarray:
        return self._canonical(self._a)

    @cached_property
    def b_tilde(self) -> np.ndarray:
        return self._canonical(self._b)


@dataclass(frozen=True, eq=False)
class IrsWord:
    """Interleaved word: row l of d traces entry l of every worker's output."""

    d: np.ndarray
    code: GrsCode
    block_rows: int
    block_cols: int


def _split_columns(mat: np.ndarray, parts: int) -> list[np.ndarray]:
    if mat.ndim != 2:
        raise InvalidParameters("input matrices must be 2-D")
    if mat.shape[1] % parts != 0:
        raise InvalidParameters(
            f"column count {mat.shape[1]} is not divisible into {parts} blocks"
        )
    return np.hsplit(mat, parts)


def encode_tasks(params: PolyCodeParams, a, b) -> list[WorkerTask]:
    """Encode A (s x r) and B (s x r') into one task per worker.

    The one place the layout (1, m) is set: A's block j goes at degree j and
    B's block k at degree k*m.  Each input is encoded by one matmul: the
    matrix of the powers x_i^degree, one column per block (the code's cached
    encoding matrix at those degrees), times the blocks stacked as rows.

    Over GF(p) an encoded entry of A is a sum of m products of canonical
    elements, so below m(p - 1)**2, and one of B below n(p - 1)**2.  While
    PrimeField._float_exact(s, m(p - 1)**2, n(p - 1)**2) holds, s the row
    count of A and B, the worker's product of such entries is exact in
    float64; each input is then one float64 dgemm, left unreduced, and
    worker_compute makes the one reduction (Dumas, Giorgi and Pernet, ACM
    TOMS 2008).  The reals, and every GF(p) case where the rule fails,
    encode canonically by field._matmul.
    """
    fld = params.field
    a = fld._canonical(a)
    b = fld._canonical(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise InvalidParameters("A and B must be 2-D with the same row count")
    unreduced = isinstance(fld, PrimeField) and fld._float_exact(
        a.shape[0], params.m * (fld.p - 1) ** 2, params.n * (fld.p - 1) ** 2)
    coded = []
    for mat, parts, step in ((a, params.m, 1), (b, params.n, params.m)):
        blocks = np.stack(_split_columns(mat, parts))
        powers = params.code.encoding_matrix()[:, step * np.arange(parts)]
        flat = blocks.reshape(parts, -1)
        if unreduced:
            enc = powers.astype(np.float64) @ flat.astype(np.float64)
        else:
            enc = fld._matmul(powers, flat)
        coded.append(enc.reshape(-1, *blocks.shape[1:]))
    return [WorkerTask(i, a_i, b_i, fld) for i, (a_i, b_i) in enumerate(zip(*coded))]


def worker_compute(task: WorkerTask) -> np.ndarray:
    """The worker's contribution A~^T B~, canonical: from unreduced
    representatives one float64 dgemm and one reduction mod p, otherwise
    field._matmul of the canonical ones."""
    a, b = task._a, task._b
    if a.dtype == task.field.dtype:
        return task.field._matmul(a.T, b)
    return task.field._reduce((a.T @ b).astype(np.int64))


def assemble_irs(params: PolyCodeParams, worker_outputs) -> IrsWord:
    """Stack the flattened worker outputs into an L x N interleaved word.

    Row l of the result collects entry l (row-major) of every worker's output
    matrix; each row is a codeword of params.code, which the word carries,
    when no worker erred.
    """
    outputs = list(worker_outputs)
    if len(outputs) != params.num_workers:
        raise InvalidParameters(
            f"expected {params.num_workers} worker outputs, got {len(outputs)}"
        )
    shapes = {np.asarray(o).shape for o in outputs}
    if len(shapes) != 1:
        raise InvalidParameters("worker outputs must share one shape")
    (shape,) = shapes
    if len(shape) != 2:
        raise InvalidParameters("worker outputs must be 2-D matrices")
    cols = [params.field._canonical(o).reshape(-1) for o in outputs]
    d = np.stack(cols, axis=1)
    return IrsWord(d=d, code=params.code, block_rows=shape[0], block_cols=shape[1])


def recover_product(params: PolyCodeParams, word: IrsWord) -> np.ndarray:
    """Reassemble A^T B from a clean (or repaired) interleaved word.

    Each row of word.d, canonicalized once here (a real NaN or inf raises
    ValueError), is interpolated on params.code to its mn polynomial
    coefficients; coefficient j + k*m is entry (p, q) of the block
    A_j^T B_k, where row index l = p * block_cols + q.  A word whose code
    has another field, dimension or points raises InvalidParameters.
    """
    br, bc, code = word.block_rows, word.block_cols, word.code
    if (code.field, code.k, code.alphas.tolist()) != (params.field, params.k, params.xs.tolist()):
        raise InvalidParameters(f"the word's code is not the params' code: {code!r}")
    d = params.field._canonical(word.d)
    if d.shape != (br * bc, params.num_workers):
        raise InvalidParameters("interleaved word shape does not match its block layout")
    msgs = _interpolate_rows(params.code, d)
    blocks = msgs.reshape(br, bc, params.n, params.m).transpose(3, 0, 2, 1)
    return blocks.reshape(params.m * br, params.n * bc)
