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

import numpy as np

from .errors import InvalidParameters
from .field import Field, _is_int
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
    must outnumber K = m*n.  code, derived and not given, is the induced
    GRS(N, K) code on the points xs, built once here: its constructor
    applies the point rule (pairwise distinct and nonzero), and xs becomes
    its frozen copy of the points.  Anything else raises InvalidParameters.
    Two params are equal when their field, counts and points are, and
    equal params hash alike.
    """

    field: Field
    m: int
    n: int
    num_workers: int
    xs: np.ndarray
    code: GrsCode = dataclass_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not all(map(_is_int, (self.m, self.n, self.num_workers))):
            raise InvalidParameters("block counts and the worker count must be integers")
        if self.m < 1 or self.n < 1:
            raise InvalidParameters(f"block counts must be positive, got m={self.m}, n={self.n}")
        if self.num_workers <= self.k:
            raise InvalidParameters(
                f"need more workers than K = m*n = {self.k}, got {self.num_workers}"
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


@dataclass(frozen=True)
class WorkerTask:
    """One worker's encoded inputs."""

    worker_id: int
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    field: Field


@dataclass(frozen=True)
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
    matrix of the powers x_i^degree, one column per block, times the blocks
    stacked as rows.
    """
    fld = params.field
    a = fld.array(a)
    b = fld.array(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise InvalidParameters("A and B must be 2-D with the same row count")
    coded = []
    for mat, parts, step in ((a, params.m, 1), (b, params.n, params.m)):
        blocks = np.stack(_split_columns(mat, parts))
        degrees = step * np.arange(parts)
        powers = fld.power_matrix(params.xs, degrees[-1] + 1)[:, degrees]
        coded.append(fld.matmul(powers, blocks.reshape(parts, -1)).reshape(-1, *blocks.shape[1:]))
    return [WorkerTask(i, a_i, b_i, fld) for i, (a_i, b_i) in enumerate(zip(*coded))]


def worker_compute(task: WorkerTask) -> np.ndarray:
    """The worker's contribution: A~^T B~."""
    return task.field.matmul(task.a_tilde.T, task.b_tilde)


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
    cols = [params.field.array(o).reshape(-1) for o in outputs]
    d = np.stack(cols, axis=1)
    return IrsWord(d=d, code=params.code, block_rows=shape[0], block_cols=shape[1])


def recover_product(params: PolyCodeParams, word: IrsWord) -> np.ndarray:
    """Reassemble A^T B from a clean (or repaired) interleaved word.

    Each row of word.d, canonicalized once here (a real NaN or inf raises
    ValueError), is interpolated to its mn polynomial coefficients;
    coefficient j + k*m is entry (p, q) of the block A_j^T B_k, where row
    index l = p * block_cols + q.
    """
    br, bc = word.block_rows, word.block_cols
    d = params.field.array(word.d)
    if d.shape != (br * bc, params.num_workers):
        raise InvalidParameters("interleaved word shape does not match its block layout")
    msgs = _interpolate_rows(word.code, d)
    blocks = msgs.reshape(br, bc, params.n, params.m).transpose(3, 0, 2, 1)
    return blocks.reshape(params.m * br, params.n * bc)
