"""Polynomial-coded distributed matrix multiplication.

To multiply A^T B with A (s x r) and B (s x r') on N workers, A and B are cut
into m and n column blocks and each worker i receives the block combinations

    A~_i = sum_j A_j x_i^(j * exp_a),    B~_i = sum_k B_k x_i^(k * exp_b).

The worker's product C~_i = A~_i^T B~_i is then the evaluation at x_i of a
matrix polynomial whose mn coefficients are exactly the blocks A_j^T B_k.
The exponents are always (1, m), the layout of Yu, Maddah-Ali and
Avestimehr's polynomial codes: j + k*m sweeps 0..mn-1, so each scalar entry
of the worker outputs, traced across workers, is a codeword of an RS code of
dimension mn on the points x_i.  Stacking all rr'/(mn) such entries gives an
interleaved word that the decoders in :mod:`irscollab.decoder` repair
collaboratively.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import InvalidParameters
from .field import Field
from .grs import GrsCode, _check_points, _interpolate_rows, make_grs

__all__ = [
    "PolyCodeParams",
    "WorkerTask",
    "IrsWord",
    "choose_exponents",
    "encode_tasks",
    "worker_compute",
    "assemble_irs",
    "recover_product",
]


def choose_exponents(m: int, n: int) -> tuple[int, int]:
    """Exponent pair (1, m): j + k*m is a bijection onto 0..mn-1."""
    if not (isinstance(m, (int, np.integer)) and isinstance(n, (int, np.integer))):
        raise InvalidParameters("block counts must be integers")
    if m < 1 or n < 1:
        raise InvalidParameters(f"block counts must be positive, got m={m}, n={n}")
    return 1, int(m)


@dataclass(frozen=True)
class PolyCodeParams:
    """Parameters of a polynomial code for N workers and m x n block products.

    The exponents exp_a, exp_b are derived, not given: choose_exponents(m, n).
    """

    field: Field
    m: int
    n: int
    num_workers: int
    xs: np.ndarray
    exp_a: int = dataclass_field(init=False)
    exp_b: int = dataclass_field(init=False)

    def __post_init__(self):
        ea, eb = choose_exponents(self.m, self.n)
        object.__setattr__(self, "exp_a", ea)
        object.__setattr__(self, "exp_b", eb)
        xs = np.array(_check_points(self.field, self.xs, self.num_workers), copy=True)
        if self.num_workers < self.m * self.n:
            raise InvalidParameters(
                f"need at least m*n = {self.m * self.n} workers, got {self.num_workers}"
            )
        xs.setflags(write=False)
        object.__setattr__(self, "xs", xs)

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

    Each input is encoded by one matmul: the N x m matrix of the powers
    x_i^(j * exp_a) times the m blocks stacked as rows.
    """
    fld = params.field
    a = fld.array(a)
    b = fld.array(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise InvalidParameters("A and B must be 2-D with the same row count")
    coded = []
    for mat, parts, exp in ((a, params.m, params.exp_a), (b, params.n, params.exp_b)):
        blocks = np.stack(_split_columns(mat, parts))
        degrees = exp * np.arange(parts)
        powers = fld.power_matrix(params.xs, degrees[-1] + 1)[:, degrees]
        coded.append(fld.matmul(powers, blocks.reshape(parts, -1)).reshape(-1, *blocks.shape[1:]))
    return [WorkerTask(i, a_i, b_i, fld) for i, (a_i, b_i) in enumerate(zip(*coded))]


def worker_compute(task: WorkerTask) -> np.ndarray:
    """The worker's contribution: A~^T B~."""
    return task.field.matmul(task.a_tilde.T, task.b_tilde)


def assemble_irs(params: PolyCodeParams, worker_outputs) -> IrsWord:
    """Stack the flattened worker outputs into an L x N interleaved word.

    Row l of the result collects entry l (row-major) of every worker's output
    matrix; each row is a codeword of the returned GRS(N, mn) code when no
    worker erred.
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
    code = make_grs(params.field, params.num_workers, params.k, params.xs)
    return IrsWord(d=d, code=code, block_rows=shape[0], block_cols=shape[1])


def recover_product(params: PolyCodeParams, word: IrsWord) -> np.ndarray:
    """Reassemble A^T B from a clean (or repaired) interleaved word.

    Each row of word.d is interpolated to its mn polynomial coefficients;
    coefficient j + k*m (the exponent j*exp_a + k*exp_b) is entry (p, q) of
    the block A_j^T B_k, where row index l = p * block_cols + q.
    """
    br, bc = word.block_rows, word.block_cols
    if word.d.shape != (br * bc, params.num_workers):
        raise InvalidParameters("interleaved word shape does not match its block layout")
    msgs = _interpolate_rows(word.code, word.d)
    blocks = msgs.reshape(br, bc, params.n, params.m).transpose(3, 0, 2, 1)
    return blocks.reshape(params.m * br, params.n * bc)
