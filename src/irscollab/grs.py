"""Reed-Solomon codes on given evaluation points, with dual multipliers.

A code GRS(N, K) over a field F is the set of words c with c_i = m(alpha_i)
for polynomials m of degree < K, where the alpha_i are distinct evaluation
points (the column multipliers of a general GRS code are all 1 here, as they
are for the words of a polynomial code).  The dual multipliers u_i, defined
by u_i^-1 = prod_{j != i} (alpha_i - alpha_j), make the N - K syndrome
functionals S_i(r) = sum_j u_j r_j alpha_j^i vanish exactly on codewords.

The public names are the code (GrsCode, or make_grs, which returns one) and
encode.  The syndromes of a word are decoder.layer_syndromes; the
interpolation of codewords back to messages is _interpolate_rows, which
polycode.recover_product calls.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidParameters, NotACodeword
from .field import RESIDUAL_TOL, Field, PrimeField, RealField, _check_int, _column_norms

__all__ = ["GrsCode", "make_grs", "encode"]


def _cached(build):
    """Method decorator: the matrix build(code), built on first use, made
    read-only and kept on the code."""
    name = build.__name__

    @functools.wraps(build)
    def get(self):
        mat = self._cache.get(name)
        if mat is None:
            mat = build(self)
            mat.setflags(write=False)
            self._cache[name] = mat
        return mat

    return get


class GrsCode:
    """Immutable GRS(n, k) code plus cached evaluation/syndrome matrices.

    The constructor derives the dual multipliers u from alphas, which must
    pass the point rule (_check_points), so every code that can be built can
    be decoded; it raises InvalidParameters unless also 1 <= k < n.  Past
    that check the points are canonical, distinct and nonzero, so u and the
    cached matrices come from the field's raw kernels.
    """

    __slots__ = ("field", "n", "k", "alphas", "u", "_cache")

    def __init__(self, field: Field, n: int, k: int, alphas):
        n, k = _code_size(n, k)
        # Copy: field.array passes a canonical input through, and it must not be frozen.
        alphas = np.array(_check_points(field, alphas, n), copy=True)
        prods = _product_of_differences(field, alphas)
        if isinstance(field, RealField) and np.any(prods == 0.0):
            raise InvalidParameters("evaluation points must be pairwise distinct")
        self.field, self.n, self.k = field, n, k
        self.alphas, self.u = alphas, field._inverse(prods)
        for arr in (self.alphas, self.u):
            arr.setflags(write=False)
        self._cache = {}

    def __repr__(self):
        return f"GrsCode(n={self.n}, k={self.k}, field={self.field!r})"

    # Cached matrices -------------------------------------------------------

    @_cached
    def encoding_matrix(self) -> np.ndarray:
        """N x K matrix G with G[i, j] = alpha_i**j, so c = G @ m."""
        return self.field.power_matrix(self.alphas, self.k)

    @_cached
    def syndrome_matrix(self) -> np.ndarray:
        """N x (N-K) matrix H with H[j, i] = u_j * alpha_j**i, so s = r @ H."""
        powers = self.field.power_matrix(self.alphas, self.n - self.k)
        return self.field._reduce(powers * self.u[:, None])

    @_cached
    def syndrome_matrix_abs(self) -> np.ndarray:
        """Entrywise |syndrome matrix|; magnitude reference for zero tests."""
        return np.abs(self.syndrome_matrix())

    @_cached
    def inverse_powers(self) -> np.ndarray:
        """N x (N+1) matrix W with W[j, i] = alpha_j**-i.

        Row j holds the powers of the candidate root 1/alpha_j, so a locator
        of any degree t <= N is evaluated at every candidate by one product
        with W[:, :t+1], and column 1 holds the candidates themselves.  Built
        on first use; the constructor has checked that the points are nonzero.
        """
        return self.field.power_matrix(self.field._inverse(self.alphas), self.n + 1)

    @_cached
    def candidate_gaps(self) -> np.ndarray:
        """Per-candidate nearest-neighbour distance among the real candidates
        1/alpha_j (inverse_powers' column 1); a real-field quantity."""
        cands = self.inverse_powers()[:, 1]
        diffs = np.abs(cands[:, None] - cands[None, :])
        np.fill_diagonal(diffs, np.inf)
        return diffs.min(axis=1)


def _code_size(n, k):
    """(n, k) as Python ints, or InvalidParameters unless they are integers
    with 1 <= k < n: the one size rule, of GrsCode and decoder.t_max."""
    n, k = _check_int("n", n, 2), _check_int("k", k, 1)
    if k >= n:
        raise InvalidParameters(f"need 1 <= k < n, got n={n}, k={k}")
    return n, k


def _product_of_differences(field: Field, alphas: np.ndarray) -> np.ndarray:
    """prod_{j != i} (alpha_i - alpha_j) for every i, one factor j at a time."""
    out = field.ones(alphas.shape[0])
    for j, alpha in enumerate(alphas):
        diff = field._sub(alphas, alpha)
        diff[j] = 1
        out = field._reduce(out * diff)
    return out


def _check_points(field: Field, alphas, n: int) -> np.ndarray:
    """alphas as a canonical 1-D array of n pairwise distinct nonzero points,
    or InvalidParameters.

    The one point rule of the package: GrsCode (and so PolyCodeParams,
    which builds one) and make_alphas apply it.  The decoders locate errors
    at the inverses 1/alpha_j, so a zero point would make a code that cannot
    be decoded.
    """
    alphas = field.array(alphas)
    if alphas.ndim != 1 or alphas.shape[0] != n:
        raise InvalidParameters(f"evaluation points must be a length-{n} vector")
    if len(set(alphas.tolist())) != n:
        raise InvalidParameters("evaluation points must be pairwise distinct")
    if not alphas.all():
        raise InvalidParameters("evaluation points must be nonzero (the decoders invert them)")
    return alphas


def make_grs(field: Field, n: int, k: int, alphas) -> GrsCode:
    """GrsCode(field, n, k, alphas): the code, checked, with derived u."""
    return GrsCode(field, n, k, alphas)


def _primitive_points(field: Field, n: int) -> np.ndarray:
    """The n points g**j, j in [0, n), g the smallest primitive root of GF(p).

    They are distinct exactly when n <= p - 1; a longer request, or any other
    field, raises InvalidParameters.
    """
    if not isinstance(field, PrimeField):
        raise InvalidParameters("primitive points need a prime field")
    if n > field.p - 1:
        raise InvalidParameters(f"need n <= p - 1 = {field.p - 1} distinct powers, got n={n}")
    return field.power_matrix(field.array([field.primitive_root()]), n)[0]


def encode(code: GrsCode, msg) -> np.ndarray:
    """Codeword c with c_i = m(alpha_i), m the polynomial with coeffs msg."""
    msg = code.field.array(msg)
    if msg.ndim != 1 or msg.shape[0] != code.k:
        raise InvalidParameters(f"message must be a length-{code.k} coefficient vector")
    return code.field._matmul(code.encoding_matrix(), msg)


def _interpolate_rows(code: GrsCode, rows: np.ndarray) -> np.ndarray:
    """Message coefficients for each row of a canonical stack of codewords.

    Over GF(p) the first K positions determine the message exactly, and the
    row is a codeword exactly when its other N - K positions are the
    re-encoding of that message, so only they are checked.  Over the reals
    the fit is the field's least-squares _solve of all N positions, and each
    row must also pass ||G m - r|| <= RESIDUAL_TOL * ||r||; that bound never
    exceeds _solve's, so a row _solve rejects fails it too.  Raises
    NotACodeword when any row fails.
    """
    field = code.field
    gmat = code.encoding_matrix()
    if isinstance(field, PrimeField):
        head = field._solve(gmat[: code.k], rows[:, : code.k].T)[0]
        if head is None:
            raise RuntimeError("leading square system must be invertible")
        if np.any(field._matmul(gmat[code.k:], head).T != rows[:, code.k:]):
            raise NotACodeword("symbols are not consistent with any codeword")
        return head.T
    msgs = field._solve(gmat, rows.T)[0]
    if msgs is None or np.any(_column_norms(gmat @ msgs - rows.T)
                              > RESIDUAL_TOL * _column_norms(rows.T)):
        raise NotACodeword("least-squares residual exceeds the codeword tolerance")
    return msgs.T
