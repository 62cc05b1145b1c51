"""Field abstractions: prime fields GF(p) and a tolerance-aware real field.

Everything else in the package is generic over the two field classes defined
here.  Scalar elements are plain Python ints (GF) or floats (reals); bulk data
lives in numpy arrays.  The field object owns the arithmetic, the zero test,
and the linear algebra the decoders rely on.

Arrays are validated once, at the public methods (array, matmul, rank,
solve_consistent, ...), by _canonical(x): x itself when it is canonical
(int64 in [0, p), by one min/max pass, or finite float64), otherwise a fresh
canonical array.  Functions that only read an operand use that as it is;
array() copies it when it shares memory with x, so the caller owns it.
Inside, both fields provide the same raw kernels on canonical arrays, so the
public methods and the decoders run one body over either field:

    _reduce(x)       a fresh arithmetic result in canonical form (reduced mod p
                     in place over GF(p); a 0-d result as a scalar);
    _inverse(x)      the inverse of a canonical value or array without zeros;
    _matmul(a, b)    the product a @ b (b 1-D, 2-D or a stack of matrices);
    _sub(a, b)       the difference a - b, elementwise;
    _solve_batch(aug, ncols)
                     (x, rank, consistent) for a stack aug = [a | rhs] of
                     shape (B, ..., width), the axes between the first and
                     the last counting as rows and the first ncols columns
                     as a: per system its rank, whether every column of rhs
                     is solvable, and a solution x[b] of shape (ncols, width
                     - ncols) at every rank, meaningful where consistent[b]:
                     over GF(p) the exact one with free variables zero, over
                     the reals the minimum-norm least-squares one;
    _agrees(x, y, rtol)
                     whether two (B, ...) stacks of one shape agree, system
                     by system: exactly over GF(p), within rtol of the larger
                     magnitude (at least 1) over the reals.

Field._agree(x, y, rtol), whether two arrays agree, is _agrees on stacks of
one, so outcomes_equal and the Monte Carlo counts judge by one rule.

Field._solve(a, rhs) is _solve_batch on the stack of the one system
[a | rhs], and rank and solve_consistent validate their operands and call
it, so a single system and a Monte Carlo batch are solved by one kernel, bit
for bit, over either field.  Over the reals that kernel is one stacked SVD,
whose residual tests take their norms from _column_norms, which stays finite
and nonzero at any scale and decides its scaling per system.

Over GF(p) it is PrimeField._reduce_batch, the one exact elimination, in
doubling row blocks; it also gives the decoders the row bases of their
syndrome matrices.

Float64 products over GF(p) follow one rule, PrimeField._float_exact: with
int64 elements, operands bounded by bound_a and bound_b and inner terms per
sum, the product is exact in float64 BLAS (dgemm) while inner * bound_a *
bound_b < 2**53, since every partial sum is then an integer below 2**53,
whatever order the BLAS sums in.  A GF(p) matmul that is not tiny takes
dgemm when the rule holds for canonical operands, bounds (p - 1, p - 1), and
is reduced mod p once at the end; polycode's encodings take it with the
larger bounds of unreduced representatives.  Other products use int64
matmuls (in inner chunks when their sums could pass 2**63), and p above
_INT64_SAFE_P uses Python ints.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InvalidParameters

__all__ = [
    "EQ_TOL",
    "RANK_TOL",
    "ROOT_TOL",
    "RESIDUAL_TOL",
    "PrimeField",
    "RealField",
    "Field",
]

# The real field's tolerances: the scale-relative zero and equality test,
# the singular-value cutoff factor of rank decisions, the window in which a
# locator root matches a candidate, and the relative residual bound of a
# consistent solve.
EQ_TOL = 1e-9
RANK_TOL = 1e-10
ROOT_TOL = 1e-6
RESIDUAL_TOL = 1e-8

# Deterministic Miller-Rabin witnesses for every n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest modulus for which products of two reduced elements fit in int64.
_INT64_SAFE_P = 3_037_000_499

# Elements per slab of float64 temporaries in PrimeField._matmul: about one
# operand row block plus its result rows, small enough to stay in cache.
_FLOAT_SLAB = 2**16

# Smallest GF(p) product, in multiply-adds, that PrimeField._matmul sends to
# float64 BLAS.  Below it the casts cost more than BLAS saves (2-core x86,
# OpenBLAS: 4x16 @ 16x12 takes 3.9 us in int64 and 5.9 us through float64;
# 32x32 @ 32x32 takes 37 us and 16 us).
_BLAS_MIN_MACS = 2**14

# np.linalg.norm squares the entries: while the largest magnitude of an array
# lies in this range, no square overflows, and a column near that magnitude
# loses nothing to underflow.
_NORM_RANGE = (2.0**-400, 2.0**400)

# Python int of every element of an object array (a scalar for 0-d input);
# rejects non-integers such as floats.
_as_int = np.frompyfunc(operator.index, 1, 1)

# Whether each element of an object array is a bool or a string, which both
# fields refuse inside a container as they refuse them as scalars and arrays.
_is_flag_or_text = np.frompyfunc(lambda e: isinstance(e, (bool, np.bool_, str, bytes)), 1, 1)

# Moduli below this invert arrays by lookup in a table of all p inverses
# (at most 512 KB), built on first use; larger ones by square-and-multiply.
_INV_TABLE_P = 2**16

# _prime_factors tries every divisor below this bound before Pollard's rho.
_TRIAL_BOUND = 2**10

# Minimum height of the first row block of PrimeField._reduce_batch: systems
# this short are eliminated in one pass.
_FIRST_BLOCK = 64


def _is_int(x) -> bool:
    """Whether x is a Python or numpy integer and not a bool: the one check
    of the package's integer parameters."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_int(name: str, x, least: int) -> int:
    """x as a Python int, or InvalidParameters unless it is an integer >= least."""
    if not _is_int(x) or x < least:
        raise InvalidParameters(f"{name} must be an integer >= {least}, got {x!r}")
    return int(x)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for base in _MR_BASES:
        if n == base:
            return True
        if n % base == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _refuse_flags(x, arr: np.ndarray, field) -> None:
    """TypeError when x, a list, tuple or object array that numpy read as
    arr, holds a bool or a string: numpy would read True as 1 and, into
    float64, '1.5' as 1.5."""
    if arr.dtype == object or isinstance(x, (list, tuple)):
        elements = arr if arr.dtype == object else np.array(x, dtype=object)
        if np.any(_is_flag_or_text(elements)):
            raise TypeError(f"{field!r} operations take no bool or string elements")


def _column_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns (axis -2) of every system of a (B,
    rows, cols) float stack, at any scale.

    np.linalg.norm squares the entries, so the norm of a column above about
    1e154 comes out inf, and below about 1e-154 it comes out 0.  In a system
    whose largest magnitude lies outside _NORM_RANGE, every column is divided
    by its own largest magnitude and its norm multiplied back (Blue, ACM TOMS
    1978).  Only there: the other systems are divided and multiplied by 1, so
    their norms, and with them every residual test, are np.linalg.norm's bit
    for bit whatever else shares the stack.  A column whose entries all lie
    below 2**-511 beside one in range still underflows.
    """
    low, high = _NORM_RANGE
    top = np.abs(v).max(axis=(-2, -1), initial=0.0)
    if low < top.min(initial=high) and top.max(initial=0.0) < high:
        return np.linalg.norm(v, axis=-2)
    big = np.abs(v).max(axis=-2, keepdims=True, initial=0.0)
    big[(big == 0.0) | ((low < top) & (top < high))[..., None, None]] = 1.0
    return np.linalg.norm(v / big, axis=-2) * big[..., 0, :]


class Field:
    """What both fields share: the public methods, which validate their
    operands once and then run the field's raw kernels.

    A subclass gives its element handling (_coerce, _canonical, dtype,
    is_zero, power_matrix, rand_elements), its identity, and the raw kernels
    listed in the module docstring.
    """

    __slots__ = ()

    def array(self, xs) -> np.ndarray:
        """_canonical(xs), copied when it shares memory with xs: the caller's own."""
        arr = self._canonical(xs)
        return arr.copy() if np.may_share_memory(arr, xs) else arr

    def element(self, x):
        """Canonical representative of a scalar x."""
        val = self._coerce(x)
        if isinstance(val, np.ndarray):
            raise TypeError("element() takes a scalar; use array() for bulk data")
        return val

    def zeros(self, shape):
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape):
        return np.ones(shape, dtype=self.dtype)

    def add(self, a, b):
        return self._reduce(self._coerce(a) + self._coerce(b))

    def mul(self, a, b):
        return self._reduce(self._coerce(a) * self._coerce(b))

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        val = self._coerce(a)
        if np.any(val == 0):
            raise ZeroDivisionError(f"zero has no inverse in {self!r}")
        return self._inverse(val)

    def matmul(self, a, b):
        """Matrix product (see _matmul); a 0-d result is a canonical scalar."""
        out = self._matmul(self._canonical(a), self._canonical(b))
        return out if np.ndim(out) else self._reduce(out)

    def rank(self, m) -> int:
        """Rank of a 2-D matrix, from _solve: exact over GF(p), where the
        blocked elimination stops once every column holds a pivot; over the
        reals, the count of singular values above RANK_TOL * sigma_max *
        max(m.shape)."""
        m = self._canonical(m)
        if m.ndim != 2:
            raise InvalidParameters("rank expects a 2-D matrix")
        return self._solve(m, m[:, :0])[1]

    def solve_consistent(self, a, b):
        """Solution of a @ x = b by _solve, or None when inconsistent.

        b may be a vector or a matrix of stacked right-hand sides (then every
        column must be consistent).  Over GF(p) the solution is exact, with
        free variables set to zero, and a tall full-rank system costs
        O(rows * ncols * (ncols + width)) multiply-adds; over the reals it is
        the minimum-norm least-squares solution, accepted by the residual test
        of RealField._solve_batch.
        """
        a = self._canonical(a)
        if a.ndim != 2:
            raise InvalidParameters("solve_consistent expects a 2-D coefficient matrix")
        b = self._canonical(b)
        one_d = b.ndim == 1
        rhs = b[:, None] if one_d else b
        if rhs.shape[0] != a.shape[0]:
            raise InvalidParameters("right-hand side length does not match the matrix")
        x = self._solve(a, rhs)[0]
        if x is None:
            return None
        return x[:, 0] if one_d else x

    def _agree(self, x, y, rtol) -> bool:
        """Whether x and y have one shape and agree by _agrees."""
        return x.shape == y.shape and bool(self._agrees(x[None], y[None], rtol)[0])

    def _solve(self, a, rhs):
        """(x, rank) of a @ x = rhs for canonical 2-D a and rhs, from
        _solve_batch on the stack of the one system [a | rhs]; x is None
        unless every column of rhs is consistent."""
        x, rank, consistent = self._solve_batch(np.concatenate((a, rhs), axis=1)[None], a.shape[1])
        # x gets a buffer of its own: as a view it kept the whole product of a
        # wide GF(p) solve alive, and matmul-deep's peak RSS rose by 3 MB.
        return (x[0].copy(order="K") if consistent[0] else None), int(rank[0])


class PrimeField(Field):
    """The prime field GF(p).  Elements are canonical ints in [0, p)."""

    __slots__ = ("p", "_primitive_root", "_inv_table")

    def __init__(self, p: int):
        p = _check_int("p", p, 2)
        if not _is_prime(p):
            raise InvalidParameters(f"field modulus must be prime, got {p}")
        self.p = p
        self._primitive_root = None
        self._inv_table = None

    # -- identity ---------------------------------------------------------

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # -- element handling --------------------------------------------------

    @property
    def dtype(self):
        return np.int64 if self.p <= _INT64_SAFE_P else object

    def _coerce(self, x):
        """Reduce x (scalar or array) mod p, rejecting non-integer operands.

        An array result is always a fresh array.  Object elements become
        Python ints, so products of huge elements never wrap in a fixed-width
        numpy integer.  Integer dtypes narrower than 64 bits are widened to
        int64 first, since they may not hold p; uint64 is reduced as it is,
        so entries at or above 2**63 stay exact.
        """
        if isinstance(x, bool):
            raise TypeError("GF(p) operations take integer operands, got bool")
        if isinstance(x, (int, np.integer)):
            return int(x) % self.p
        arr = np.asarray(x)
        if arr.dtype.kind not in "iuO":
            raise TypeError(
                f"GF({self.p}) operations take integer operands, got dtype {arr.dtype}"
            )
        _refuse_flags(x, arr, self)
        if arr.dtype == object:
            arr = np.asarray(_as_int(arr), dtype=object)
        elif self.p > _INT64_SAFE_P:
            arr = arr.astype(object)
        elif arr.dtype.itemsize < 8:
            arr = arr.astype(np.int64)
        return arr % self.p

    def _canonical(self, x) -> np.ndarray:
        """x itself when it is int64 with every entry in [0, p), by one
        min/max pass at any size; otherwise a fresh array of _coerce(x)."""
        if (type(x) is np.ndarray and x.dtype == np.int64 and self.dtype is np.int64
                and x.min(initial=0) >= 0 and x.max(initial=0) < self.p):
            return x
        arr = np.asarray(self._coerce(x))
        return arr if arr.dtype == self.dtype else arr.astype(self.dtype)

    def rand_elements(self, rng, shape):
        """Uniform field elements drawn from rng (p must fit in int64)."""
        if self.p > 2**63 - 1:
            raise InvalidParameters("uniform sampling supports moduli below 2**63 only")
        return rng.integers(0, self.p, size=shape, dtype=np.int64).astype(self.dtype, copy=False)

    # -- arithmetic ---------------------------------------------------------

    def _reduce(self, out):
        """out mod p, reduced in place (callers pass a fresh result); a 0-d
        result becomes an int."""
        out %= self.p
        return int(out) if np.ndim(out) == 0 else out

    def _inverse(self, a):
        """Inverse of a canonical value or array without zeros.

        A scalar is one pow.  An array, for p below _INV_TABLE_P, is a lookup
        in a table of every inverse, built on first use.  Otherwise it is
        a**(p - 2) by square-and-multiply over the whole array: about
        2 log2(p) array products, not one pow per entry.  _eliminate inverts
        one pivot vector per column, and the products cost about 25 us a
        call at p = 257 even on a few elements, against 0.4 us for the
        lookup (2-core x86); the criterion-3 cell decodes about 10 % faster
        with the table.
        """
        if not isinstance(a, np.ndarray):
            return pow(a, self.p - 2, self.p)
        if self.p >= _INV_TABLE_P:
            return self._power(a, self.p - 2)
        if self._inv_table is None:
            self._inv_table = self._power(np.arange(self.p), self.p - 2)
        return self._inv_table[a]

    def _power(self, a, e: int):
        """a**e mod p, elementwise, for a canonical array a."""
        out = self.ones(a.shape)
        while e:
            if e & 1:
                out = out * a % self.p
            e >>= 1
            if e:
                a = a * a % self.p
        return out

    def is_zero(self, a, scale=1.0):
        """Exact zero test; scale is ignored over a finite field."""
        out = self._canonical(a) == 0
        return bool(out) if np.ndim(out) == 0 else out

    def _sub(self, a, b):
        """a - b of canonical operands, as a + (p - b) reduced in place:
        numpy's int64 % is several times faster on non-negative operands."""
        out = a + (self.p - b)
        out %= self.p
        return out

    def _agrees(self, x, y, rtol):
        """Exact equality of each system; rtol is ignored over a finite field."""
        return (x == y).all(axis=tuple(range(1, x.ndim)))

    # -- bulk helpers --------------------------------------------------------

    def power_matrix(self, xs, ncols: int) -> np.ndarray:
        """Matrix P with P[j, i] = xs[j] ** i for i in [0, ncols)."""
        xs = self._canonical(xs)
        out = np.empty((xs.shape[0], ncols), dtype=xs.dtype)
        if ncols == 0:
            return out
        col = self.ones(xs.shape[0])
        out[:, 0] = col
        for i in range(1, ncols):
            col = (col * xs) % self.p
            out[:, i] = col
        return out

    def _float_exact(self, inner: int, bound_a: int, bound_b: int) -> bool:
        """The one exactness rule of float64 products over GF(p): whether a
        product of int64 elements, a's entries in [0, bound_a] and b's in
        [0, bound_b], summed over inner terms, stays below 2**53.  Every
        partial sum is then an integer that float64 holds exactly, so a
        dgemm gives the exact product whatever order or FMA the BLAS uses.
        Object elements (p above _INT64_SAFE_P) never qualify."""
        return self.dtype is np.int64 and inner * bound_a * bound_b < 2**53

    def _matmul(self, a, b):
        """matmul of canonical arrays (b 1-D, 2-D or a stack of matrices),
        exact for every modulus.  A stack of one matrix b multiplies as that
        matrix, which gives the same result.

        With b at most 2-D and _float_exact(inner, p - 1, p - 1), a product
        of at least _BLAS_MIN_MACS multiply-adds runs on float64 BLAS (dgemm)
        and is reduced mod p only at the end.  The rows of a go through in
        slabs of about _FLOAT_SLAB elements, each cast to float64 and written
        straight into the int64 result, so the float64 temporaries stay small
        even when a is a tall stacked system or the result is a whole coded
        input.  Other int64 products are one int64 matmul while inner * (p -
        1)**2 < 2**63, and int64 matmuls over inner chunks whose sums stay
        below 2**63 beyond that.  Object elements (p above _INT64_SAFE_P) use
        Python-int arithmetic.
        """
        inner = a.shape[-1]
        if 2 < b.ndim <= a.ndim and math.prod(b.shape[:-2]) == 1:
            b = b.reshape(b.shape[-2:])
        if (b.ndim <= 2 and a.size * (b.shape[1] if b.ndim == 2 else 1) >= _BLAS_MIN_MACS
                and self._float_exact(inner, self.p - 1, self.p - 1)):
            rows = a.reshape(math.prod(a.shape[:-1]), inner)
            bf = b.astype(np.float64)
            out = np.empty((len(rows),) + b.shape[1:], dtype=np.int64)
            step = max(1, _FLOAT_SLAB // (inner + out[:1].size + 1))
            for r in range(0, len(rows), step):
                out[r:r + step] = rows[r:r + step].astype(np.float64) @ bf
            out %= self.p
            return out.reshape(a.shape[:-1] + b.shape[1:])
        if a.dtype == object or inner * (self.p - 1) ** 2 < 2**63:
            return (a @ b) % self.p
        chunk = max(1, (2**63 - self.p) // ((self.p - 1) ** 2))
        out = None
        for k0 in range(0, inner, chunk):
            bk = b[k0:k0 + chunk] if b.ndim == 1 else b[..., k0:k0 + chunk, :]
            part = (a[..., k0:k0 + chunk] @ bk) % self.p
            out = part if out is None else (out + part) % self.p
        return out

    # -- linear algebra -------------------------------------------------------

    def _row_reduce(self, m, ncols):
        """Reduced row echelon form mod p of a canonical 2-D array.

        Returns (matrix, pivot_columns).  Pivots are searched only in the
        first ncols columns, so callers can append right-hand sides as extra
        columns of an augmented matrix.  Every pivot updates every row, so
        _reduce_batch feeds this dense kernel one block at a time.  It is
        _eliminate's step for a stack of one: the masked steps cost over
        twice as much on one matrix (2-core x86, a 64 x 24 block of rank 20
        at p = 257: 0.70 ms against 0.29 ms), and through them cpda_decode of
        one N = 16, L = 4, t = 9 word took 0.89 ms instead of 0.35 ms.
        Here and in _eliminate a subtraction adds the negation instead, so
        that % only ever reduces non-negative sums: numpy's int64 % is about
        3.5 times slower when the signs are mixed (197k elements at p = 257:
        3.7 ms against 1.1 ms).
        """
        m = np.array(m, order="C")  # a copy, with contiguous rows
        rows = m.shape[0]
        piv_cols = []
        r = 0
        for c in range(ncols):
            if r == rows:
                break
            nz = np.nonzero(m[r:, c])[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                m[[r, pr]] = m[[pr, r]]
            pivot_inv = pow(int(m[r, c]), self.p - 2, self.p)
            m[r] = (m[r] * pivot_inv) % self.p
            factors = self.p - m[:, c]  # the negated column, plus p
            factors[r] = 0
            m += factors[:, None] * m[r]
            m %= self.p
            piv_cols.append(c)
            r += 1
        return m, piv_cols

    def _eliminate(self, m, ncols):
        """(reduced, rank): the RREF mod p of every matrix in a canonical
        (B, rows, width) stack, pivots searched only in the first ncols
        columns, and the length-B array of their ranks.

        A stack of one goes through _row_reduce.  Otherwise each column is
        one masked Gauss-Jordan step over the whole stack: every matrix with
        a pivot in that column at or below its rank swaps the first such row
        up, scales it to 1 and clears the column in all its other rows, and
        the other matrices are left as they are.  The loop stops early once
        every matrix has full row rank.  For many small systems of one
        shape, one step over the stack replaces a Python-level elimination
        per matrix.
        """
        if len(m) == 1:
            red, piv = self._row_reduce(m[0], ncols)
            return red[None], np.array([len(piv)])
        m = np.array(m, order="C")  # a copy, with contiguous rows
        count, rows, _ = m.shape
        p = self.p
        rank = np.zeros(count, dtype=np.intp)
        every, below = np.arange(count), np.arange(rows)
        work = np.empty_like(m)  # the update, then the quotients
        for c in range(ncols):
            if (rank == rows).all():
                break
            cand = (m[:, :, c] != 0) & (below >= rank[:, None])
            has = cand.any(axis=1)
            r = np.minimum(rank, rows - 1)
            q = np.where(has, cand.argmax(axis=1), r)  # no pivot: row r stays put
            prow = m[every, q]
            m[every, q] = m[every, r]
            lead = np.where(has, prow[:, c], 1)
            prow = prow * self._inverse(lead)[:, None] % p
            m[every, r] = prow
            factors = p - m[:, :, c]  # the negated column, plus p
            factors[~has] = 0
            factors[every, r] = 0
            np.multiply(factors[:, :, None], prow[:, None, :], out=work)
            m += work
            # m %= p, by floor division: numpy's int64 // by a scalar is about
            # 2.5 times faster than its % (100 x 24 x 8: 20 us against 50 us).
            np.floor_divide(m, p, out=work)
            work *= p
            m -= work
            rank += has
        return m, rank

    def _place(self, red, rank, ncols):
        """The (B, ncols, width) stack that holds the first rank[b] rows of
        each RREF red[b], every row at its pivot column, and zero rows at the
        other columns: a view of red when every rank is ncols."""
        if red.shape[1] >= ncols and rank.min(initial=ncols) == ncols:
            return red[:, :ncols]
        placed = self.zeros((len(red), ncols, red.shape[2]))
        b, i = np.nonzero(np.arange(red.shape[1]) < rank[:, None])
        placed[b, (red[b, i, :ncols] != 0).argmax(axis=1)] = red[b, i]
        return placed

    def _reduce_batch(self, m, ncols):
        """The RREF basis mod p of every matrix in a canonical (B, rows,
        width) stack, with pivots searched only in the first ncols columns.

        Axes between the first and the last count as rows: a (B, R, n,
        width) stack is reduced as (B, R * n, width).  Returns (basis, rank,
        consistent), the last two length-B arrays.  basis[b] is the RREF
        basis of matrix b placed by _place, each row at its pivot column, and
        consistent[b] whether every row past the rank is zero, that is,
        whether the columns after ncols, as right-hand sides, are solvable;
        basis[b, :, ncols:] is then their solution with free variables zero,
        and otherwise depends on the order of elimination.

        The rows go through in blocks, the first of max(_FIRST_BLOCK,
        2 * ncols) rows and each later one twice the size of the one before.
        A later block is first reduced against every basis by one stacked
        matmul: with each row at its pivot column, blk - blk[:, :, :ncols] @
        basis clears the block's pivot columns.  Only its rows left nonzero
        go through _eliminate, and the new rows clear their pivot columns
        from the basis by one more matmul.  Once every matrix has full column
        rank, the remaining rows only have to satisfy x, which one residual
        matmul checks.  The RREF of a row space is unique, so nothing depends
        on the block boundaries.

        When the first block has fewer rows than right-hand sides, it is
        reduced as [a | I], whose identity columns end up holding the row
        transform T, where carrying every right-hand side through the
        elimination would sweep each of them once per pivot.  One matmul then
        applies T's rows, placed, and its rows past the least rank, whose
        products must be zero, to the block.  It is taken as (block^T T^T)^T,
        so that _matmul casts the wide operand slab by slab.
        """
        m = m.reshape(len(m), math.prod(m.shape[1:-1]), m.shape[-1])
        rows, width = m.shape[1:]
        size = max(_FIRST_BLOCK, 2 * ncols)
        head = m[:, :size]
        if width - ncols > head.shape[1]:
            h = head.shape[1]
            eye = np.broadcast_to(np.eye(h, dtype=m.dtype), (len(m), h, h))
            red, rank = self._eliminate(np.concatenate([head[:, :, :ncols], eye], axis=2), ncols)
            low = rank.min(initial=h)
            t = np.concatenate([self._place(red, rank, ncols), red[:, low:]], axis=1)[:, :, ncols:]
            red = self._matmul(head.swapaxes(1, 2), t.swapaxes(1, 2)).swapaxes(1, 2)
            basis, red = red[:, :ncols], red[:, ncols:]
        else:
            red, rank = self._eliminate(head, ncols)
            low, basis = 0, self._place(red, rank, ncols)
        # The rows from low on are the rest of each basis, then rows that
        # must be zero.
        consistent = red.any(axis=2).sum(axis=1) == rank - low
        start = size
        while start < rows and rank.min(initial=ncols) < ncols:
            size *= 2
            blk = m[:, start:start + size]
            start += size
            blk = self._sub(blk, self._matmul(blk[:, :, :ncols], basis))
            red, new = self._eliminate(blk[:, blk.any(axis=(0, 2))], ncols)
            consistent &= red.any(axis=2).sum(axis=1) == new
            if new.any():
                placed = self._place(red, new, ncols)
                basis = self._sub(basis + placed, self._matmul(basis[:, :, :ncols], placed))
                rank += new
        if start < rows and width > ncols:
            rest = m[:, start:]
            consistent &= (self._matmul(rest[:, :, :ncols], basis[:, :, ncols:])
                           == rest[:, :, ncols:]).all(axis=(1, 2))
        return basis, rank, consistent

    def _solve_batch(self, aug, ncols):
        """The module docstring's _solve_batch, by one _reduce_batch: x is
        the right-hand-side part of the basis."""
        basis, rank, consistent = self._reduce_batch(aug, ncols)
        return basis[:, :, ncols:], rank, consistent

    # Bound in this class's own namespace, where perfbench/spans.py looks them up.
    matmul, rank, solve_consistent = Field.matmul, Field.rank, Field.solve_consistent

    # -- number theory ---------------------------------------------------------

    def primitive_root(self) -> int:
        """Smallest generator of the multiplicative group of GF(p)."""
        if self._primitive_root is None:
            n, factors = self.p - 1, _prime_factors(self.p - 1)
            # g = 1 generates GF(2)'s group alone: n = 1 has no prime factor.
            self._primitive_root = next(g for g in range(1, self.p)
                                        if all(pow(g, n // f, self.p) != 1 for f in factors))
        return self._primitive_root


def _prime_factors(n: int) -> set:
    """The distinct prime factors of n >= 1.

    A factor below _TRIAL_BOUND is found by trial division, and past that a
    composite n is split by _rho.  Trial division alone took 5 s (2-core
    x86) for the 52-bit safe prime p = 4503599627370023, whose p - 1 is
    twice a prime.
    """
    if n == 1 or _is_prime(n):
        return {n} - {1}
    d = next((d for d in range(2, _TRIAL_BOUND) if n % d == 0), None) or _rho(n)
    return _prime_factors(d) | _prime_factors(n // d)


def _rho(n: int) -> int:
    """A proper factor of an odd composite n, by Pollard's rho with Brent's
    cycle search (Brent, BIT 1980)."""
    for c in range(1, n):
        x, y, power, steps, g = 2, 2, 1, 1, 1
        while g == 1:
            if steps == power:
                x, power, steps = y, 2 * power, 0
            y = (y * y + c) % n
            steps += 1
            g = math.gcd(x - y, n)
        if g != n:
            return g
    raise RuntimeError(f"no factor of {n} found")


class RealField(Field):
    """The real numbers with the fixed numerical tolerances above.

    Elements are finite floats; zero tests are relative to a caller-provided
    magnitude scale (clamped below at 1) so that cancellation noise in large
    intermediate quantities is judged fairly.
    """

    __slots__ = ()

    # -- identity ---------------------------------------------------------

    def __repr__(self):
        return "RealField()"

    def __eq__(self, other):
        return isinstance(other, RealField)

    def __hash__(self):
        return hash("RealField")

    # -- element handling --------------------------------------------------

    @property
    def dtype(self):
        return np.float64

    def _coerce(self, x):
        if isinstance(x, bool):
            raise TypeError("real-field operations take numeric operands, got bool")
        if isinstance(x, (int, float, np.integer, np.floating)):
            val = float(x)
            if not np.isfinite(val):
                raise ValueError(f"real-field elements must be finite, got {val!r}")
            return val
        arr = np.asarray(x)
        if arr.dtype.kind not in "iufO":
            raise TypeError(f"real-field operations take numeric operands, got dtype {arr.dtype}")
        _refuse_flags(x, arr, self)
        return np.asarray(arr, dtype=np.float64)

    def _canonical(self, x) -> np.ndarray:
        """x itself when it is finite float64, otherwise a fresh such array."""
        arr = np.asarray(self._coerce(x), dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("real-field arrays must be finite (no NaN or inf)")
        return arr

    def rand_elements(self, rng, shape):
        """Standard normal draws; the conventional generic element sampler."""
        return rng.standard_normal(shape)

    # -- arithmetic ---------------------------------------------------------

    def _reduce(self, out):
        return out

    def _inverse(self, a):
        return 1.0 / a

    def is_zero(self, a, scale=1.0):
        """Scale-relative zero test: |a| <= EQ_TOL * max(scale, 1)."""
        val = self._coerce(a)
        out = np.abs(val) <= EQ_TOL * np.maximum(scale, 1.0)
        return bool(out) if np.ndim(out) == 0 else out

    def _sub(self, a, b):
        return a - b

    def _agrees(self, x, y, rtol):
        """|x - y| <= rtol * max(1, max |x|, max |y|) entrywise, each max
        taken over one system."""
        axes = tuple(range(1, x.ndim))
        scale = np.maximum(np.maximum(np.abs(x).max(axis=axes, initial=0.0),
                                      np.abs(y).max(axis=axes, initial=0.0)), 1.0)
        return np.abs(x - y).max(axis=axes, initial=0.0) <= rtol * scale

    # -- bulk helpers --------------------------------------------------------

    def power_matrix(self, xs, ncols: int) -> np.ndarray:
        xs = self._canonical(xs)
        return np.power.outer(xs, np.arange(ncols, dtype=np.float64))

    def _matmul(self, a, b):
        return a @ b

    # -- linear algebra -------------------------------------------------------

    def _solve_batch(self, aug, ncols):
        """The module docstring's _solve_batch, by one stacked SVD.

        x holds the minimum-norm solutions from the singular values above
        RANK_TOL * sigma_max * max(rows, ncols), at every rank, and rank
        their count.  consistent is whether every right-hand side b passes
        ||a x - b|| <= RESIDUAL_TOL * max(||b||, sigma_max ||x||), with the
        norms of _column_norms.  Systems without rows, coefficient columns
        or right-hand sides are solved as well: sigma_max is 0 when there is
        no singular value.
        """
        aug = aug.reshape(len(aug), math.prod(aug.shape[1:-1]), aug.shape[-1])
        # Each right-hand side is copied to contiguous memory: BLAS sums a
        # strided column in another order, so x would depend on the layout
        # of aug in its last bits.
        a, rhs = aug[:, :, :ncols], aug[:, :, ncols:].transpose(0, 2, 1).copy().transpose(0, 2, 1)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        smax = s.max(axis=1, keepdims=True, initial=0.0)
        keep = s > RANK_TOL * max(a.shape[1:]) * smax
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        x = vt.transpose(0, 2, 1) @ (inv[:, :, None] * (u.transpose(0, 2, 1) @ rhs))
        bounds = RESIDUAL_TOL * np.maximum(_column_norms(rhs), smax * _column_norms(x))
        consistent = np.all(_column_norms(a @ x - rhs) <= bounds, axis=1)
        return x, keep.sum(axis=1), consistent

    # Bound in this class's own namespace, where perfbench/spans.py looks them up.
    matmul, rank, solve_consistent = Field.matmul, Field.rank, Field.solve_consistent
