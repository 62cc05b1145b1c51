"""Field abstractions: prime fields GF(p) and a tolerance-aware real field.

Everything else in the package is generic over the two field classes defined
here.  Scalar elements are plain Python ints (GF) or floats (reals); bulk data
lives in numpy arrays.  The field object owns the arithmetic, the zero test,
and the linear algebra the decoders rely on.

Arrays are validated once, at the public methods (array, matmul, rank,
solve_consistent, ...), which the base class Field gives both fields.
Inside, both fields provide the same raw kernels on canonical arrays, so the
public methods and the decoders run one body over either field:

    _reduce(x)       a fresh arithmetic result in canonical form (reduced mod p
                     in place over GF(p); a 0-d result as a scalar);
    _invert(x)       the inverse of a canonical value without zeros;
    _matmul(a, b)    the product a @ b (b 1-D or 2-D);
    _sub(a, b)       the difference a - b, elementwise;
    _solve(a, rhs)   (x, rank) for 2-D a and rhs: x solves a @ x = rhs, or
                     is None when any column of rhs is inconsistent, and
                     rank is the rank of a either way;
    _solve_batch(aug, ncols)
                     (x, rank, consistent) for a stack aug = [a | rhs] of
                     shape (B, ..., width), the axes between the first and
                     the last counting as rows and the first ncols columns
                     as a: per system its rank, whether every column of rhs
                     is solvable, and, where rank[b] == ncols, its solution
                     x[b];
    _agree(x, y, rtol)
                     whether two arrays agree: exactly over GF(p), within
                     rtol of the larger magnitude (at least 1) over the reals.

rank and solve_consistent validate their operands and call _solve.  Over
GF(p) _solve is exact, a blocked elimination that sets free variables to
zero.  Over the reals it is one least-squares factorisation (np.linalg.lstsq)
at the singular-value cutoff RANK_TOL * sigma_max * max(shape): it returns
that rank, and the minimum-norm x when every column passes the RESIDUAL_TOL
residual test.

The GF(p) row scan, PrimeField._scan, takes the rows in blocks that double
in size, reduces each block against the RREF basis of the rows before it
with one matmul, and row-reduces only what is left; the decoders also use it
alone, for the row basis of a deep syndrome matrix.  Once ncols independent
rows are found, every remaining row is checked with one residual matmul, so
the cost of a tall stacked system grows linearly in its height.
A system with more right-hand sides than its first block has rows reduces
[a | I] instead and applies the row transform to every right-hand side with
one matmul.  Many small systems of one shape, such as a Monte Carlo cell's,
go through _solve_batch instead: over GF(p) one masked Gauss-Jordan
elimination of the whole stack (PrimeField._reduce_batch, one step per
column), over the reals one stacked SVD.

A GF(p) matmul that is not tiny runs on float64 BLAS (dgemm) for int64
elements while inner * (p - 1)**2 < 2**53, reduced mod p once at the end;
every partial sum is then an integer below 2**53, so the product is exact
whatever order the BLAS sums in.  Other products use int64 matmuls (in inner
chunks when their sums could pass 2**63), and p above _INT64_SAFE_P uses
Python ints.
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

# Smallest int64 array that PrimeField._coerce range-checks instead of
# reducing: a min/max pass plus a copy beats a % pass from here on (16384 x 40
# at p = 257: 0.83 ms against 4.96 ms), while below about 1024 elements the
# single % pass is faster.
_RANGE_CHECK_MIN = 2**12

# Python int of every element of an object array (a scalar for 0-d input);
# rejects non-integers such as floats.
_as_int = np.frompyfunc(operator.index, 1, 1)

# Moduli below this invert arrays by lookup in a table of all p inverses
# (at most 512 KB), built on first use; larger ones by square-and-multiply.
_INV_TABLE_P = 2**16

# Minimum height of the first row block of PrimeField._solve: systems this
# short are eliminated in one dense pass.
_FIRST_BLOCK = 64


def _is_int(x) -> bool:
    """Whether x is a Python or numpy integer and not a bool: the one check
    of the package's integer parameters."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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


class Field:
    """What both fields share: the public methods, which validate their
    operands once and then run the field's raw kernels.

    A subclass gives its element handling (_coerce, array, dtype, is_zero,
    power_matrix, rand_elements), its identity, and the raw kernels listed
    in the module docstring.
    """

    __slots__ = ()

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
        return self._invert(val)

    def matmul(self, a, b):
        """Matrix product (see _matmul); a 0-d result is a canonical scalar."""
        out = self._matmul(self.array(a), self.array(b))
        return out if np.ndim(out) else self._reduce(out)

    def rank(self, m) -> int:
        """Rank of a 2-D matrix, from _solve: exact over GF(p), where the
        blocked elimination stops once ncols independent rows are found; over
        the reals, the count of singular values above RANK_TOL * sigma_max *
        max(m.shape)."""
        m = self.array(m)
        if m.ndim != 2:
            raise InvalidParameters("rank expects a 2-D matrix")
        return self._solve(m, m[:, :0])[1]

    def solve_consistent(self, a, b):
        """Solution of a @ x = b by _solve, or None when inconsistent.

        b may be a vector or a matrix of stacked right-hand sides (then every
        column must be consistent).  Over GF(p) the solution is exact, with
        free variables set to zero, and a tall full-rank system costs
        O(rows * ncols * (ncols + width)) multiply-adds; over the reals it is
        the least-squares solution, accepted by the residual test of
        RealField._solve.
        """
        a = self.array(a)
        if a.ndim != 2:
            raise InvalidParameters("solve_consistent expects a 2-D coefficient matrix")
        b = self.array(b)
        one_d = b.ndim == 1
        rhs = b[:, None] if one_d else b
        if rhs.shape[0] != a.shape[0]:
            raise InvalidParameters("right-hand side length does not match the matrix")
        x = self._solve(a, rhs)[0]
        if x is None:
            return None
        return x[:, 0] if one_d else x


class PrimeField(Field):
    """The prime field GF(p).  Elements are canonical ints in [0, p)."""

    __slots__ = ("p", "_primitive_root", "_inv_table")

    def __init__(self, p: int):
        if not _is_int(p):
            raise InvalidParameters(f"field modulus must be an integer, got {p!r}")
        p = int(p)
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
        numpy integer.  A large int64 array whose entries already lie in
        [0, p) is copied after one range check instead of reduced.
        """
        if isinstance(x, bool):
            raise TypeError("GF(p) operations take integer operands, got bool")
        if isinstance(x, (int, np.integer)):
            return int(x) % self.p
        arr = np.asarray(x)
        if arr.dtype == object:
            arr = np.asarray(_as_int(arr), dtype=object)
        elif arr.dtype.kind not in "iu":
            raise TypeError(
                f"GF({self.p}) operations take integer operands, got dtype {arr.dtype}"
            )
        elif self.p > _INT64_SAFE_P:
            arr = arr.astype(object)
        elif (arr.dtype == np.int64 and arr.size >= _RANGE_CHECK_MIN
              and arr.min() >= 0 and arr.max() < self.p):
            return arr.copy()
        return arr % self.p

    def array(self, xs) -> np.ndarray:
        """Array of canonical representatives (int64, or object for huge p)."""
        arr = np.asarray(self._coerce(xs))
        if arr.dtype != self.dtype:
            arr = arr.astype(self.dtype)
        return arr

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

    def _invert(self, val):
        return self._inverse(val) if isinstance(val, np.ndarray) else pow(val, self.p - 2, self.p)

    def _inverse(self, a):
        """Elementwise inverse of a canonical array without zeros.

        For p below _INV_TABLE_P, a lookup in a table of every inverse, built
        on first use.  Otherwise a**(p - 2) by square-and-multiply over the
        whole array: about 2 log2(p) array products, not one pow per entry.
        _reduce_batch inverts one pivot vector per column, and the products
        cost about 25 us a call at p = 257 even on a few elements, against
        0.4 us for the lookup (2-core x86); the criterion-3 cell decodes about
        10 % faster with the table.
        """
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
        val = self._coerce(a)
        out = val == 0
        return bool(out) if np.ndim(out) == 0 else out

    def _sub(self, a, b):
        """a - b of canonical operands, as a + (p - b) reduced in place:
        numpy's int64 % is several times faster on non-negative operands."""
        out = a + (self.p - b)
        out %= self.p
        return out

    def _agree(self, x, y, rtol):
        """Exact equality; rtol is ignored over a finite field."""
        return np.array_equal(x, y)

    # -- bulk helpers --------------------------------------------------------

    def power_matrix(self, xs, ncols: int) -> np.ndarray:
        """Matrix P with P[j, i] = xs[j] ** i for i in [0, ncols)."""
        xs = self.array(xs)
        out = np.empty((xs.shape[0], ncols), dtype=xs.dtype)
        if ncols == 0:
            return out
        col = self.ones(xs.shape[0])
        out[:, 0] = col
        for i in range(1, ncols):
            col = (col * xs) % self.p
            out[:, i] = col
        return out

    def _matmul(self, a, b):
        """matmul of canonical arrays (b 1-D or 2-D), exact for every modulus.

        With int64 elements and inner * (p - 1)**2 < 2**53, a product of at
        least _BLAS_MIN_MACS multiply-adds runs on float64 BLAS (dgemm) and is
        reduced mod p only at the end: every partial sum is an integer below
        2**53, so it is exact whatever order or FMA the BLAS uses.  The rows
        of a go through in slabs of about _FLOAT_SLAB elements, each cast to
        float64 and written straight into the int64 result, so the float64
        temporaries stay small even when a is a tall stacked system or the
        result is a whole coded input.  Other int64 products are one int64
        matmul while inner * (p - 1)**2 < 2**63, and int64 matmuls over inner
        chunks whose sums stay below 2**63 beyond that.  Object elements (p
        above _INT64_SAFE_P) use Python-int arithmetic.
        """
        inner = a.shape[-1]
        macs = a.size * (b.shape[1] if b.ndim == 2 else 1)
        if macs >= _BLAS_MIN_MACS and a.dtype != object and inner * (self.p - 1) ** 2 < 2**53:
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
            part = (a[..., k0:k0 + chunk] @ b[k0:k0 + chunk, ...]) % self.p
            out = part if out is None else (out + part) % self.p
        return out

    # -- linear algebra -------------------------------------------------------

    def _row_reduce(self, m, ncols):
        """Reduced row echelon form mod p of a canonical 2-D array.

        Returns (matrix, pivot_columns).  Pivots are searched only in the
        first ncols columns, so callers can append right-hand sides as extra
        columns of an augmented matrix.  Every pivot updates every row, so
        _scan feeds this dense kernel one block at a time.  _reduce_batch
        gives the same RREF, but its masked steps cost about three times as
        much on one matrix (2-core x86, a 64 x 24 block of rank 20 at
        p = 257: 1.1 ms against 0.37 ms); through it, cpda_decode of one
        N = 16, L = 4 word took 3.1 ms instead of 1.3 ms.  Here and in _scan a subtraction adds
        the negation instead, so that % only ever reduces non-negative sums:
        numpy's int64 % is about 3.5 times slower when the signs are mixed
        (197k elements at p = 257: 3.7 ms against 1.1 ms).
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
            m += np.outer(factors, m[r])
            m %= self.p
            piv_cols.append(c)
            r += 1
        return m, piv_cols

    def _reduce_batch(self, m, ncols):
        """RREF mod p of every matrix in a canonical (B, rows, width) stack.

        Axes between the first and the last count as rows: a (B, R, n,
        width) stack is reduced as (B, R * n, width), with one copy.  Pivots
        are searched only in the first ncols columns, as in _row_reduce.
        Returns (reduced, rank, consistent), the last two length-B arrays:
        consistent is whether every row past the rank is zero, that is,
        whether the columns after ncols, as right-hand sides, are solvable.

        Each column is one masked Gauss-Jordan step over the whole stack:
        every matrix with a pivot in that column at or below its rank swaps
        the first such row up, scales it to 1 and clears the column in all
        its other rows, and the other matrices are left as they are.  The
        loop stops early once every matrix has full row rank.  This is the
        batch counterpart of _row_reduce for many small systems of one
        shape, where one step over the stack replaces a Python-level
        elimination per matrix.
        """
        m = np.array(m, order="C")  # a copy, with contiguous rows
        m = m.reshape(len(m), math.prod(m.shape[1:-1]), m.shape[-1])
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
        return m, rank, ~(m.any(axis=2) & (below >= rank[:, None])).any(axis=1)

    def _scan(self, a, rhs):
        """The blocked row scan behind _solve, for canonical 2-D a and rhs.

        Returns (basis, piv, consistent, start): basis is the RREF of the
        rows [a | rhs][:start] without its zero rows (only the coefficient
        columns once consistent is False), piv its pivot columns, and
        consistent whether those rows admit a solution.  The rows are taken
        in blocks that double in size, the first of max(_FIRST_BLOCK,
        2 * ncols) rows.  Each later block is reduced against the basis by one
        matmul, and only what that leaves is row-reduced and folded in, so no
        elimination ever sweeps the whole stack.  The scan stops early only
        once the rank reaches ncols, so the coefficient columns of basis
        always span the rows of a.

        When rhs is wider than the first block is tall, that block is reduced
        as [a | I] instead: the identity columns end up holding the row
        transform T, and one matmul T @ rhs applies it to every right-hand
        side, where carrying them through the elimination would sweep all of
        them once per pivot.
        """
        rows, n = a.shape
        p = self.p
        size = max(_FIRST_BLOCK, 2 * n)
        head = rhs[:size]
        if head.shape[1] > head.shape[0]:
            eye = np.eye(len(head), dtype=self.dtype)
            red, piv = self._row_reduce(np.hstack([a[:size], eye]), n)
            red = np.hstack([red[:, :n], self._matmul(red[:, n:], head)])
        else:
            red, piv = self._row_reduce(np.hstack([a[:size], head]), n)
        r = len(piv)
        consistent = not red[r:, n:].any()
        basis = red[:r]
        start = size
        while start < rows and r < n:
            size *= 2
            stop = start + size
            blk = np.hstack([a[start:stop], rhs[start:stop]]) if consistent else a[start:stop]
            start = stop
            width = blk.shape[1]
            basis = basis[:, :width]
            if r:
                blk = (blk + (p - self._matmul(blk[:, piv], basis))) % p
            red, new = self._row_reduce(blk, n)
            consistent = consistent and not red[len(new):, n:].any()
            if new:
                red = red[:len(new)]
                basis = np.vstack([(basis + (p - self._matmul(basis[:, new], red))) % p, red])
                piv += new
                r = len(piv)
        return basis, piv, consistent, start

    def _solve(self, a, rhs):
        """Blocked exact solve of a @ x = rhs for canonical 2-D a and rhs.

        Returns (x, rank): x is the solution with free variables set to zero,
        or None when any column of rhs is inconsistent, and rank is the exact
        rank of a either way.  The rows go through the blocked scan of _scan;
        a row left with zero coefficients and a nonzero right-hand side makes
        the system inconsistent, and the scan then carries only the
        coefficients, to finish the rank.  Once the rank reaches ncols, the
        remaining rows are checked against x by one residual matmul, so a
        tall full-rank system costs O(rows * ncols * width) multiply-adds.
        The RREF of a row space is unique, so x and the rank do not depend on
        the block boundaries.
        """
        basis, piv, consistent, start = self._scan(a, rhs)
        r = len(piv)
        if not consistent:
            return None, r
        n = a.shape[1]
        x = self.zeros((n, rhs.shape[1]))
        x[piv] = basis[:, n:]
        if start < len(a) and rhs.shape[1] and np.any(self._matmul(a[start:], x) != rhs[start:]):
            return None, r
        return x, r

    def _solve_batch(self, aug, ncols):
        """_solve for every system of an augmented stack, by one
        _reduce_batch (see the module docstring for the contract): at full
        column rank the first ncols rows of the RREF are [I | x].
        """
        red, rank, consistent = self._reduce_batch(aug, ncols)
        return red[:, :ncols, ncols:], rank, consistent

    # Bound in this class's own namespace, where perfbench/spans.py looks them up.
    matmul, rank, solve_consistent = Field.matmul, Field.rank, Field.solve_consistent

    # -- number theory ---------------------------------------------------------

    def primitive_root(self) -> int:
        """Smallest generator of the multiplicative group of GF(p)."""
        if self._primitive_root is not None:
            return self._primitive_root
        if self.p == 2:
            self._primitive_root = 1
            return 1
        n = self.p - 1
        factors = []
        d, left = 2, n
        while d * d <= left:
            if left % d == 0:
                factors.append(d)
                while left % d == 0:
                    left //= d
            d += 1
        if left > 1:
            factors.append(left)
        for g in range(2, self.p):
            if all(pow(g, n // f, self.p) != 1 for f in factors):
                self._primitive_root = g
                return g
        raise RuntimeError("no primitive root found; modulus is not prime")


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
        arr = np.asarray(x, dtype=np.float64)
        return arr

    def array(self, xs) -> np.ndarray:
        arr = np.asarray(self._coerce(xs), dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("real-field arrays must be finite (no NaN or inf)")
        return arr

    def rand_elements(self, rng, shape):
        """Standard normal draws; the conventional generic element sampler."""
        return rng.standard_normal(shape)

    # -- arithmetic ---------------------------------------------------------

    def _reduce(self, out):
        return out

    def _invert(self, val):
        return 1.0 / val

    def is_zero(self, a, scale=1.0):
        """Scale-relative zero test: |a| <= EQ_TOL * max(scale, 1)."""
        val = self._coerce(a)
        out = np.abs(val) <= EQ_TOL * np.maximum(scale, 1.0)
        return bool(out) if np.ndim(out) == 0 else out

    def _sub(self, a, b):
        return a - b

    def _agree(self, x, y, rtol):
        """One shape, and |x - y| <= rtol * max(1, max |x|, max |y|) entrywise."""
        if x.shape != y.shape:
            return False
        scale = max(1.0, np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0))
        return bool(np.abs(x - y).max(initial=0.0) <= rtol * scale)

    # -- bulk helpers --------------------------------------------------------

    def power_matrix(self, xs, ncols: int) -> np.ndarray:
        xs = self.array(xs)
        return np.power.outer(xs, np.arange(ncols, dtype=np.float64))

    def _matmul(self, a, b):
        return a @ b

    # -- linear algebra -------------------------------------------------------

    def _solve(self, a, rhs):
        """One least-squares solve of a @ x = rhs for 2-D a and rhs.

        Returns (x, rank) from one np.linalg.lstsq at rcond = RANK_TOL *
        max(a.shape): rank counts the singular values above RANK_TOL *
        sigma_max * max(a.shape), and x is the minimum-norm solution, or
        None unless every column passes ||a x - b|| <= RESIDUAL_TOL *
        max(||b||, sigma_max ||x||).
        """
        x, _, rank, sv = np.linalg.lstsq(a, rhs, rcond=RANK_TOL * max(a.shape))
        smax = float(sv[0]) if sv.size else 0.0
        bounds = RESIDUAL_TOL * np.maximum(np.linalg.norm(rhs, axis=0),
                                           smax * np.linalg.norm(x, axis=0))
        ok = np.all(np.linalg.norm(a @ x - rhs, axis=0) <= bounds)
        return (x if ok else None), int(rank)

    def _solve_batch(self, aug, ncols):
        """_solve for every system of an augmented stack (see the module
        docstring for the contract), ncols >= 1, by one stacked SVD.

        x holds the minimum-norm solutions from the singular values above
        RANK_TOL * sigma_max * max(rows, ncols), rank their count, and
        consistent whether every right-hand side passes _solve's residual
        test.  This is the batch counterpart of _solve for many small
        systems of one shape: lstsq takes one system a call, and its
        singular values and solutions differ from these only in the last
        bits.
        """
        aug = aug.reshape(len(aug), math.prod(aug.shape[1:-1]), aug.shape[-1])
        # Each right-hand side is copied to contiguous memory: BLAS sums a
        # strided column in another order, so x would depend on the layout
        # of aug in its last bits.
        a, rhs = aug[:, :, :ncols], aug[:, :, ncols:].transpose(0, 2, 1).copy().transpose(0, 2, 1)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        smax = s[:, :1]
        keep = s > RANK_TOL * max(a.shape[1:]) * smax
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        x = vt.transpose(0, 2, 1) @ (inv[:, :, None] * (u.transpose(0, 2, 1) @ rhs))
        bounds = RESIDUAL_TOL * np.maximum(np.linalg.norm(rhs, axis=1),
                                           smax * np.linalg.norm(x, axis=1))
        consistent = np.all(np.linalg.norm(a @ x - rhs, axis=1) <= bounds, axis=1)
        return x, keep.sum(axis=1), consistent

    # Bound in this class's own namespace, where perfbench/spans.py looks them up.
    matmul, rank, solve_consistent = Field.matmul, Field.rank, Field.solve_consistent
