"""Field arithmetic: frozen examples, algebraic laws, and policy edge cases."""

import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import gauss_jordan_solve, lstsq_solve, svd_rank
from irscollab import field as field_module
from irscollab.errors import InvalidParameters
from irscollab.field import PrimeField, RealField, _is_prime


# ---------------------------------------------------------------------------
# Frozen scalar examples
# ---------------------------------------------------------------------------

def test_gf7_scalar_examples():
    gf7 = PrimeField(7)
    assert gf7.add(3, 5) == 1
    assert gf7.mul(3, 5) == 1
    assert gf7.inv(3) == 5
    assert gf7.inv(1) == 1
    assert gf7.add(2, -5) == 4


def test_gf7_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_real_scalar_examples():
    re = RealField()
    assert re.mul(0.9, 0.9) == pytest.approx(0.81, abs=1e-15)
    assert re.inv(0.5) == 2.0
    assert re.add(0.25, 0.5) == 0.75  # dyadic rationals are exact in binary
    assert re.add(1.5, -0.25) == 1.25
    with pytest.raises(ZeroDivisionError):
        re.inv(0.0)


def test_real_is_zero_scale_policy():
    re = RealField()  # EQ_TOL = 1e-9
    assert re.is_zero(1e-12, scale=1.0)
    assert not re.is_zero(5e-9, scale=1e-6)  # scale clamps up to 1, never below
    assert re.is_zero(5e-9, scale=10.0)
    assert re.is_zero(1e-4, scale=1e6)  # 1e-4 <= 1e-9 * 1e6
    assert not re.is_zero(1e-2, scale=1e6)


def test_gf_is_zero_is_exact():
    gf = PrimeField(257)
    assert gf.is_zero(0)
    assert gf.is_zero(257)
    assert not gf.is_zero(1, scale=1e30)  # scale has no effect


# ---------------------------------------------------------------------------
# Construction errors
# ---------------------------------------------------------------------------

def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 6, 255, 2**31):
        with pytest.raises(InvalidParameters):
            PrimeField(bad)


def test_large_prime_accepted():
    assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_is_prime_reference_values():
    assert [n for n in range(2, 30) if _is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert _is_prime(2**31 - 1)
    assert not _is_prime(2**31 + 1)


def test_mixed_field_operands_rejected():
    gf = PrimeField(7)
    with pytest.raises(TypeError):
        gf.add(0.5, 2)  # real operand in GF arithmetic
    with pytest.raises(TypeError):
        gf.array(np.array([0.5, 1.0]))
    re = RealField()
    with pytest.raises(ValueError):
        re.element(float("nan"))
    with pytest.raises(ValueError):
        re.array([1.0, float("inf")])


# ---------------------------------------------------------------------------
# Algebraic laws on bulk random samples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [7, 257, 2**31 - 1])
def test_field_axioms_random_sample(p):
    gf = PrimeField(p)
    rng = np.random.default_rng(2024)
    a = gf.rand_elements(rng, 10_000)
    b = gf.rand_elements(rng, 10_000)
    c = gf.rand_elements(rng, 10_000)
    assert np.array_equal(gf.add(gf.add(a, b), c), gf.add(a, gf.add(b, c)))
    assert np.array_equal(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)))
    assert np.array_equal(gf.add(a, b), gf.add(b, a))
    assert np.array_equal(gf.mul(a, b), gf.mul(b, a))
    assert np.array_equal(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)))
    assert np.array_equal(gf.add(a, -a), np.zeros_like(np.asarray(a, dtype=np.int64)))


@pytest.mark.parametrize("p", [2, 3, 7, 257])
def test_exhaustive_inverses_small_primes(p):
    gf = PrimeField(p)
    nonzero = np.arange(1, p, dtype=np.int64)
    inv = gf.inv(nonzero)
    assert np.all(gf.mul(nonzero, inv) == 1)


def test_large_p_products_do_not_overflow():
    p = 2**31 - 1
    gf = PrimeField(p)
    a = np.array([p - 1, p - 2], dtype=np.int64)
    b = np.array([p - 1, p - 3], dtype=np.int64)
    expected = [((p - 1) * (p - 1)) % p, ((p - 2) * (p - 3)) % p]
    assert gf.mul(a, b).tolist() == expected
    # matmul accumulates many near-maximal products
    mat = np.full((3, 8), p - 1, dtype=np.int64)
    out = gf.matmul(mat, mat.T)
    assert np.all(out == (8 * (p - 1) * (p - 1)) % p)


# ---------------------------------------------------------------------------
# Linear algebra policies
# ---------------------------------------------------------------------------

def test_gf_rank_and_solve_consistent():
    gf = PrimeField(7)
    a = gf.array([[1, 2], [2, 4], [3, 5]])  # rank 2 (third row independent)
    assert gf.rank(a) == 2
    x = gf.array([3, 4])
    b = gf.matmul(a, x)
    got = gf.solve_consistent(a, b)
    assert got is not None and np.array_equal(got, x)
    # perturb one entry -> inconsistent
    b_bad = b.copy()
    b_bad[0] = (b_bad[0] + 1) % 7
    assert gf.solve_consistent(a, b_bad) is None


def test_gf_solve_underdetermined_zero_fills_free_vars():
    gf = PrimeField(7)
    a = gf.array([[1, 2, 3]])
    sol = gf.solve_consistent(a, gf.array([5]))
    assert sol is not None
    assert np.array_equal(gf.matmul(a, sol), gf.array([5]))
    assert np.count_nonzero(sol) == 1  # free variables pinned to zero


def test_real_rank_svd_policy():
    re = RealField()
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 3))
    assert re.rank(m) == 3
    m2 = np.hstack([m, m[:, :1] + m[:, 1:2]])  # dependent fourth column
    assert re.rank(m2) == 3
    assert re.rank(np.zeros((4, 4))) == 0


def test_real_solve_consistent_residual_policy():
    re = RealField()
    rng = np.random.default_rng(11)
    a = rng.standard_normal((10, 4))
    x = rng.standard_normal(4)
    b = a @ x
    got = re.solve_consistent(a, b)
    assert got is not None
    assert np.allclose(got, x, atol=1e-10)
    assert re.solve_consistent(a, b + rng.standard_normal(10)) is None


def test_real_solve_multi_rhs():
    re = RealField()
    rng = np.random.default_rng(13)
    a = rng.standard_normal((9, 3))
    xs = rng.standard_normal((3, 5))
    got = re.solve_consistent(a, a @ xs)
    assert got is not None and np.allclose(got, xs, atol=1e-10)


@pytest.mark.parametrize("fld", [PrimeField(7), PrimeField(3_037_000_493),
                                 PrimeField(2**61 - 1), RealField()], ids=repr)
def test_raw_sub_matches_sub(fld):
    if isinstance(fld, PrimeField):
        a = fld.array([[0, 1, fld.p - 1], [2, fld.p - 2, 5]])
        b = fld.array([[fld.p - 1, 1, 0], [fld.p - 2, 2, 5]])
    else:
        a, b = np.array([[0.0, 1.5, -2.0]]), np.array([[2.5, 1.5, 0.25]])
    got = fld._sub(a, b)
    assert got.dtype == a.dtype and np.array_equal(got, fld.add(a, -b))
    assert np.array_equal(fld._sub(0, b), fld.add(0, -b))


@st.composite
def _real_systems(draw):
    """(a, rhs, kind, rank): low-rank real systems scaled by 1e-6 to 1e6.

    kind "consistent" takes rhs in the column space of a, "random" draws it
    at the scale of a (inconsistent once rows exceed the rank), and "zero"
    makes a the zero matrix.  "graded" gives a chosen singular values: 1,
    then 1e-4, 1e-8, 1e-14 or one between RANK_TOL and the cutoff
    RANK_TOL * max(shape) (relative to the largest), so its rank is known,
    and takes rhs from the singular directions above the cutoff, so that
    truncating the others leaves no residual.
    "weak" keeps one singular value just above the cutoff and puts rhs
    along it, a consistent system whose b is tiny next to sigma_max * x.
    rank is the expected rank, or None where only the references know it.
    """
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 8))
    rank = draw(st.integers(0, min(rows, cols)))
    width = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["consistent", "random", "zero", "graded", "weak"]))
    scale = 10.0 ** draw(st.floats(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("graded", "weak") and rank:
        edge = field_module.RANK_TOL * np.sqrt(max(rows, cols))
        if kind == "graded":
            sigma = [1.0] + draw(st.lists(st.sampled_from([1e-4, 1e-8, edge, 1e-14]),
                                          min_size=rank - 1, max_size=rank - 1))
        else:
            sigma = [1.0] * (rank - 1) + [3e-9]
        u = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
        a = scale * (u * sigma) @ v.T
        if kind == "graded":
            above = np.array(sigma) > edge
            rhs = scale * (u * sigma)[:, above] @ rng.standard_normal((above.sum(), width))
        else:
            rhs = a @ np.outer(v[:, -1], rng.standard_normal(width))
        return a, rhs, kind, sum(x > edge for x in sigma)
    a = scale * (rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)))
    if kind == "zero":
        a = np.zeros((rows, cols))
    if kind in ("consistent", "graded", "weak"):
        rhs = a @ rng.standard_normal((cols, width))
    else:
        rhs = scale * rng.standard_normal((rows, width))
    return a, rhs, kind, 0 if kind == "zero" or a.size == 0 else None


def _same_solution(got, want, a, full_rank):
    """Both None, or solutions of one shape that agree at full column rank.

    The stacked SVD and lstsq sum in different orders, so x differs from
    lstsq's in its last bits, and by up to cond(a) times that: the bound is
    1e-12 * cond(a) of the larger of 1 and max |want|.  The weak systems have
    cond(a) = 3e8, and differ by about 1e-8."""
    if got is None or want is None:
        return got is None and want is None
    if got.shape != want.shape:
        return False
    if not full_rank or not a.size:
        return True
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return np.allclose(got, want, rtol=0, atol=1e-12 * np.linalg.cond(a) * scale)


@settings(max_examples=300, deadline=None)
@given(_real_systems())
def test_real_solve_matches_lstsq_and_svd_reference(oracle_lstsq, system):
    # The same rank and consistency as the lstsq reference, and at full
    # column rank the same solution to within rounding.
    lstsq_solve, svd_rank = oracle_lstsq
    a, rhs, kind, want_rank = system
    re = RealField()
    x, rank = re._solve(a, rhs)
    assert rank == svd_rank(a) == re.rank(a)
    assert want_rank is None or rank == want_rank
    full = rank == a.shape[1]
    assert _same_solution(x, lstsq_solve(a, rhs), a, full)
    assert _same_solution(re.solve_consistent(a, rhs), lstsq_solve(a, rhs), a, full)
    if rhs.shape[1]:
        assert _same_solution(re.solve_consistent(a, rhs[:, 0]), lstsq_solve(a, rhs[:, 0]), a, full)
    if kind in ("consistent", "graded", "weak"):
        assert x is not None
    elif rhs.shape[1] and len(a) > rank and np.any(rhs):
        assert x is None


@settings(max_examples=200, deadline=None)
@given(_real_systems(), st.sampled_from([-560, 560]))
def test_real_solve_and_rank_are_scale_invariant(system, e):
    # 2**e [a | b] has the rank, consistency and solution of [a | b]; at
    # e = 560 the squared entries overflow and at e = -560 they underflow.
    a, rhs, _, _ = system
    re = RealField()
    c = 2.0**e
    rank = re.rank(a)
    assert re.rank(a * c) == rank
    full = rank == a.shape[1]
    assert _same_solution(re.solve_consistent(a * c, rhs * c), re.solve_consistent(a, rhs), a, full)
    if rhs.shape[1]:
        assert _same_solution(re.solve_consistent(a * c, rhs[:, 0] * c),
                              re.solve_consistent(a, rhs[:, 0]), a, full)


def test_column_norms_stay_finite_and_nonzero_at_any_scale():
    v = np.array([[3.0, 0.0], [4.0, 0.0]])
    for e in (-1070, -600, -560, 0, 560, 1000):
        assert np.array_equal(field_module._column_norms(v * 2.0**e), np.array([5.0, 0.0]) * 2.0**e)
    assert field_module._column_norms(np.zeros((2, 0, 3))).shape == (2, 3)


def _residual_border_system(rng, rows=6, ncols=2):
    """[a | b] with a = [I; 0] and b = [top; 0 ... 0; delta], delta the
    largest value that RealField._solve_batch, alone, still accepts as
    consistent.  The SVD of a, x = top and the residual (0, ..., -delta)
    are exact, so the verdict turns on the last bit of the norm of b."""
    re = RealField()
    aug = np.zeros((rows, ncols + 1))
    aug[:ncols, :ncols] = np.eye(ncols)
    aug[:ncols, ncols] = rng.standard_normal(ncols)
    delta = field_module.RESIDUAL_TOL * np.linalg.norm(aug[:ncols, ncols])
    for step in (np.inf, 0.0):  # up past the border, then down to its last accepted value
        while re._solve_batch(aug[None], ncols)[2][0] == (step == np.inf):
            delta = np.nextafter(delta, step)
            aug[-1, ncols] = delta
    return aug


def test_real_solve_batch_of_a_system_does_not_depend_on_its_stack():
    # Every system of a stack gets the (x, rank, consistent) it gets alone,
    # bit for bit, beside systems at 1e130 and 1e-130, whose norms take the
    # scaled path of _column_norms.  Deciding that path for the whole stack
    # moved the norms of the others in their last bits, and flipped the
    # verdict of systems whose residual lies at the border.
    rng = np.random.default_rng(30)
    border = [_residual_border_system(rng) for _ in range(16)]
    plain = [rng.standard_normal((6, 3)) for _ in range(8)]
    plain += [np.concatenate([a, a @ rng.standard_normal((2, 1))], axis=1)
              for a in (rng.standard_normal((6, 2)) for _ in range(8))]
    scaled = [rng.standard_normal((6, 3)) * c for c in (1e130, 1e-130, 1e130, 1e-130)]
    stack = np.stack(border + plain[:8] + scaled[:2] + plain[8:] + scaled[2:])
    re = RealField()
    x, rank, consistent = re._solve_batch(stack, 2)
    assert consistent[:16].all()
    for i, system in enumerate(stack):
        alone = re._solve_batch(system[None], 2)
        assert x[i].tobytes() == alone[0][0].tobytes()
        assert rank[i] == alone[1][0] and consistent[i] == alone[2][0]
    # The norms of each system are its own, bit for bit.
    norms = field_module._column_norms(stack)
    for i, system in enumerate(stack):
        assert norms[i].tobytes() == field_module._column_norms(system[None])[0].tobytes()


def test_real_solve_rejects_b_along_a_direction_under_the_cutoff(oracle_lstsq):
    # b = a x is consistent, but its part along the singular direction just
    # under the rank cutoff is truncated away and exceeds the residual bound.
    lstsq_solve, _ = oracle_lstsq
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((11, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    sigma = np.array([1.0, field_module.RANK_TOL * np.sqrt(11)])
    a = (u * sigma) @ v.T
    b = a @ (v[:, :1] * 1e-2 + v[:, 1:] * 1e6)
    x, rank = RealField()._solve(a, b)
    assert rank == 1
    assert x is None and lstsq_solve(a, b) is None


def test_primitive_root_orders():
    for p in (7, 257, 65537):
        gf = PrimeField(p)
        g = gf.primitive_root()
        seen = set()
        x = 1
        for _ in range(p - 1):
            seen.add(x)
            x = (x * g) % p
        assert len(seen) == p - 1


def _trial_division_root(p):
    """The smallest primitive root of GF(p), p - 1 factored by trial division."""
    factors, left, d = [], p - 1, 2
    while d * d <= left:
        if left % d == 0:
            factors.append(d)
            while left % d == 0:
                left //= d
        d += 1
    factors += [left] if left > 1 else []
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // f, p) != 1 for f in factors))


def test_primitive_root_matches_trial_division_below_2_16():
    primes = [p for p in range(2, 2**16) if _is_prime(p)]
    assert len(primes) == 6542
    assert all(PrimeField(p).primitive_root() == _trial_division_root(p) for p in primes)


@pytest.mark.parametrize("p", [4503599627370023, 4611686018427377339])
def test_primitive_root_of_a_large_safe_prime_is_fast(p):
    # p = 2q + 1 with q prime, 52 and 62 bits: trial division up to sqrt(q)
    # took seconds and minutes.  g generates GF(p)* when g**2 and g**q are
    # not 1, and no smaller g > 1 does.
    q = (p - 1) // 2
    assert _is_prime(p) and _is_prime(q)
    start = time.perf_counter()
    g = PrimeField(p).primitive_root()
    assert time.perf_counter() - start < 1.0
    assert pow(g, 2, p) != 1 and pow(g, q, p) != 1
    assert all(pow(h, 2, p) == 1 or pow(h, q, p) == 1 for h in range(2, g))


def test_prime_factors_split_two_30_bit_primes():
    # p - 1 = 2 * a * b with a, b primes just above 2**30: the cofactor left
    # after trial division is composite, so Pollard-Brent rho must split it.
    a, b = 1073741827, 1073741987
    p = 2 * a * b + 1
    assert all(map(_is_prime, (a, b, p)))
    assert field_module._prime_factors(p - 1) == {2, a, b}
    g = PrimeField(p).primitive_root()
    assert all(pow(g, (p - 1) // f, p) != 1 for f in (2, a, b))
    assert all(any(pow(h, (p - 1) // f, p) == 1 for f in (2, a, b)) for h in range(2, g))


def test_power_matrix_both_fields():
    gf = PrimeField(7)
    pm = gf.power_matrix(gf.array([3]), 6)
    assert pm[0].tolist() == [1, 3, 2, 6, 4, 5]
    re = RealField()
    pm_r = re.power_matrix(np.array([2.0, 0.0]), 4)
    assert pm_r.tolist() == [[1.0, 2.0, 4.0, 8.0], [1.0, 0.0, 0.0, 0.0]]


# ---------------------------------------------------------------------------
# The GF(p) matmul kernel against Python-int arithmetic
# ---------------------------------------------------------------------------

# The largest prime with (p - 1)**2 < 2**53: float64 dgemm is exact for it
# only at inner size 1, and its int64 chunks hold 1024 products.
FLOAT_EXACT_P = 94_906_249
MATMUL_PRIMES = [2, 257, 65537, FLOAT_EXACT_P, 2**31 - 1, 3_037_000_493, 2**61 - 1]


def _switch_inners(p):
    """Inner sizes around each path switch of _matmul (float64 dgemm while
    inner * (p - 1)**2 < 2**53, one int64 product while it is < 2**63, int64
    chunks after that), kept to those small enough to test."""
    sizes = {0, 1, 7}
    for bound in (2**53, 2**63):
        first_over = -(-bound // (p - 1) ** 2)
        sizes |= {first_over - 1, first_over, first_over + 1, 2 * first_over + 1}
    return sorted(n for n in sizes if 0 <= n <= 4096)


# A 2 x 3 output stays below _BLAS_MIN_MACS at the inner sizes above, and a
# BLAS_SIDE x BLAS_SIDE output reaches it from inner size 1.
BLAS_SIDE = 128


def test_matmul_prime_bounds():
    assert _is_prime(FLOAT_EXACT_P) and (FLOAT_EXACT_P - 1) ** 2 < 2**53
    assert not any(_is_prime(q) for q in range(FLOAT_EXACT_P + 1, math.isqrt(2**53 - 1) + 2))
    assert _switch_inners(FLOAT_EXACT_P) == [0, 1, 2, 3, 5, 7, 1024, 1025, 1026, 2051]
    largest = max(max(_switch_inners(p)) for p in MATMUL_PRIMES)
    assert 2 * 3 * largest < field_module._BLAS_MIN_MACS <= BLAS_SIDE**2


@pytest.mark.parametrize("p", MATMUL_PRIMES)
def test_matmul_worst_case_entries_at_every_switch(p):
    # Entries p - 1 make every product and partial sum as large as it can
    # be; entries p - 2 (odd) make odd products, whose sums a float64 past
    # 2**53 would round.  The exact result is inner * fill**2 mod p.
    fld = PrimeField(p)
    sides = [(2, 3)] if fld.dtype is object else [(2, 3), (BLAS_SIDE, BLAS_SIDE)]
    for fill, (rows, cols), inner in itertools.product({p - 1, p - 2}, sides, _switch_inners(p)):
        a = np.full((rows, inner), fill, dtype=fld.dtype)
        b = np.full((inner, cols), fill, dtype=fld.dtype)
        out = fld.matmul(a, b)
        assert out.dtype == fld.dtype and out.shape == (rows, cols)
        if fld.dtype is object:
            assert all(type(v) is int for v in out.ravel())
        assert np.all(out == inner * fill**2 % p), (fill, rows, inner)


def test_matmul_worst_case_at_the_float_switch_of_65537():
    # inner * 65536**2 reaches 2**53 at inner = 2**21: vectors keep it small.
    p = 65537
    fld = PrimeField(p)
    for inner in (2**21 - 1, 2**21):
        v = np.full(inner, p - 1, dtype=np.int64)
        assert fld.matmul(v, v) == inner % p


@st.composite
def _products(draw):
    """(field, a, b): a 1-D or 2-D, b 1-D, 2-D or a stack of matrices,
    inner sizes near the path switches, sizes on both sides of
    _BLAS_MIN_MACS (a stacked b never takes dgemm), entries uniform or among
    the three largest elements."""
    p = draw(st.sampled_from(MATMUL_PRIMES))
    inner = draw(st.integers(0, 40) | st.sampled_from(_switch_inners(p)))
    cols = draw(st.integers(0, 4)) if draw(st.booleans()) else None
    stack = () if cols is None else draw(st.sampled_from([(), (), (1,), (3,)]))
    b_shape = (inner,) if cols is None else stack + (inner, cols)
    blas_rows = -(-field_module._BLAS_MIN_MACS // max(1, inner * (1 if cols is None else cols)))
    rows = draw(st.integers(0, 4) | st.sampled_from([blas_rows - 1, blas_rows]))
    a_shape = (inner,) if draw(st.booleans()) else (rows, inner)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fld = PrimeField(p)

    def entries(shape):
        spread = min(p, draw(st.sampled_from([3, p])))
        return fld.array(p - 1 - rng.integers(0, spread, size=shape, dtype=np.int64))

    return fld, entries(a_shape), entries(b_shape)


@settings(max_examples=200, deadline=None)
@given(_products())
def test_matmul_matches_python_int_reference(case):
    fld, a, b = case
    want = (a.astype(object) @ b.astype(object)) % fld.p
    got = fld.matmul(a, b)
    if a.ndim == b.ndim == 1:
        assert type(got) is int and got == want
    else:
        assert got.dtype == fld.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


# Rows per float64 slab of a 20-column operand times a 3-column one.
SLAB_ROWS = field_module._FLOAT_SLAB // (20 + 3 + 1)


@pytest.mark.parametrize("p", [257, 65537])
@pytest.mark.parametrize("a_shape, b_shape", [
    ((3 * SLAB_ROWS + 5, 20), (20, 3)),  # a tall stacked system
    ((7, 3), (3, field_module._FLOAT_SLAB + 1)),  # a coded input: one-row slabs
    ((field_module._FLOAT_SLAB + 1,), (field_module._FLOAT_SLAB + 1, 2)),
])
def test_matmul_across_float_slabs(p, a_shape, b_shape):
    fld = PrimeField(p)
    rng = np.random.default_rng(p)
    a = fld.array(p - 1 - rng.integers(0, 3, size=a_shape))
    b = fld.rand_elements(rng, b_shape)
    want = (a.astype(object) @ b.astype(object)) % p
    got = fld.matmul(a, b)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("p", MATMUL_PRIMES)
def test_matmul_vector_product_is_a_python_int(p):
    fld = PrimeField(p)
    got = fld.matmul([1, 2, 3], [p - 1, 4, 5])
    assert type(got) is int and got == (p - 1 + 8 + 15) % p
    assert fld.matmul(fld.zeros(0), fld.zeros(0)) == 0
    assert fld.matmul(fld.zeros(0), fld.zeros((0, 2))).tolist() == [0, 0]


@pytest.mark.parametrize("p", MATMUL_PRIMES)
def test_matmul_zero_inner_dimension(p):
    fld = PrimeField(p)
    out = fld.matmul(fld.zeros((3, 0)), fld.zeros((0, 4)))
    assert out.dtype == fld.dtype and np.array_equal(out, fld.zeros((3, 4)))


# ---------------------------------------------------------------------------
# Blocked GF(p) elimination against the full Gauss-Jordan reference
# ---------------------------------------------------------------------------

# Both sides of the int64-safe boundary (3037000493 is the largest prime
# below _INT64_SAFE_P; 2**61 - 1 takes the object dtype).
SOLVE_PRIMES = [2, 3, 257, 65537, 3_037_000_493, 2**61 - 1]
# With at most 32 columns the first block has _FIRST_BLOCK rows and the
# blocks double, so block k ends at row _FIRST_BLOCK * (2**k - 1).
BLOCK_ENDS = [0] + [field_module._FIRST_BLOCK * (2**k - 1) for k in (1, 2, 3)]


def _assert_matches_reference(reference, fld, a, rhs):
    """rank, solve_consistent and _solve agree with the reference; returns x."""
    x_ref, rank_ref = reference(fld, a, rhs)
    assert fld.rank(a) == rank_ref
    assert fld._solve(a, rhs)[1] == rank_ref
    got = fld.solve_consistent(a, rhs)
    assert (got is None) == (x_ref is None)
    if got is not None:
        assert got.dtype == x_ref.dtype and np.array_equal(got, x_ref)
    if rhs.shape[1] == 1:
        got1 = fld.solve_consistent(a, rhs[:, 0])
        assert (got1 is None) == (x_ref is None)
        assert got1 is None or np.array_equal(got1, x_ref[:, 0])
    return x_ref


@st.composite
def _systems(draw):
    """(field, a, rhs, kind) for tall, possibly rank-deficient systems.

    The first `late` rows span only a subspace of the row space, so pivots
    keep appearing in later blocks; kind "last_row" makes the last row a copy
    of the first (or zero) with a different right-hand side.
    """
    fld = PrimeField(draw(st.sampled_from(SOLVE_PRIMES)))
    n = draw(st.integers(0, 8))
    crossed = draw(st.integers(0, 3))
    rows = BLOCK_ENDS[crossed] + draw(st.integers(0 if crossed == 0 else 1, 40))
    kind = draw(st.sampled_from(["consistent", "random", "last_row"]))
    width = draw(st.integers(1 if kind == "last_row" else 0, 3))
    rank = draw(st.integers(0, n))
    early_rank = draw(st.integers(0, rank))
    late = draw(st.integers(0, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = max(rows, 1) if kind == "last_row" else rows
    basis = fld.rand_elements(rng, (rank, n))
    mix = fld.rand_elements(rng, (rows, rank))
    mix[:late, early_rank:] = 0
    a = fld.matmul(mix, basis) if rank else fld.zeros((rows, n))
    if kind == "random":
        rhs = fld.rand_elements(rng, (rows, width))
    else:
        rhs = fld.matmul(a, fld.rand_elements(rng, (n, width))) if n else fld.zeros((rows, width))
    if kind == "last_row":
        a[-1] = a[0] if rows > 1 else 0
        rhs[-1] = rhs[0] if rows > 1 else 0
        rhs[-1, 0] = (rhs[-1, 0] + 1) % fld.p
    return fld, fld.array(a), fld.array(rhs).reshape(rows, width), kind


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_blocked_solve_matches_gauss_jordan(oracle_solve, system):
    fld, a, rhs, kind = system
    x = _assert_matches_reference(oracle_solve, fld, a, rhs)
    if kind == "consistent":
        assert x is not None
    if kind == "last_row":
        assert x is None


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(SOLVE_PRIMES), rows=st.integers(1, 24), n=st.integers(1, 24),
       width=st.integers(0, 300), consistent=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_solve_wide_rhs_matches_gauss_jordan(oracle_solve, p, rows, n, width,
                                                     consistent, seed):
    # The shape of recover_error_values: N - K syndromes by t locations,
    # one right-hand side per layer.
    fld = PrimeField(p)
    rng = np.random.default_rng(seed)
    a = fld.rand_elements(rng, (rows, min(n, rows)))
    if consistent:
        rhs = fld.matmul(a, fld.rand_elements(rng, (a.shape[1], width)))
    else:
        rhs = fld.rand_elements(rng, (rows, width))
    _assert_matches_reference(oracle_solve, fld, a, rhs)


@st.composite
def _wide_systems(draw):
    """(field, a, rhs, kind) with rhs wider than _solve's first block is tall.

    Short systems fit in the first block; tall ones (up to 64 rows past it)
    also carry the right-hand sides through a second block.  kind
    "one_column" repeats row 0 as the last row with one right-hand side
    changed there, so exactly that column is inconsistent.
    """
    fld = PrimeField(draw(st.sampled_from(SOLVE_PRIMES)))
    kind = draw(st.sampled_from(["consistent", "one_column", "rank_deficient"]))
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(2, 30) | st.integers(BLOCK_ENDS[1] + 1, BLOCK_ENDS[1] + 64))
    first = min(rows, max(field_module._FIRST_BLOCK, 2 * n))
    width = first + draw(st.integers(1, 40))
    rank = draw(st.integers(0, n - 1)) if kind == "rank_deficient" else min(n, rows - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = fld.matmul(fld.rand_elements(rng, (rows, rank)), fld.rand_elements(rng, (rank, n)))
    rhs = fld.matmul(a, fld.rand_elements(rng, (n, width)))
    if kind == "one_column":
        a[-1], rhs[-1] = a[0], rhs[0]
        col = draw(st.integers(0, width - 1))
        rhs[-1, col] = (rhs[-1, col] + 1) % fld.p
    return fld, fld.array(a), fld.array(rhs), kind


@settings(max_examples=120, deadline=None)
@given(_wide_systems())
def test_wide_rhs_solve_applies_the_row_transform(oracle_solve, system):
    # The shapes of recover_error_values (N - K rows, L right-hand sides) and
    # of interpolation (K rows, L right-hand sides).  The first block must be
    # reduced as [a | I], not with every right-hand side carried along.
    fld, a, rhs, kind = system
    widths = []
    kernel = PrimeField._row_reduce

    def recording(self, m, ncols):
        widths.append(m.shape[1])
        return kernel(self, m, ncols)

    x = _assert_matches_reference(oracle_solve, fld, a, rhs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PrimeField, "_row_reduce", recording)
        rank = fld._solve(a, rhs)[1]
    rows, n = a.shape
    assert widths[0] == n + min(rows, max(field_module._FIRST_BLOCK, 2 * n))
    assert (x is None) == (kind == "one_column")
    if kind == "rank_deficient":
        assert rank < n
    if x is not None:
        assert np.array_equal(fld.matmul(a, x), rhs)
        if fld.dtype is object:
            assert all(type(v) is int for v in x.ravel())


@pytest.mark.parametrize("p", SOLVE_PRIMES)
@pytest.mark.parametrize("rows", [0, 1, BLOCK_ENDS[3] + 5])
def test_blocked_solve_all_zero_matrix(p, rows):
    fld = PrimeField(p)
    a = fld.zeros((rows, 3))
    assert fld.rank(a) == 0
    zero_rhs = fld.zeros((rows, 2))
    assert np.array_equal(fld.solve_consistent(a, zero_rhs), fld.zeros((3, 2)))
    if rows:
        rhs = zero_rhs.copy()
        rhs[-1, 1] = 1
        assert fld.solve_consistent(a, rhs) is None
        assert fld._solve(a, rhs)[1] == 0


def test_blocked_solve_row_reduce_heights_stay_bounded(monkeypatch):
    # The work bound behind linear-in-L decoding: on a tall full-rank system
    # the dense kernel only ever sees the first block and the basis, and the
    # remaining rows cost matmuls.
    fld = PrimeField(257)
    rng = np.random.default_rng(2025)
    rows, n = 100_000, 20
    a = fld.rand_elements(rng, (rows, n))
    x = fld.rand_elements(rng, n)
    b = fld.matmul(a, x)
    heights = []
    kernel = PrimeField._row_reduce

    def recording(self, m, ncols):
        heights.append(m.shape[0])
        return kernel(self, m, ncols)

    monkeypatch.setattr(PrimeField, "_row_reduce", recording)
    assert np.array_equal(fld.solve_consistent(a, b), x)
    assert fld.rank(a) == n
    b[-1] = (b[-1] + 1) % fld.p
    assert fld.solve_consistent(a, b) is None
    first = max(field_module._FIRST_BLOCK, 2 * n)
    assert heights and max(heights) <= first + n


@pytest.mark.parametrize("p", [257, 3_037_000_493])
def test_blocked_solve_stops_at_full_column_rank(monkeypatch, p):
    # Once every column holds a pivot, the rows left only have to satisfy x:
    # rank stops after the first block, and solve_consistent checks the rest
    # by one residual product.  No workload reaches this stop, but without it
    # a full-rank 100000 x 20 rank took 39 ms instead of 4-7 ms at p = 257,
    # and 370 ms instead of 4 ms at p = 3037000493 (2-core x86).
    fld = PrimeField(p)
    rng = np.random.default_rng(2026)
    a = fld.rand_elements(rng, (100_000, 20))
    x = fld.rand_elements(rng, 20)
    b = fld.matmul(a, x)
    calls = dict.fromkeys(["_eliminate", "_matmul"], 0)
    for name in calls:
        def counting(self, *args, _name=name, _kernel=getattr(PrimeField, name)):
            calls[_name] += 1
            return _kernel(self, *args)

        monkeypatch.setattr(PrimeField, name, counting)
    assert fld.rank(a) == 20
    assert calls == {"_eliminate": 1, "_matmul": 0}
    assert np.array_equal(fld.solve_consistent(a, b), x)
    assert calls == {"_eliminate": 2, "_matmul": 1}
    b[-1] = (b[-1] + 1) % p
    assert fld.solve_consistent(a, b) is None
    assert calls == {"_eliminate": 3, "_matmul": 2}


# ---------------------------------------------------------------------------
# Coercion: object elements and the range check of canonical int64 arrays
# ---------------------------------------------------------------------------

def test_object_elements_become_python_ints():
    # A numpy integer inside an object array used to survive the reduction
    # and wrap on multiplication: 2**60 squared mod 2**61 - 1 came out 0.
    p = 2**61 - 1
    fld = PrimeField(p)
    a = fld.array(np.array([np.int64(2**60), np.uint64(p + 5), 7], dtype=object))
    assert all(type(v) is int for v in a)
    assert a.tolist() == [2**60, 5, 7]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fld.mul(a, a).tolist() == [2**120 % p, 25, 49]
        assert fld.mul(np.array([np.int64(2**60)], dtype=object), 2**60).tolist() == [2**120 % p]
    assert fld.array(np.array(np.int64(2**60), dtype=object)) == 2**60
    # Object arrays over a small field still come out int64.
    small = PrimeField(257).array(np.array([np.int64(-1), 300], dtype=object))
    assert small.dtype == np.int64 and small.tolist() == [256, 43]


INT_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]


@pytest.mark.parametrize("p", [2, 13, 257, 65537, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
def test_array_reduces_every_integer_dtype_as_python_ints_do(p, dtype):
    # Whether or not the dtype can hold p: int8 and uint8 cannot hold 257,
    # int16 and uint16 cannot hold 65537.  uint64 entries at or above 2**63
    # reduce exactly.
    info = np.iinfo(dtype)
    rng = np.random.default_rng(p % 1000)
    edges = [info.min, info.min + 1, -2, -1, 0, 1, 2, p - 1, p, p + 1, info.max - 1, info.max]
    vals = [v for v in edges if info.min <= v <= info.max]
    vals += rng.integers(info.min, info.max, 50, dtype=dtype, endpoint=True).tolist()
    x = np.array(vals, dtype=dtype)
    fld = PrimeField(p)
    got = fld.array(x)
    assert got.dtype == fld.dtype
    assert [int(v) for v in got] == [int(v) % p for v in vals]
    assert fld.is_zero(x).tolist() == [int(v) % p == 0 for v in vals]


@pytest.mark.parametrize("bad", [np.array([1 + 0j, 5j]), np.array([True, False]),
                                 np.array(["1.5", "2"]), 5j, "1.5", np.bool_(True)],
                         ids=["complex", "bool", "str", "complex-scalar", "str-scalar",
                              "bool-scalar"])
def test_real_field_rejects_what_gf_rejects(bad):
    # Complex values would lose their imaginary part, bools and numeric
    # strings would become floats: each raises TypeError, as over GF(p).
    for fld in (RealField(), PrimeField(257)):
        with pytest.raises(TypeError):
            fld.array(bad)


@pytest.mark.parametrize("fld", [PrimeField(257), PrimeField(2**61 - 1), RealField()], ids=repr)
@pytest.mark.parametrize("bad", [
    [True, 2], (2, False), [[1, 2], [np.True_, 4]], ["1", 2],
    np.array([True, 2], dtype=object), np.array(["1.5", True], dtype=object),
    np.array([[1, 2], [3, "4"]], dtype=object), np.array(True, dtype=object),
], ids=["list-bool", "tuple-bool", "nested-numpy-bool", "list-str", "object-bool",
        "object-str-bool", "object-str", "object-0d-bool"])
def test_fields_reject_bools_and_strings_inside_containers(fld, bad):
    # numpy reads [True, 2] as [1, 2] and, into float64, '1.5' as 1.5: inside
    # a list, a tuple or an object array a bool or a string raises TypeError,
    # as it does as a scalar or as the dtype of an array.
    with pytest.raises(TypeError):
        fld.array(bad)


def test_object_arrays_reject_non_integers():
    for p in (257, 2**61 - 1):
        with pytest.raises(TypeError):
            PrimeField(p).array(np.array([1, 2.5], dtype=object))


GATE = field_module._RANGE_CHECK_MIN


@pytest.mark.parametrize("p", [2, 257, 65537, 3_037_000_493])
@pytest.mark.parametrize("size", [1, GATE - 1, GATE, GATE + 1, 3 * GATE])
@pytest.mark.parametrize("kind", ["canonical", "negative", "p", "p_minus_1", "large"])
def test_array_reduces_int64_on_both_sides_of_the_range_check(p, size, kind):
    fld = PrimeField(p)
    rng = np.random.default_rng(size + p)
    x = rng.integers(0, p, size, dtype=np.int64)
    where = rng.integers(0, size)
    x[where] = {"canonical": x[where], "negative": -1 - x[where], "p": p,
                "p_minus_1": p - 1, "large": 2**62 + 3}[kind]
    before = x.copy()
    got = fld.array(x)
    assert got.dtype == np.int64
    assert got.tolist() == [int(v) % p for v in before.tolist()]
    assert not np.shares_memory(got, x)
    got[:] = 0
    assert np.array_equal(x, before)


@pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.uint8])
def test_array_reduces_other_integer_dtypes(dtype):
    fld = PrimeField(251)
    x = (np.arange(2 * GATE) % 256).astype(dtype)
    got = fld.array(x)
    assert got.dtype == np.int64 and got.tolist() == [int(v) % 251 for v in x.tolist()]
    assert not np.shares_memory(got, x)


# ---------------------------------------------------------------------------
# Batched elimination and array inverses
# ---------------------------------------------------------------------------

FIRST_BLOCK = field_module._FIRST_BLOCK


def _late_inconsistent_row(fld, system, ncols, rng):
    """Make a row past the first block a copy of row 0 whose first
    right-hand side differs, so that the system turns inconsistent only in
    a later block."""
    row = rng.integers(FIRST_BLOCK, len(system))
    system[row] = system[0]
    system[row, ncols] = (system[row, ncols] + 1) % fld.p


@st.composite
def _stacks(draw):
    """(field, (B, rows, width) stack, ncols): matrices of random rank,
    zero ones included, whose first rows may span less than the rest.  Tall
    stacks hold B >= 2 matrices taller than the first block of
    _reduce_batch, some of which turn inconsistent only in a later block."""
    fld = PrimeField(draw(st.sampled_from(SOLVE_PRIMES)))
    tall = draw(st.booleans())
    count = draw(st.integers(2, 4) if tall else st.integers(0, 6))
    rows = draw(st.integers(FIRST_BLOCK + 1, 3 * FIRST_BLOCK + 5) if tall else st.integers(1, 10))
    width = draw(st.integers(1, 10))
    ncols = draw(st.integers(0, width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = fld.zeros((count, rows, width))
    for b in range(count):
        rank = int(rng.integers(0, min(rows, width) + 1))
        if rank:
            mix = fld.rand_elements(rng, (rows, rank))
            mix[:rng.integers(0, rows + 1), rng.integers(0, rank + 1):] = 0
            stack[b] = fld.matmul(mix, fld.rand_elements(rng, (rank, width)))
        if tall and ncols < width and rng.random() < 0.5:
            _late_inconsistent_row(fld, stack[b], ncols, rng)
    return fld, stack, ncols


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_batch_reduce_matches_gauss_jordan_per_matrix(oracle_reduce, case):
    fld, stack, ncols = case
    basis, rank, consistent = fld._reduce_batch(stack, ncols)
    assert basis.shape == (len(stack), ncols, stack.shape[2]) and basis.dtype == stack.dtype
    assert rank.shape == consistent.shape == (len(stack),)
    for got, r, ok, m in zip(basis, rank, consistent, stack):
        want, piv = oracle_reduce(fld, m, ncols)
        # Each RREF row sits at its pivot column, and the other rows are zero.
        # The right-hand sides of an inconsistent matrix's rows depend on
        # the order of elimination, so only a consistent one's are compared.
        cols = slice(None) if ok else slice(ncols)
        assert r == len(piv) and np.array_equal(got[piv, cols], want[:r, cols])
        assert not np.delete(got, piv, axis=0).any()
        assert ok == (oracle_reduce(fld, m, m.shape[1])[1] == piv)
        # The dense step for a stack of one gives the same RREF and pivots.
        one, one_piv = fld._row_reduce(m, ncols)
        assert np.array_equal(one, want) and one_piv == piv


@st.composite
def _augmented_stacks(draw):
    """(field, aug, ncols): B >= 0 augmented systems [a | rhs] over either
    field, as a 3-D stack of random-rank matrices whose right-hand sides are
    consistent or random, or as the 4-D window stack of sums of geometric
    sequences (or random ones) that the batch decoder solves.  Tall GF(p)
    stacks hold B >= 2 systems of different ranks past the first block of
    _reduce_batch, with right-hand sides narrow or wider than the rows, some
    turning inconsistent only in a later block."""
    real = draw(st.booleans())
    fld = RealField() if real else PrimeField(draw(st.sampled_from(SOLVE_PRIMES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, 5))
    if not real and draw(st.booleans()):
        count = draw(st.integers(2, 4))
        rows = draw(st.integers(FIRST_BLOCK + 1, 3 * FIRST_BLOCK + 5))
        ncols = draw(st.integers(1, 6))
        width = draw(st.integers(1, 3) | st.integers(rows + 1, rows + 8))
        aug = fld.zeros((count, rows, ncols + width))
        for b in range(count):
            rank = int(rng.integers(0, ncols + 1))
            mix = fld.rand_elements(rng, (rows, rank))
            mix[:rng.integers(0, rows + 1), rng.integers(0, rank + 1):] = 0
            a = fld.matmul(mix, fld.rand_elements(rng, (rank, ncols)))
            aug[b] = np.hstack([a, fld.matmul(a, fld.rand_elements(rng, (ncols, width)))])
            if rng.random() < 0.5:
                _late_inconsistent_row(fld, aug[b], ncols, rng)
        return fld, aug, ncols
    if draw(st.booleans()):
        layers, n = draw(st.integers(1, 4)), draw(st.integers(2, 10))
        ncols = draw(st.integers(1, n - 1))
        seqs = fld.zeros((count, layers, n))
        for b in range(count):
            terms = int(rng.integers(0, n + 1))
            if terms > 4:  # no common recurrence of a short length
                seqs[b] = fld.rand_elements(rng, (layers, n))
                continue
            if real:
                ratios = rng.choice([0.5, 0.8, 1.1, 1.4, -0.7, -1.2], terms, replace=False)
            else:
                ratios = fld.rand_elements(rng, terms)
            powers = fld.power_matrix(ratios, n)
            seqs[b] = fld.matmul(fld.rand_elements(rng, (layers, terms)), powers)
        return fld, sliding_window_view(seqs, ncols + 1, axis=2), ncols
    rows, ncols, width = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    aug = fld.zeros((count, rows, ncols + width))
    for b in range(count):
        rank = int(rng.integers(0, min(rows, ncols) + 1))
        a = fld.matmul(fld.rand_elements(rng, (rows, rank)), fld.rand_elements(rng, (rank, ncols)))
        consistent = rng.random() < 0.5
        rhs = (fld.matmul(a, fld.rand_elements(rng, (ncols, width))) if consistent
               else fld.rand_elements(rng, (rows, width)))
        aug[b] = np.hstack([a, rhs])
    return fld, aug, ncols


@settings(max_examples=300, deadline=None)
@given(_augmented_stacks())
def test_solve_batch_matches_the_single_system_references(case):
    # Matrix by matrix against the unblocked Gauss-Jordan solve over GF(p)
    # and the lstsq solve over the reals: the same rank and consistency, and
    # the same solution wherever the system is consistent, at any rank over
    # GF(p) (free variables zero) and at full rank over the reals.
    fld, aug, ncols = case
    x, rank, consistent = fld._solve_batch(aug, ncols)
    count, width = len(aug), aug.shape[-1]
    assert rank.shape == consistent.shape == (count,) and len(x) == count
    for b in range(count):
        m = aug[b].reshape(-1, width)
        a, rhs = m[:, :ncols], m[:, ncols:]
        if isinstance(fld, PrimeField):
            want, want_rank = gauss_jordan_solve(fld, a, rhs)
        else:
            want, want_rank = lstsq_solve(a, rhs), svd_rank(a)
        assert rank[b] == want_rank and consistent[b] == (want is not None)
        if consistent[b] and isinstance(fld, PrimeField):
            assert np.array_equal(x[b], want)
        elif rank[b] == ncols and consistent[b]:
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.allclose(x[b], want, rtol=0, atol=1e-9 * scale)
    assert x.shape == (count, ncols, width - ncols)


@pytest.mark.parametrize("shape", [(0, 5, 7), (0, 2, 5, 7), (3, 2, 5, 7)],
                         ids=["empty", "empty-layers", "layers"])
def test_reference_batch_solver_takes_every_stack_that_solve_batch_takes(oracle_solve_batch,
                                                                         shape):
    # Tests patch the reference in as PrimeField._solve_batch, so it must
    # take the same stacks, empty ones and several row axes included, and
    # give the same shapes, dtypes and, on consistent systems, solutions.
    fld, ncols = PrimeField(257), 3
    rng = np.random.default_rng(sum(shape))
    a = fld.rand_elements(rng, (*shape[:-1], ncols))
    aug = np.concatenate([a, fld.matmul(a, fld.rand_elements(rng, (ncols, shape[-1] - ncols)))],
                         axis=-1)
    got, want = oracle_solve_batch(fld, aug, ncols), fld._solve_batch(aug, ncols)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w)
    assert want[2].all()


def test_agree_is_exact_over_gf_and_relative_over_the_reals():
    gf = PrimeField(2**61 - 1)
    a = gf.array([1, 2**60])
    assert gf._agree(a, a.copy(), 1.0)
    assert not gf._agree(a, gf.array([1, 2**60 + 1]), 1.0)
    assert not gf._agree(a, a[:1], 1.0)
    re = RealField()
    x = np.array([1e6, 0.0])
    assert re._agree(x, x + 0.5, 1e-6) and not re._agree(x, x + 2.0, 1e-6)
    # The scale is the larger magnitude of either array, at least 1.
    assert re._agree(np.zeros(1), np.array([2e6]), 1.0)
    assert re._agree(np.array([2e6]), np.zeros(1), 1.0)
    assert not re._agree(np.zeros(1), np.array([0.5]), 0.25)
    assert not re._agree(x, x[:1], 1.0)


@pytest.mark.parametrize("p", [2, 3, 257, 65521, 65537, 3_037_000_493, 2**61 - 1])
def test_inverse_of_arrays_matches_pow(p):
    # Below _INV_TABLE_P by table, above it by square-and-multiply, on
    # int64 and on object elements.
    fld = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    vals = [1, p - 1, p - 2, 2] + [int(v) for v in rng.integers(1, min(p, 2**62), 20)]
    a = fld.array(np.array([v for v in vals if 0 < v < p], dtype=object).reshape(-1, 1))
    got = fld._inverse(a)
    assert got.dtype == fld.dtype and got.shape == a.shape
    assert [int(v) for v in got.ravel()] == [pow(int(v), p - 2, p) for v in a.ravel()]
    assert np.array_equal(fld.inv(a), got)
