"""Field arithmetic: frozen examples, algebraic laws, and policy edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irscollab import field as field_module
from irscollab.errors import InvalidParameters
from irscollab.field import PrimeField, RealField, ToleranceProfile, is_prime


# ---------------------------------------------------------------------------
# Frozen scalar examples
# ---------------------------------------------------------------------------

def test_gf7_scalar_examples():
    gf7 = PrimeField(7)
    assert gf7.add(3, 5) == 1
    assert gf7.mul(3, 5) == 1
    assert gf7.neg(0) == 0
    assert gf7.inv(3) == 5
    assert gf7.inv(1) == 1
    assert gf7.sub(2, 5) == 4


def test_gf7_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_real_scalar_examples():
    re = RealField()
    assert re.mul(0.9, 0.9) == pytest.approx(0.81, abs=1e-15)
    assert re.inv(0.5) == 2.0
    assert re.add(0.25, 0.5) == 0.75  # dyadic rationals are exact in binary
    assert re.sub(1.5, 0.25) == 1.25
    with pytest.raises(ZeroDivisionError):
        re.inv(0.0)


def test_real_is_zero_scale_policy():
    re = RealField()  # eq_tol = 1e-9
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
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 + 1)


def test_tolerance_profile_validation():
    assert ToleranceProfile().eq_tol == 1e-9
    with pytest.raises(InvalidParameters):
        ToleranceProfile(eq_tol=0.0)
    with pytest.raises(InvalidParameters):
        ToleranceProfile(rank_tol=-1e-3)


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
    assert np.array_equal(gf.add(a, gf.neg(a)), np.zeros_like(np.asarray(a, dtype=np.int64)))


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


def test_power_matrix_both_fields():
    gf = PrimeField(7)
    pm = gf.power_matrix(gf.array([3]), 6)
    assert pm[0].tolist() == [1, 3, 2, 6, 4, 5]
    re = RealField()
    pm_r = re.power_matrix(np.array([2.0, 0.0]), 4)
    assert pm_r.tolist() == [[1.0, 2.0, 4.0, 8.0], [1.0, 0.0, 0.0, 0.0]]


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
