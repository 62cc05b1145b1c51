"""GRS codes: frozen examples, duality, syndrome oracles, interpolation."""

import numpy as np
import pytest

from irscollab.errors import InvalidParameters, NotACodeword
from irscollab.field import PrimeField, RealField
from irscollab.grs import classical_code, encode, interpolate, make_grs, syndromes

GF7 = PrimeField(7)
RE = RealField()


def gf7_reference_code():
    # alpha_j = 3**j mod 7 = (1, 3, 2, 6, 4, 5); v = 1
    return make_grs(GF7, 6, 2, [1, 3, 2, 6, 4, 5])


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_gf7_encode_frozen_example():
    code = gf7_reference_code()
    # m(x) = 1 + x evaluated at (1,3,2,6,4,5) mod 7
    assert encode(code, [1, 1]).tolist() == [2, 4, 3, 0, 5, 6]


def test_real_dual_multiplier_frozen_example():
    # alphas (1,2,3), v = 1: u_i = 1 / prod_{j != i}(alpha_i - alpha_j)
    code = make_grs(RE, 3, 1, [1.0, 2.0, 3.0])
    assert np.allclose(code.u, [0.5, -1.0, 0.5], atol=1e-15)


def test_dual_multiplier_invariant_holds_at_construction():
    code = gf7_reference_code()
    a = code.alphas
    for i in range(code.n):
        prod = 1
        for j in range(code.n):
            if j != i:
                prod = prod * (int(a[i]) - int(a[j])) % 7
        assert (int(code.u[i]) * int(code.v[i]) * prod) % 7 == 1


def test_make_grs_validation():
    with pytest.raises(InvalidParameters):
        make_grs(GF7, 6, 6, [1, 3, 2, 6, 4, 5])  # k == n
    with pytest.raises(InvalidParameters):
        make_grs(GF7, 6, 0, [1, 3, 2, 6, 4, 5])
    with pytest.raises(InvalidParameters):
        make_grs(GF7, 4, 2, [1, 2, 3, 1])  # repeated point
    with pytest.raises(InvalidParameters):
        make_grs(GF7, 4, 2, [1, 2, 3, 8])  # 8 = 1 mod 7
    with pytest.raises(InvalidParameters):
        make_grs(GF7, 4, 2, [1, 2, 3, 4], v=[1, 0, 1, 1])  # zero multiplier


def test_classical_code_points_are_generator_powers():
    code = classical_code(PrimeField(257), 16, 4)
    g = PrimeField(257).primitive_root()
    expect = [pow(g, j, 257) for j in range(16)]
    assert code.alphas.tolist() == expect
    with pytest.raises(InvalidParameters):
        classical_code(PrimeField(7), 7, 2)  # only p - 1 = 6 powers available


def test_d_min():
    assert gf7_reference_code().d_min == 5
    assert make_grs(RE, 8, 2, 0.9 ** np.arange(1, 9)).d_min == 7


# ---------------------------------------------------------------------------
# Syndromes
# ---------------------------------------------------------------------------

def brute_syndromes_gf(code, r):
    """Independent double-loop oracle for the syndrome map."""
    p = code.field.p
    out = []
    for i in range(code.n - code.k):
        acc = 0
        for j in range(code.n):
            acc = (acc + int(code.u[j]) * int(r[j]) * pow(int(code.alphas[j]), i, p)) % p
        out.append(acc)
    return out


def test_syndromes_of_codewords_vanish_gf():
    code = gf7_reference_code()
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = encode(code, GF7.rand_elements(rng, 2))
        assert np.all(syndromes(code, c) == 0)


def test_syndromes_match_brute_force_oracle():
    code = gf7_reference_code()
    rng = np.random.default_rng(17)
    for _ in range(50):
        r = GF7.rand_elements(rng, 6)
        assert syndromes(code, r).tolist() == brute_syndromes_gf(code, r)


def test_single_error_syndromes_are_geometric():
    code = gf7_reference_code()
    c = encode(code, [1, 1])
    j, e = 3, 4
    r = c.copy()
    r[j] = (r[j] + e) % 7
    s = syndromes(code, r)
    expect = [(int(code.u[j]) * e * pow(int(code.alphas[j]), i, 7)) % 7 for i in range(4)]
    assert s.tolist() == expect


def test_syndromes_of_codewords_vanish_real():
    code = make_grs(RE, 8, 2, 0.9 ** np.arange(1, 9))
    rng = np.random.default_rng(3)
    habs = code.syndrome_matrix_abs()
    for _ in range(1000):
        c = encode(code, rng.standard_normal(2))
        s = syndromes(code, c)
        scale = np.abs(c) @ habs
        assert np.all(RE.is_zero(s, scale=scale))


def test_duality_random_messages_many_fields():
    rng = np.random.default_rng(23)
    code = classical_code(PrimeField(257), 12, 5)
    for _ in range(1000):
        c = encode(code, PrimeField(257).rand_elements(rng, 5))
        assert np.all(syndromes(code, c) == 0)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def test_interpolate_roundtrip_gf():
    code = gf7_reference_code()
    assert interpolate(code, [2, 4, 3, 0, 5, 6]).tolist() == [1, 1]
    rng = np.random.default_rng(29)
    for _ in range(100):
        m = GF7.rand_elements(rng, 2)
        assert np.array_equal(interpolate(code, encode(code, m)), m)


def test_interpolate_rejects_corrupted_word_gf():
    code = gf7_reference_code()
    c = encode(code, [1, 1])
    c[2] = (c[2] + 1) % 7
    with pytest.raises(NotACodeword):
        interpolate(code, c)


def test_interpolate_roundtrip_and_rejection_real():
    code = make_grs(RE, 8, 3, 0.9 ** np.arange(1, 9))
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = rng.standard_normal(3)
        got = interpolate(code, encode(code, m))
        assert np.allclose(got, m, atol=1e-9)
    c = encode(code, rng.standard_normal(3))
    c[5] += 1.0
    with pytest.raises(NotACodeword):
        interpolate(code, c)


def test_min_distance_exhaustive_gf7():
    """All 49 codewords of the (6,2) code over GF(7): min nonzero weight is 5."""
    code = gf7_reference_code()
    weights = []
    for m0 in range(7):
        for m1 in range(7):
            c = encode(code, [m0, m1])
            w = int(np.count_nonzero(c))
            if w:
                weights.append(w)
    assert min(weights) == code.d_min == 5


def test_shape_validation():
    code = gf7_reference_code()
    with pytest.raises(InvalidParameters):
        encode(code, [1, 2, 3])
    with pytest.raises(InvalidParameters):
        syndromes(code, [1, 2, 3])
    with pytest.raises(InvalidParameters):
        interpolate(code, [1, 2, 3])


def test_inverse_powers_are_built_on_first_use_and_cached():
    fld = PrimeField(257)
    code = make_grs(fld, 16, 4, [pow(3, i, 257) for i in range(16)])
    assert code._inv_pows is None
    w = code.inverse_powers()
    assert w.shape == (16, 13) and w.dtype == np.int64 and not w.flags.writeable
    assert code.inverse_powers() is w
    alphas = [int(a) for a in code.alphas]
    assert w.tolist() == [[pow(a, -i, 257) for i in range(13)] for a in alphas]
