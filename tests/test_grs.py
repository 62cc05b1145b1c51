"""GRS codes: frozen examples, duality, syndrome oracles, interpolation."""

import numpy as np
import pytest

from conftest import brute_syndromes_gf, classical_code
from irscollab.decoder import layer_syndromes
from irscollab.errors import InvalidParameters, NotACodeword
from irscollab.field import PrimeField, RealField
from irscollab.grs import _interpolate_rows, encode, make_grs

GF7 = PrimeField(7)
RE = RealField()


def gf7_reference_code():
    # alpha_j = 3**j mod 7 = (1, 3, 2, 6, 4, 5)
    return make_grs(GF7, 6, 2, [1, 3, 2, 6, 4, 5])


def syndromes(code, r):
    """The syndromes of one word, as the one-layer case of layer_syndromes."""
    return layer_syndromes(code, np.asarray(r)[None]).values[0]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_gf7_encode_frozen_example():
    code = gf7_reference_code()
    # m(x) = 1 + x evaluated at (1,3,2,6,4,5) mod 7
    assert encode(code, [1, 1]).tolist() == [2, 4, 3, 0, 5, 6]


def test_real_dual_multiplier_frozen_example():
    # alphas (1,2,3): u_i = 1 / prod_{j != i}(alpha_i - alpha_j)
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
        assert (int(code.u[i]) * prod) % 7 == 1


def test_make_grs_validation():
    with pytest.raises(InvalidParameters):
        make_grs(GF7, 6, 6, [1, 3, 2, 6, 4, 5])  # k == n
    with pytest.raises(InvalidParameters):
        make_grs(GF7, 6, 0, [1, 3, 2, 6, 4, 5])
    with pytest.raises(InvalidParameters):
        make_grs(GF7, 4, 2, [1, 2, 3, 1])  # repeated point
    with pytest.raises(InvalidParameters):
        make_grs(GF7, 4, 2, [1, 2, 3, 8])  # 8 = 1 mod 7


def test_classical_code_points_are_generator_powers():
    code = classical_code(PrimeField(257), 16, 4)
    g = PrimeField(257).primitive_root()
    expect = [pow(g, j, 257) for j in range(16)]
    assert code.alphas.tolist() == expect
    with pytest.raises(InvalidParameters):
        classical_code(PrimeField(7), 7, 2)  # only p - 1 = 6 powers available


# ---------------------------------------------------------------------------
# Syndromes
# ---------------------------------------------------------------------------

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
        synd = layer_syndromes(code, c[None])
        assert np.array_equal(synd.scale[0], np.abs(c) @ habs)
        assert np.all(RE.is_zero(synd.values, scale=synd.scale))


def test_duality_random_messages_many_fields():
    rng = np.random.default_rng(23)
    code = classical_code(PrimeField(257), 12, 5)
    for _ in range(1000):
        c = encode(code, PrimeField(257).rand_elements(rng, 5))
        assert np.all(syndromes(code, c) == 0)


# ---------------------------------------------------------------------------
# Interpolation (_interpolate_rows, behind polycode.recover_product)
# ---------------------------------------------------------------------------

def test_interpolate_roundtrip_gf():
    code = gf7_reference_code()
    assert _interpolate_rows(code, GF7.array([[2, 4, 3, 0, 5, 6]])).tolist() == [[1, 1]]
    rng = np.random.default_rng(29)
    msgs = GF7.rand_elements(rng, (100, 2))
    rows = np.stack([encode(code, m) for m in msgs])
    assert np.array_equal(_interpolate_rows(code, rows), msgs)


def test_interpolate_rejects_corrupted_word_gf():
    code = gf7_reference_code()
    rows = np.stack([encode(code, [1, 1]), encode(code, [2, 5])])
    rows[1, 2] = (rows[1, 2] + 1) % 7  # one bad row fails the whole stack
    with pytest.raises(NotACodeword):
        _interpolate_rows(code, rows)


@pytest.mark.parametrize("pos", [0, 3, 4, 11])  # 0, K - 1, K and N - 1
@pytest.mark.parametrize("delta", [1, 256])
def test_interpolate_rejects_one_changed_symbol_at_either_side_of_k(pos, delta):
    # Only the last N - K positions are compared with the re-encoding: a
    # change among the first K moves the interpolated message instead, and
    # every other position then disagrees with it.
    gf = PrimeField(257)
    code = make_grs(gf, 12, 4, gf.power_matrix([3], 12)[0])
    msgs = gf.rand_elements(np.random.default_rng(pos), (5, 4))
    rows = np.stack([encode(code, m) for m in msgs])
    assert np.array_equal(_interpolate_rows(code, rows), msgs)
    rows[2, pos] = (rows[2, pos] + delta) % 257
    with pytest.raises(NotACodeword):
        _interpolate_rows(code, rows)


def test_interpolate_roundtrip_and_rejection_real():
    code = make_grs(RE, 8, 3, 0.9 ** np.arange(1, 9))
    rng = np.random.default_rng(31)
    msgs = rng.standard_normal((100, 3))
    got = _interpolate_rows(code, np.stack([encode(code, m) for m in msgs]))
    assert np.allclose(got, msgs, atol=1e-9)
    c = encode(code, rng.standard_normal(3))
    c[5] += 1.0
    with pytest.raises(NotACodeword):
        _interpolate_rows(code, c[None])


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
    assert min(weights) == code.n - code.k + 1 == 5


def test_shape_validation():
    code = gf7_reference_code()
    with pytest.raises(InvalidParameters):
        encode(code, [1, 2, 3])
    with pytest.raises(InvalidParameters):
        layer_syndromes(code, [[1, 2, 3]])


def test_inverse_powers_are_built_on_first_use_and_cached():
    fld = PrimeField(257)
    code = make_grs(fld, 16, 4, [pow(3, i, 257) for i in range(16)])
    assert "inverse_powers" not in code._cache
    w = code.inverse_powers()
    assert w.shape == (16, 17) and w.dtype == np.int64 and not w.flags.writeable
    assert code.inverse_powers() is w
    alphas = [int(a) for a in code.alphas]
    assert w.tolist() == [[pow(a, -i, 257) for i in range(17)] for a in alphas]
