"""Tests for collaborative decoding of interleaved GRS words."""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import brute_syndromes_gf, classical_code, gauss_jordan_solve, reference_decode
from irscollab import decoder as decoder_module
from irscollab.decoder import (
    DecodeOutcome,
    ErrorLocator,
    FailureReason,
    SyndromeSet,
    build_stacked,
    cpda_decode,
    is_t_valid,
    layer_syndromes,
    mssr_decode,
    outcomes_equal,
    recover_error_values,
    synthesize_recurrence,
    t_max,
)
from irscollab.errmodel import ErrorModelSpec, inject, sample_error
from irscollab.errors import InvalidParameters
from irscollab.field import PrimeField, RealField
from irscollab.grs import encode, make_grs
from irscollab.harness import make_alphas


def _random_word(code, l, rng):
    """Random L-layer interleaved codeword (stacked encoded rows)."""
    fld = code.field
    if isinstance(fld, PrimeField):
        msgs = fld.rand_elements(rng, (l, code.k))
    else:
        msgs = rng.standard_normal((l, code.k))
    return np.stack([encode(code, msgs[i]) for i in range(l)])


def _planted_instance(code, l, t, rng, spec_kind=None):
    """(clean word, received word, error) with errors in t random columns."""
    fld = code.field
    kind = spec_kind or ("uref" if isinstance(fld, PrimeField) else "gre")
    word = _random_word(code, l, rng)
    err = sample_error(ErrorModelSpec(kind=kind, t=t), fld, l, code.n, rng)
    return word, inject(word, err.e, fld), err


# ---------------------------------------------------------------------------
# t_max
# ---------------------------------------------------------------------------

def test_t_max_frozen_values():
    assert t_max(8, 2, 1) == 3
    assert t_max(8, 2, 6) == 5
    assert t_max(20, 12, 1) == 4
    assert t_max(20, 12, 2) == 5
    assert t_max(20, 12, 20) == 7
    assert t_max(6, 1, 2) == 3
    assert t_max(16, 4, 4) == 9


def test_t_max_exceeds_classical_radius():
    for n, k, l in [(8, 2, 2), (16, 4, 4), (20, 12, 20)]:
        assert t_max(n, k, l) > (n - k) // 2
        assert t_max(n, k, l) < n - k


def test_t_max_validation():
    with pytest.raises(InvalidParameters):
        t_max(6, 6, 2)
    with pytest.raises(InvalidParameters):
        t_max(6, 0, 2)
    with pytest.raises(InvalidParameters):
        t_max(6, 2, 0)


# ---------------------------------------------------------------------------
# Syndromes and the stacked system
# ---------------------------------------------------------------------------

def test_layer_syndromes_matches_per_row_syndromes():
    fld = PrimeField(257)
    code = classical_code(fld, 12, 5)
    rng = np.random.default_rng(7)
    r = fld.rand_elements(rng, (4, 12))
    got = layer_syndromes(code, r)
    assert got.values.tolist() == [brute_syndromes_gf(code, row) for row in r]
    assert got.scale is None


def test_layer_syndromes_real_scale():
    fld = RealField()
    code = make_grs(fld, 5, 2, [0.9 ** i for i in range(1, 6)])
    rng = np.random.default_rng(3)
    r = rng.standard_normal((2, 5))
    got = layer_syndromes(code, r)
    assert got.scale is not None and got.scale.shape == got.values.shape
    # The scale bounds the syndrome magnitudes achievable from |r|.
    assert np.all(np.abs(got.values) <= got.scale + 1e-12)


def test_build_stacked_entries_match_window_definition():
    fld = PrimeField(7)
    code = classical_code(fld, 6, 2)
    rng = np.random.default_rng(11)
    r = fld.rand_elements(rng, (2, 6))
    synd = layer_syndromes(code, r).values  # 2 x 4
    sys2 = build_stacked(code, r, 2)
    assert sys2.matrix.shape == (4, 2) and sys2.rhs.shape == (4,)
    rows = []
    rhs = []
    for layer in range(2):
        for i in range(4 - 2):
            rows.append([synd[layer, i + k] for k in range(2)])
            rhs.append((-synd[layer, 2 + i]) % 7)
    assert np.array_equal(sys2.matrix, np.array(rows))
    assert np.array_equal(sys2.rhs, np.array(rhs))


def test_build_stacked_validation():
    fld = PrimeField(7)
    code = classical_code(fld, 6, 2)
    r = fld.zeros((2, 6))
    with pytest.raises(InvalidParameters):
        build_stacked(code, r, 0)
    with pytest.raises(InvalidParameters):
        build_stacked(code, r, t_max(6, 2, 2) + 1)


def test_single_error_stack_is_geometric():
    # One error at column j makes S_{i+1} = alpha_j S_i, so the t=1 stacked
    # system is consistent with solution c_1 = -alpha_j.
    fld = PrimeField(257)
    code = classical_code(fld, 10, 4)
    for j in [0, 3, 9]:
        r = fld.zeros((1, 10))
        r[0, j] = 123
        sys1 = build_stacked(code, r, 1)
        sol = fld.solve_consistent(sys1.matrix, sys1.rhs)
        assert sol is not None
        assert sol[0] == (-code.alphas[j]) % fld.p


# ---------------------------------------------------------------------------
# Minimal common recurrence synthesis
# ---------------------------------------------------------------------------

def _brute_minimal_recurrence(fld, seqs):
    """Exhaustive minimal-length common recurrence over a tiny prime field."""
    seqs = fld.array(seqs)
    l, n = seqs.shape
    for t in range(0, n + 1):
        for combo in itertools.product(range(fld.p), repeat=t):
            ok = True
            for row in range(l):
                for i in range(t, n):
                    acc = seqs[row, i]
                    for k in range(1, t + 1):
                        acc = (acc + combo[k - 1] * seqs[row, i - k]) % fld.p
                    if acc != 0:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return t, np.array(combo, dtype=np.int64)
    raise AssertionError("unreachable: t = n always works")


def test_synthesis_matches_exhaustive_minimum():
    fld = PrimeField(3)
    rng = np.random.default_rng(5)
    cases = [fld.rand_elements(rng, (l, 5)) for l in (1, 2) for _ in range(40)]
    cases += [
        np.zeros((1, 5), dtype=np.int64),
        np.array([[0, 0, 0, 0, 1]], dtype=np.int64),
        np.array([[1, 0, 0, 0, 0]], dtype=np.int64),
        np.array([[0, 1, 0, 2, 0]], dtype=np.int64),
        np.array([[1, 1, 1, 1, 1], [1, 2, 1, 2, 1]], dtype=np.int64),
    ]
    for seqs in cases:
        t_oracle, _ = _brute_minimal_recurrence(fld, seqs)
        t_got, coeffs = synthesize_recurrence(fld, seqs)
        assert t_got == t_oracle
        # The returned coefficients must actually generate every row.
        for row in range(seqs.shape[0]):
            for i in range(t_got, seqs.shape[1]):
                acc = int(seqs[row, i])
                for k in range(1, t_got + 1):
                    acc = (acc + int(coeffs[k - 1]) * int(seqs[row, i - k])) % 3
                assert acc == 0


def test_synthesis_zero_and_impulse_sequences():
    fld = PrimeField(7)
    t, coeffs = synthesize_recurrence(fld, np.zeros((3, 6), dtype=np.int64))
    assert t == 0 and coeffs.shape == (0,)
    # A lone trailing impulse cannot be generated by any shorter register.
    t, _ = synthesize_recurrence(fld, np.array([[0, 0, 0, 0, 0, 1]]))
    assert t == 6


def test_synthesis_geometric_sequences():
    fld = PrimeField(257)
    n = 10
    for a in (2, 5, 100):
        seq = np.array([[pow(a, i, 257) for i in range(n)]])
        t, coeffs = synthesize_recurrence(fld, seq)
        assert t == 1 and coeffs[0] == (-a) % 257
    # Two different geometric rows need a common length-2 register.
    seqs = np.array([[pow(2, i, 257) for i in range(n)],
                     [pow(5, i, 257) for i in range(n)]])
    t, coeffs = synthesize_recurrence(fld, seqs)
    assert t == 2
    # (1 + c1 z + c2 z^2) has roots 1/2 and 1/5: c1 = -(2+5), c2 = 2*5.
    assert coeffs[0] == (-7) % 257 and coeffs[1] == 10


def test_synthesis_real_with_scales():
    fld = RealField()
    a, b = 0.9, 0.5
    seqs = np.array([[a ** i for i in range(8)], [b ** i for i in range(8)]])
    t, coeffs = synthesize_recurrence(fld, seqs)
    assert t == 2
    assert np.allclose(coeffs, [-(a + b), a * b], atol=1e-9)


SYNTH_PRIMES = [2, 3, 5, 257, 65537, 2**61 - 1]


def _draw_rows(draw, p, l, n):
    """l rows of length n over GF(p), as lists of Python ints: a planted
    common recurrence (its last coefficient possibly zero, one symbol
    possibly perturbed, the initial values possibly sparse), all-zero rows,
    or a lone trailing impulse; the last row possibly a copy of the first."""
    kind = draw(st.sampled_from(["planted", "zeros", "impulse"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    seqs = [[0] * n for _ in range(l)]
    if kind == "impulse" and n:
        seqs[rng.randrange(l)][n - 1] = rng.randrange(1, p)
    elif kind == "planted":
        t = draw(st.integers(0, n))
        coeffs = [rng.randrange(p) for _ in range(t)]
        if t and draw(st.booleans()):
            coeffs[-1] = 0
        sparse = draw(st.booleans())
        for row in seqs:
            row[:t] = [0 if sparse and rng.random() < 0.5 else rng.randrange(p) for _ in range(t)]
            for i in range(t, n):
                row[i] = -sum(coeffs[k - 1] * row[i - k] for k in range(1, t + 1)) % p
        if n and draw(st.booleans()):
            seqs[rng.randrange(l)][rng.randrange(n)] = rng.randrange(p)
    if l > 1 and draw(st.booleans()):
        seqs[-1] = list(seqs[0])
    return seqs


@st.composite
def _sequence_sets(draw):
    """(field, seqs): L x n rows over GF(p) drawn by _draw_rows.  Entries
    are Python ints, so p = 2**61 - 1 runs on object dtype."""
    p = draw(st.sampled_from(SYNTH_PRIMES))
    l, n = draw(st.integers(1, 6)), draw(st.integers(0, 14))
    fld = PrimeField(p)
    return fld, fld.array(np.array(_draw_rows(draw, p, l, n), dtype=object).reshape(l, n))


@settings(max_examples=300, deadline=None)
@given(case=_sequence_sets())
def test_synthesis_matches_gaussian_refit(reference_synthesize, case):
    fld, seqs = case
    t, coeffs = synthesize_recurrence(fld, seqs)
    t_ref, coeffs_ref = reference_synthesize(fld, seqs)
    assert t == t_ref and coeffs.shape == (t,) and coeffs.dtype == fld.dtype
    rows = [[int(v) for v in row] for row in seqs]
    c = [int(v) for v in coeffs]
    for row in rows:
        for i in range(t, len(row)):
            assert (row[i] + sum(c[k - 1] * row[i - k] for k in range(1, t + 1))) % fld.p == 0
    stack = [row[i:i + t] for row in rows for i in range(len(row) - t)]
    if t and stack and fld.rank(np.array(stack, dtype=object)) == t:
        # The recurrence of length t is unique, so both must have found it.
        assert [int(v) for v in coeffs_ref] == c


KERNEL_PRIMES = [2, 3, 257, 65537, 3037000493, 2**61 - 1]


@st.composite
def _sequence_stacks(draw):
    """(field, (B, R, n) stack, heights): B words of _draw_rows' rows over
    one field, word b with heights[b] rows and then zero rows."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    rows, n = draw(st.integers(1, 6)), draw(st.integers(0, 14))
    heights = draw(st.lists(st.integers(1, rows), min_size=1, max_size=12))
    words = [_draw_rows(draw, p, h, n) + [[0] * n] * (rows - h) for h in heights]
    fld = PrimeField(p)
    return fld, fld.array(np.array(words, dtype=object).reshape(len(words), rows, n)), heights


@settings(max_examples=300, deadline=None)
@given(case=_sequence_stacks())
def test_batch_synthesis_matches_single_words(case):
    # Bit for bit, not just the outcome; p = 3037000493 is the largest int64
    # modulus, where summed products of two elements pass 2**63.
    fld, stack, heights = case
    ell, coeffs = decoder_module._synthesize_batch(fld, stack)
    assert coeffs.shape == (len(stack), stack.shape[2]) and coeffs.dtype == fld.dtype
    for b, h in enumerate(heights):
        t, want = decoder_module._synthesize_gf(fld, stack[b, :h])
        assert ell[b] == t
        assert np.array_equal(coeffs[b, :t], want) and not coeffs[b, t:].any()


def _rank_one_errors(fld, l, n, t, rng):
    """Errors in t columns whose L layers are multiples of one row, so the
    syndrome sequences behave like a single one and lengths jump as in the
    classical Berlekamp-Massey algorithm."""
    e = fld.zeros((l, n))
    e[:, rng.choice(n, t, replace=False)] = fld.matmul(rng.integers(1, fld.p, (l, 1)),
                                                       rng.integers(1, fld.p, (1, t)))
    return e


@pytest.mark.parametrize("rank_one,t", [(False, 20), (True, 10)])
def test_synthesis_work_is_bounded_per_position(monkeypatch, rank_one, t):
    # No elimination sweeps the L = 16384 deep stack: at most one solve per
    # position, on no more columns than positions, and at most four products
    # per position, none larger than the L x n syndrome block.  Refitting
    # prefix systems at each discrepancy fails this on the rank-one words,
    # whose lengths jump by several positions at once.
    fld = PrimeField(257)
    code = make_grs(fld, 40, 16, [pow(fld.primitive_root(), i, fld.p) for i in range(40)])
    rng = np.random.default_rng(600 + t)
    l = 16384
    if rank_one:
        e = _rank_one_errors(fld, l, 40, t, rng)
    else:
        e = sample_error(ErrorModelSpec(kind="uref", t=t), fld, l, 40, rng).e
    seqs = layer_syndromes(code, e).values
    n = seqs.shape[1]
    solves, products = [], []
    solve, matmul = PrimeField._solve, PrimeField._matmul

    def counting_solve(self, a, rhs):
        solves.append(a.shape[1])
        return solve(self, a, rhs)

    def counting_matmul(self, a, b):
        products.append(a.size * (b.shape[1] if b.ndim == 2 else 1))
        return matmul(self, a, b)

    monkeypatch.setattr(PrimeField, "_solve", counting_solve)
    monkeypatch.setattr(PrimeField, "_matmul", counting_matmul)
    got, _ = synthesize_recurrence(fld, seqs)
    assert got == t
    assert len(solves) <= n and max(solves, default=0) <= n
    assert len(products) <= 4 * n and max(products) <= seqs.size


# ---------------------------------------------------------------------------
# Locator validity
# ---------------------------------------------------------------------------

def test_is_t_valid_gf_examples():
    fld = PrimeField(257)
    code = classical_code(fld, 10, 4)
    a0, a1 = int(code.alphas[0]), int(code.alphas[1])
    # (1 - a0 z)(1 - a1 z): two distinct on-grid roots.
    good = ErrorLocator(np.array([(-(a0 + a1)) % 257, (a0 * a1) % 257]))
    valid, locs = is_t_valid(code, good)
    assert valid and locs == (0, 1)
    # (1 - a0 z)^2: a repeated root is not two distinct locations.
    double = ErrorLocator(np.array([(-2 * a0) % 257, (a0 * a0) % 257]))
    valid, _ = is_t_valid(code, double)
    assert not valid
    # A root off the evaluation grid.
    beta = 251  # not a power of the primitive root within the first 10
    assert beta not in set(code.alphas.tolist())
    off = ErrorLocator(np.array([(-beta) % 257]))
    valid, _ = is_t_valid(code, off)
    assert not valid
    # Degree-t coefficient of zero means the declared degree is wrong.
    degenerate = ErrorLocator(np.array([(-a0) % 257, 0]))
    valid, _ = is_t_valid(code, degenerate)
    assert not valid


def test_is_t_valid_real_examples():
    fld = RealField()
    alphas = np.array([0.9 ** i for i in range(1, 9)])
    code = make_grs(fld, 8, 2, alphas)
    a0, a3 = alphas[0], alphas[3]
    coeffs = np.array([-(a0 + a3), a0 * a3])
    valid, locs = is_t_valid(code, ErrorLocator(coeffs))
    assert valid and locs == (0, 3)
    # Solver-level perturbation of the coefficients must still be accepted.
    valid, locs = is_t_valid(code, ErrorLocator(coeffs * (1 + 1e-10)))
    assert valid and locs == (0, 3)
    # A root midway between two candidate points must be rejected.
    mid = 0.5 * (1 / alphas[0] + 1 / alphas[1])
    valid, _ = is_t_valid(code, ErrorLocator(np.array([-1.0 / mid])))
    assert not valid
    # Complex conjugate root pairs never match the real grid.
    valid, _ = is_t_valid(code, ErrorLocator(np.array([0.0, 1.0])))
    assert not valid


def test_is_t_valid_empty_locator():
    fld = PrimeField(7)
    code = classical_code(fld, 6, 2)
    valid, locs = is_t_valid(code, ErrorLocator(np.zeros(0, dtype=np.int64)))
    assert valid and locs == ()


def _locator_from_points(p, betas):
    """(c_1, ..., c_t) of prod (1 - beta z) over the betas, by Python ints."""
    poly = [1]
    for beta in betas:
        poly = [(a - beta * b) % p for a, b in zip(poly + [0], [0] + poly)]
    return poly[1:]


def test_is_t_valid_takes_locators_of_any_degree():
    # Degrees past N - K = 6 need powers of the candidates beyond those the
    # decoders use; past N = 8 no locator has t distinct candidate roots.
    fld = PrimeField(257)
    code = classical_code(fld, 8, 2)
    alphas = [int(a) for a in code.alphas]
    for t in (7, 8):
        locator = ErrorLocator(np.array(_locator_from_points(257, alphas[:t])))
        assert is_t_valid(code, locator) == (True, tuple(range(t)))
    nine = ErrorLocator(np.array(_locator_from_points(257, alphas + [alphas[0]])))
    assert is_t_valid(code, nine) == (False, ())


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([13, 257, 65537, 2**61 - 1]), data=st.data())
def test_gf_is_t_valid_matches_direct_evaluation(p, data):
    # Lambda evaluated at every 1/alpha_j in Python ints: degrees 1..N+1,
    # locators with c_t = 0, and roots that repeat or miss the candidates.
    fld = PrimeField(p)
    n = data.draw(st.integers(2, 12))
    code = classical_code(fld, n, data.draw(st.integers(1, n - 1)))
    alphas = [int(a) for a in code.alphas]
    t = data.draw(st.integers(1, n + 1))
    kind = data.draw(st.sampled_from(["random", "points", "low_degree"]))
    if kind == "random":
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=t, max_size=t))
    else:
        degree = t if kind == "points" else data.draw(st.integers(0, t - 1))
        point = st.one_of(st.sampled_from(alphas), st.integers(1, p - 1))
        betas = data.draw(st.lists(point, min_size=degree, max_size=degree))
        coeffs = _locator_from_points(p, betas) + [0] * (t - degree)
    roots = tuple(j for j, a in enumerate(alphas)
                  if (1 + sum(c * pow(a, -i, p) for i, c in enumerate(coeffs, 1))) % p == 0)
    want = (True, roots) if len(roots) == t else (False, ())
    assert is_t_valid(code, ErrorLocator(np.array(coeffs, dtype=np.int64))) == want


def test_error_locator_rejects_coefficients_that_are_not_a_vector():
    for coeffs in (np.ones((2, 2), dtype=np.int64), [[1], [2]], np.zeros((1, 1, 1))):
        with pytest.raises(InvalidParameters, match="vector"):
            ErrorLocator(coeffs)
    assert ErrorLocator(5).coeffs.tolist() == [5]


# ---------------------------------------------------------------------------
# Error-value recovery
# ---------------------------------------------------------------------------

def test_recover_error_values_roundtrip_gf():
    fld = PrimeField(257)
    code = classical_code(fld, 12, 5)
    rng = np.random.default_rng(17)
    err = sample_error(ErrorModelSpec(kind="uref", t=3), fld, 4, 12, rng)
    synd = layer_syndromes(code, err.e)
    got = recover_error_values(code, err.support, synd)
    assert np.array_equal(got, err.e[:, list(err.support)])


def test_recover_error_values_roundtrip_real():
    fld = RealField()
    code = make_grs(fld, 8, 2, [0.9 ** i for i in range(1, 9)])
    rng = np.random.default_rng(23)
    err = sample_error(ErrorModelSpec(kind="gre", t=3), fld, 2, 8, rng)
    synd = layer_syndromes(code, err.e)
    got = recover_error_values(code, err.support, synd)
    assert got is not None
    assert np.allclose(got, err.e[:, list(err.support)], atol=1e-8)


def test_recover_error_values_rejects_wrong_support():
    # Syndromes of an error at columns {0, 1} cannot be explained at {4, 5}.
    fld = PrimeField(257)
    code = classical_code(fld, 12, 5)
    e = fld.zeros((2, 12))
    e[:, 0] = 9
    e[:, 1] = 20
    synd = layer_syndromes(code, e)
    assert recover_error_values(code, [4, 5], synd) is None


def test_recover_error_values_empty_support():
    fld = PrimeField(7)
    code = classical_code(fld, 6, 2)
    synd = layer_syndromes(code, fld.zeros((3, 6)))
    got = recover_error_values(code, (), synd)
    assert got.shape == (3, 0)


@pytest.mark.parametrize("locations", [[-1], [12], [1, 1], [1.0], [True], ["1"]])
def test_recover_error_values_rejects_bad_locations(locations):
    fld = PrimeField(257)
    code = classical_code(fld, 12, 5)
    synd = layer_syndromes(code, fld.zeros((2, 12)))
    with pytest.raises(InvalidParameters, match="locations must be"):
        recover_error_values(code, locations, synd)


@pytest.mark.parametrize("kind", ["complex", "bool"])
@pytest.mark.parametrize("field", [RealField(), PrimeField(257)], ids=repr)
def test_decoders_refuse_complex_and_bool_words(field, kind):
    # A real word whose only error is 5j in column 3 once decoded as a clean
    # word, its imaginary part dropped with only a ComplexWarning.
    code = make_grs(field, 8, 2, make_alphas(field, 8))
    word = field._matmul(field.ones((2, 2)), code.encoding_matrix().T)
    bad = word + np.eye(1, 8, 3) * 5j if kind == "complex" else word != 0
    for decode in (cpda_decode, mssr_decode):
        with pytest.raises(TypeError):
            decode(code, bad)


@pytest.mark.parametrize("shape", [(2, 6), (2, 8), (7,), (2, 7, 1)])
def test_recover_error_values_rejects_wrong_syndrome_shape(shape):
    fld = PrimeField(257)
    code = classical_code(fld, 12, 5)  # N - K = 7 syndromes per layer
    synd = SyndromeSet(values=fld.zeros(shape))
    with pytest.raises(InvalidParameters, match="syndrome matrix"):
        recover_error_values(code, [0, 1], synd)


# ---------------------------------------------------------------------------
# End-to-end decoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("decode", [cpda_decode, mssr_decode])
def test_decode_error_free_word(decode):
    fld = PrimeField(257)
    code = classical_code(fld, 10, 4)
    rng = np.random.default_rng(29)
    word = _random_word(code, 3, rng)
    out = decode(code, word)
    assert out.success
    assert out.locations == () and out.locator.t == 0
    assert np.array_equal(out.corrected, word)
    assert out.values.shape == (3, 0)


@pytest.mark.parametrize("decode", [cpda_decode, mssr_decode])
@pytest.mark.parametrize("l,t", [(1, 1), (1, 3), (2, 4), (4, 5), (6, 6)])
def test_decode_corrects_planted_errors_gf(decode, l, t):
    fld = PrimeField(257)
    code = classical_code(fld, 12, 4)
    assert t <= t_max(12, 4, l)
    rng = np.random.default_rng(1000 * l + t)
    for _ in range(10):
        word, received, err = _planted_instance(code, l, t, rng)
        out = decode(code, received)
        assert out.success
        assert out.locations == err.support
        assert np.array_equal(out.corrected, word)
        assert np.array_equal(out.values, err.e[:, list(err.support)])


@pytest.mark.parametrize("decode", [cpda_decode, mssr_decode])
@pytest.mark.parametrize("l,t", [(1, 1), (1, 3), (6, 4), (6, 5)])
def test_decode_corrects_planted_errors_real(decode, l, t):
    fld = RealField()
    code = make_grs(fld, 8, 2, [0.9 ** i for i in range(1, 9)])
    assert t <= t_max(8, 2, l)
    rng = np.random.default_rng(2000 * l + t)
    for _ in range(10):
        word, received, err = _planted_instance(code, l, t, rng)
        out = decode(code, received)
        assert out.success
        assert out.locations == err.support
        scale = max(1.0, float(np.max(np.abs(word))))
        assert np.max(np.abs(out.corrected - word)) <= 1e-6 * scale


@pytest.mark.parametrize("decode", [cpda_decode, mssr_decode])
def test_real_decode_takes_rank_and_solution_from_one_factorisation(monkeypatch, decode):
    # Every stacked system's rank and solution come from one SVD in
    # _solve_batch, so a decodable real word costs no separate factorisation.
    fld = RealField()
    code = make_grs(fld, 8, 2, [0.9 ** i for i in range(1, 9)])
    rng = np.random.default_rng(61)
    calls = {"svd": 0, "solve_batch": 0}
    svd, solve_batch = np.linalg.svd, RealField._solve_batch

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counting_solve_batch(self, aug, ncols):
        calls["solve_batch"] += 1
        return solve_batch(self, aug, ncols)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(RealField, "_solve_batch", counting_solve_batch)
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: pytest.fail("lstsq"))
    for l, t in [(1, 1), (1, 3), (2, 4), (6, 5)]:
        _, received, err = _planted_instance(code, l, t, rng)
        out = decode(code, received)
        assert out.success and out.locations == err.support
    assert calls["svd"] == calls["solve_batch"] > 0


def test_real_mssr_makes_exactly_cpdas_solves(monkeypatch):
    # Real synthesis is cpda's scan, so a lone real word under mssr starts at
    # t = 1 like cpda: the same _solve_batch calls, of the same shapes,
    # whether of a stacked system or of the error values.
    fld = RealField()
    code = make_grs(fld, 8, 2, [0.9 ** i for i in range(1, 9)])
    rng = np.random.default_rng(61)
    calls = []
    solve_batch = RealField._solve_batch

    def recording_solve_batch(self, aug, ncols):
        calls[-1].append((aug.shape, ncols))
        return solve_batch(self, aug, ncols)

    monkeypatch.setattr(RealField, "_solve_batch", recording_solve_batch)
    for l, t in [(1, 1), (1, 3), (2, 4), (6, 5)]:
        _, received, err = _planted_instance(code, l, t, rng)
        for decode in (cpda_decode, mssr_decode):
            calls.append([])
            assert decode(code, received).locations == err.support
        assert calls[-1] == calls[-2], (l, t, calls[-2:])
        assert calls[-1], (l, t)


@pytest.mark.parametrize("decode", [cpda_decode, mssr_decode])
def test_decode_single_error_locator_structure(decode):
    fld = PrimeField(257)
    code = classical_code(fld, 10, 4)
    rng = np.random.default_rng(31)
    word = _random_word(code, 2, rng)
    received = word.copy()
    received[:, 6] = fld.add(received[:, 6], np.array([5, 9]))
    out = decode(code, received)
    assert out.success and out.locations == (6,)
    assert out.locator.coeffs[0] == (-code.alphas[6]) % fld.p
    assert np.array_equal(out.values, np.array([[5], [9]]))


def test_decode_beyond_radius_fails_not_crashes():
    # With L = 1 and t > (N-K)/2 the system is never uniquely consistent at
    # the true t; high-weight words must fail cleanly, never raise.
    fld = PrimeField(257)
    code = classical_code(fld, 10, 4)
    rng = np.random.default_rng(37)
    failures = 0
    for _ in range(20):
        _, received, _ = _planted_instance(code, 1, 5, rng)
        out = cpda_decode(code, received)
        other = mssr_decode(code, received)
        assert outcomes_equal(fld, out, other)
        if not out.success:
            failures += 1
            assert out.reason in (FailureReason.NO_CONSISTENT_T,
                                  FailureReason.RANK_DEFICIENT,
                                  FailureReason.NOT_T_VALID,
                                  FailureReason.SYNDROME_RESIDUAL)
    assert failures > 0


def test_decoders_require_nonzero_points():
    fld = PrimeField(7)
    with pytest.raises(InvalidParameters):
        code = make_grs(fld, 4, 2, [0, 1, 2, 3])
        cpda_decode(code, fld.zeros((1, 4)))
    with pytest.raises(InvalidParameters):
        code = make_grs(fld, 4, 2, [0, 1, 2, 3])
        mssr_decode(code, fld.zeros((1, 4)))


def test_decode_input_validation():
    fld = PrimeField(7)
    code = classical_code(fld, 6, 2)
    with pytest.raises(InvalidParameters):
        cpda_decode(code, fld.zeros(6))  # not 2-D
    with pytest.raises(InvalidParameters):
        mssr_decode(code, fld.zeros((2, 5)))  # wrong length


@st.composite
def _codes_and_words(draw):
    """(code, codeword) over GF(p) (points g**j) or the reals (pow:0.9),
    N in [2, 12], L in [1, 6]."""
    real = draw(st.booleans())
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    l = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if real:
        code = make_grs(RealField(), n, k, [0.9 ** i for i in range(1, n + 1)])
    else:
        code = classical_code(PrimeField(draw(st.sampled_from([13, 257, 65537]))), n, k)
    return code, _random_word(code, l, rng)


@settings(max_examples=100, deadline=None)
@given(case=_codes_and_words(), data=st.data())
def test_decoders_reject_non_finite_and_non_integer_words(case, data):
    # Robustness: the public decoders check the word's entries before any
    # arithmetic.  A real word with NaN or +-inf anywhere raises ValueError;
    # a GF(p) word of float or bool dtype raises TypeError.
    # is_t_valid checks a locator's coefficients the same way.
    code, word = case
    coeffs = code.field.ones(data.draw(st.integers(1, code.n)))
    if isinstance(code.field, RealField):
        i = data.draw(st.integers(0, word.shape[0] - 1))
        j = data.draw(st.integers(0, word.shape[1] - 1))
        word[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        coeffs[data.draw(st.integers(0, len(coeffs) - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        error = ValueError
    else:
        dtype = data.draw(st.sampled_from([np.float64, np.bool_]))
        word, coeffs = word.astype(dtype), coeffs.astype(dtype)
        error = TypeError
    for decode in (cpda_decode, mssr_decode):
        with pytest.raises(error):
            decode(code, word)
    with pytest.raises(error):
        is_t_valid(code, ErrorLocator(coeffs))


# ---------------------------------------------------------------------------
# Decoder agreement
# ---------------------------------------------------------------------------

def test_cpda_mssr_agree_gf_mixed_weights():
    fld = PrimeField(257)
    code = classical_code(fld, 12, 4)
    l = 3
    tm = t_max(12, 4, l)
    rng = np.random.default_rng(41)
    seen_success = seen_failure = 0
    for trial in range(100):
        t = int(rng.integers(0, tm + 2))  # includes weights above the radius
        t = min(t, 12)
        _, received, _ = _planted_instance(code, l, t, rng)
        a = cpda_decode(code, received)
        b = mssr_decode(code, received)
        assert outcomes_equal(fld, a, b)
        seen_success += a.success
        seen_failure += not a.success
    assert seen_success > 0 and seen_failure > 0


def test_cpda_mssr_agree_on_random_noise_gf():
    # Pure noise far from any codeword exercises every failure branch.
    fld = PrimeField(7)
    code = classical_code(fld, 6, 2)
    rng = np.random.default_rng(43)
    for _ in range(200):
        received = fld.rand_elements(rng, (2, 6))
        a = cpda_decode(code, received)
        b = mssr_decode(code, received)
        assert outcomes_equal(fld, a, b)


def test_cpda_mssr_agree_real():
    fld = RealField()
    code = make_grs(fld, 8, 2, [0.9 ** i for i in range(1, 9)])
    rng = np.random.default_rng(47)
    for trial in range(50):
        t = int(rng.integers(0, 6))
        _, received, _ = _planted_instance(code, 6, t, rng)
        a = cpda_decode(code, received)
        b = mssr_decode(code, received)
        assert outcomes_equal(fld, a, b, rtol=1e-6)


REAL_POINT_RULES = ["pow:0.9", "pow:0.8", "pow:0.95", "linear"]


@st.composite
def _real_words(draw):
    """(code, received): a real codeword on N in [4, 16] points of one rule
    and L in [1, 8] layers, plus errors in t in [0, t_max + 1] columns at a
    scale of 10**U(-6, 3); one word in five has layers that are multiples of
    one row, or error values that are."""
    fld = RealField()
    n = draw(st.integers(4, 16))
    k = draw(st.integers(1, n - 1))
    l = draw(st.integers(1, 8))
    t = draw(st.integers(0, t_max(n, k, l) + 1))
    rule = draw(st.sampled_from(REAL_POINT_RULES))
    rank_one = draw(st.sampled_from([None] * 8 + ["layers", "errors"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = make_grs(fld, n, k, make_alphas(fld, n, rule))
    word = _random_word(code, l, rng)
    if rank_one == "layers":
        word = np.outer(rng.standard_normal(l), word[0])
    vals = rng.standard_normal((l, t))
    if rank_one == "errors":
        vals = np.outer(rng.standard_normal(l), vals[0])
    e = fld.zeros((l, n))
    e[:, rng.choice(n, t, replace=False)] = vals * 10 ** rng.uniform(-6, 3)
    return code, word + e


@settings(max_examples=200, deadline=None)
@given(case=_real_words())
def test_real_cpda_and_mssr_are_identical(case):
    code, received = case
    a, b = cpda_decode(code, received), mssr_decode(code, received)
    assert (a.success, a.reason, a.locations) == (b.success, b.reason, b.locations)
    if a.success:
        assert np.array_equal(a.corrected, b.corrected)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.locator.coeffs, b.locator.coeffs)


# ---------------------------------------------------------------------------
# Maximum-likelihood certificate
# ---------------------------------------------------------------------------

def _column_distance(a, b):
    return int(np.sum(np.any(a != b, axis=0)))


def test_success_is_nearest_codeword():
    # GF(7), N=6, K=1, L=2: only 49 interleaved codewords, so the closest
    # one can be found by enumeration.  Any Success must return it.
    fld = PrimeField(7)
    code = classical_code(fld, 6, 1)
    words = []
    for m0 in range(7):
        words.append(encode(code, np.array([m0])))
    table = [np.stack([words[i], words[j]]) for i in range(7) for j in range(7)]
    rng = np.random.default_rng(53)
    successes = 0
    for trial in range(120):
        w = int(rng.integers(0, 5))
        _, received, _ = _planted_instance(code, 2, w, rng)
        dists = np.array([_column_distance(received, c) for c in table])
        out = cpda_decode(code, received)
        if out.success:
            successes += 1
            d_out = _column_distance(received, out.corrected)
            assert d_out == dists.min()
            assert int(np.sum(dists == dists.min())) == 1
            best = table[int(np.argmin(dists))]
            assert np.array_equal(out.corrected, best)
        elif w <= 2:
            # Within half the minimum distance decoding never fails.
            raise AssertionError("failed inside the guaranteed radius")
    assert successes >= 60


# ---------------------------------------------------------------------------
# Outcome comparison helper
# ---------------------------------------------------------------------------

def test_outcomes_equal_discriminates():
    fld = PrimeField(7)
    ok = DecodeOutcome.ok(np.zeros((1, 3), dtype=np.int64),
                          ErrorLocator(np.zeros(0, dtype=np.int64)), (),
                          np.zeros((1, 0), dtype=np.int64))
    bad1 = DecodeOutcome.fail(FailureReason.NO_CONSISTENT_T)
    bad2 = DecodeOutcome.fail(FailureReason.RANK_DEFICIENT)
    assert outcomes_equal(fld, ok, ok)
    assert outcomes_equal(fld, bad1, bad1)
    assert not outcomes_equal(fld, ok, bad1)
    assert not outcomes_equal(fld, bad1, bad2)


# ---------------------------------------------------------------------------
# Blocked elimination against the reference elimination, at depth
# ---------------------------------------------------------------------------

def _decode_both_ways(monkeypatch, oracle_solve_batch, code, received):
    """cpda and mssr outcomes, asserted equal on the blocked and reference
    paths: the reference path runs every scan and value solve through
    gauss_jordan_solve."""
    fld = code.field
    blocked = [cpda_decode(code, received), mssr_decode(code, received)]
    with monkeypatch.context() as patch:
        patch.setattr(PrimeField, "_solve_batch", oracle_solve_batch)
        reference = [cpda_decode(code, received), mssr_decode(code, received)]
    for got, want in zip(blocked, reference):
        assert outcomes_equal(fld, got, want)
    assert outcomes_equal(fld, *blocked)
    return blocked[0]


@pytest.mark.parametrize("t", [2, 7, 11])
def test_blocked_decode_matches_reference_deep_random_words(monkeypatch, oracle_solve_batch, t):
    fld = PrimeField(257)
    code = make_grs(fld, 16, 4, [fld.primitive_root() ** i % fld.p for i in range(16)])
    l = 2048
    assert t <= t_max(16, 4, l)
    word, received, err = _planted_instance(code, l, t, np.random.default_rng(100 + t))
    out = _decode_both_ways(monkeypatch, oracle_solve_batch, code, received)
    assert out.success and np.array_equal(out.corrected, word)
    assert out.locations == tuple(int(j) for j in err.support)


@pytest.mark.parametrize("t,t_early,split", [(5, 0, 1500), (9, 2, 1000), (11, 4, 2040)])
def test_blocked_decode_matches_reference_late_errors(monkeypatch, oracle_solve_batch, t,
                                                      t_early, split):
    # The first `split` layers err only in t_early of the t faulty columns, so
    # the stack's leading blocks look consistent at too small a t and lack
    # pivots; the later blocks and the residual check must settle it.
    fld = PrimeField(257)
    code = make_grs(fld, 16, 4, [fld.primitive_root() ** i % fld.p for i in range(16)])
    word, _, err = _planted_instance(code, 2048, t, np.random.default_rng(400 + t))
    e = np.array(err.e, copy=True)
    e[:split, list(err.support[t_early:])] = 0
    out = _decode_both_ways(monkeypatch, oracle_solve_batch, code, fld.add(word, e))
    assert out.success and np.array_equal(out.corrected, word)
    assert out.locations == tuple(int(j) for j in err.support)


@pytest.mark.parametrize("t", [3, 6, 7, 9])
def test_blocked_decode_matches_reference_identical_layers(monkeypatch, oracle_solve_batch, t):
    # L copies of one layer: every stacked system has the rank of a single
    # layer's, so above (N - K) / 2 it stays rank-deficient and the blocked
    # elimination scans every block.
    fld = PrimeField(257)
    code = classical_code(fld, 16, 4)
    _, one_layer, _ = _planted_instance(code, 1, t, np.random.default_rng(200 + t))
    received = np.repeat(one_layer, 2048, axis=0)
    out = _decode_both_ways(monkeypatch, oracle_solve_batch, code, received)
    assert out.success == (t <= 6)


def test_blocked_decode_matches_reference_past_t_max(monkeypatch, oracle_solve_batch):
    # Words with more errors than t_max, at a depth that spans several blocks.
    # Uniform errors give NO_CONSISTENT_T; errors whose layers are multiples
    # of one row act like a single layer and give NOT_T_VALID and, at this
    # small p, RANK_DEFICIENT.  Over GF(p) a locator with t distinct roots
    # among the 1/alpha_j always explains the syndromes (they form a
    # t-dimensional Vandermonde system), so SYNDROME_RESIDUAL cannot occur;
    # the value check behind it is compared on a wrong support instead.
    fld = PrimeField(17)
    code = make_grs(fld, 16, 4, [fld.primitive_root() ** i % fld.p for i in range(16)])
    l = 300
    tm = t_max(16, 4, l)
    rng = np.random.default_rng(300)
    seen = set()
    for _ in range(120):
        e = int(rng.integers(tm + 1, 17))
        cols = rng.choice(16, e, replace=False)
        err = fld.zeros((l, 16))
        if rng.integers(2):
            err[:, cols] = rng.integers(1, fld.p, (l, e))
        else:
            err[:, cols] = fld.matmul(rng.integers(1, fld.p, (l, 1)), rng.integers(1, fld.p, (1, e)))
        received = fld.add(_random_word(code, l, rng), err)
        out = _decode_both_ways(monkeypatch, oracle_solve_batch, code, received)
        if not out.success:
            seen.add(out.reason)
        if len(seen) == 3:
            break
    assert seen == {FailureReason.NO_CONSISTENT_T, FailureReason.NOT_T_VALID,
                    FailureReason.RANK_DEFICIENT}
    synd = layer_syndromes(code, received)
    wrong = [j for j in range(16) if j not in cols][:3]
    assert recover_error_values(code, wrong, synd) is None
    with monkeypatch.context() as patch:
        patch.setattr(PrimeField, "_solve_batch", oracle_solve_batch)
        assert recover_error_values(code, wrong, synd) is None


# ---------------------------------------------------------------------------
# Decoding on the row space of the syndromes, against all L layers
# ---------------------------------------------------------------------------

ROW_SPACE_PRIMES = [2, 3, 257, 65537, 2**61 - 1]
WORD_KINDS = ["clean", "planted", "identical", "past", "rank_one", "low_rank"]


def _stacked(field, rows, t):
    """(A, b) of the stacked system at t of syndrome rows, by
    sliding_window_view rather than the decoder's window gather."""
    win = sliding_window_view(rows, t + 1, axis=1).reshape(-1, t + 1)
    return win[:, :t], field._sub(0, win[:, t])


def _collab_word(fld, n, k, l, kind, rng):
    """A received L x n word on the points 1..n: a codeword plus errors of
    the given kind.  identical: one erroneous layer repeated L times;
    past: uniform errors in more than t_max columns; rank_one: error layers
    that are multiples of one row; low_rank: errors in e columns whose
    values have rank below e, so rank(S) < e."""
    code = make_grs(fld, n, k, list(range(1, n + 1)))
    tm = t_max(n, k, l)
    word = fld.matmul(fld.array(rng.integers(0, fld.p, (l, k))), code.encoding_matrix().T)
    rows = 1 if kind == "identical" else l
    weight = {"clean": 0, "planted": rng.integers(0, tm + 1), "identical": rng.integers(1, n + 1),
              "past": rng.integers(min(tm + 1, n), n + 1), "rank_one": rng.integers(1, n + 1),
              "low_rank": rng.integers(min(2, n), n + 1)}[kind]
    cols = rng.choice(n, weight, replace=False)
    if kind in ("rank_one", "low_rank"):
        rank = 1 if kind == "rank_one" else rng.integers(1, max(weight, 2))
        vals = fld.matmul(fld.array(rng.integers(1, fld.p, (rows, rank))),
                          fld.array(rng.integers(1, fld.p, (rank, weight))))
    else:
        vals = fld.array(rng.integers(1, fld.p, (rows, weight)))
    e = fld.zeros((rows, n))
    e[:, cols] = vals
    if kind == "identical":
        word = np.repeat(word[:1], l, axis=0)
        e = np.repeat(e, l, axis=0)
    return code, fld.add(word, e)


def _decode_compressed_and_full(code, received):
    """cpda's outcome, asserted equal to mssr's and to that of
    conftest.reference_decode, which scans all L layers without compression."""
    fld = code.field
    want = reference_decode(code, received)
    compressed = [cpda_decode(code, received), mssr_decode(code, received)]
    for got in compressed:
        assert outcomes_equal(fld, got, want, rtol=0)
    return compressed[0]


@st.composite
def _syndrome_matrices(draw):
    """(field, S): L x m syndrome-like rows with L > m: products of an
    L x rank and a rank x m matrix, sums of geometric sequences (error
    syndromes), identical rows, or zeros."""
    fld = PrimeField(draw(st.sampled_from(ROW_SPACE_PRIMES)))
    m = draw(st.integers(1, 10))
    l = draw(st.integers(m + 1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["product", "geometric", "identical", "zeros"]))
    rand = lambda *shape: fld.array(rng.integers(0, fld.p, shape))
    if kind == "product":
        rank = draw(st.integers(1, m))
        s = fld.matmul(rand(l, rank), rand(rank, m))
    elif kind == "geometric":
        w = draw(st.integers(1, m))
        s = fld.matmul(rand(l, w), fld.power_matrix(rand(w), m))
    elif kind == "identical":
        s = np.repeat(rand(1, m), l, axis=0)
    else:
        s = fld.zeros((l, m))
    return fld, s


@settings(max_examples=200, deadline=None)
@given(case=_syndrome_matrices())
def test_row_space_keeps_every_stacked_system(case):
    # Over every prime, GF(2) included: each t-stack of the basis has the
    # solution and rank of the t-stack of all L rows, no t below the rank of
    # the basis is consistent, and the synthesized recurrence is the same.
    fld, s = case
    basis = fld._reduce_batch(s[None], s.shape[1])[0][0]
    rank = np.count_nonzero(basis.any(axis=1))
    assert basis.dtype == s.dtype and basis.shape == (s.shape[1],) * 2 and rank == fld.rank(s)
    assert fld.rank(np.vstack([basis, s])) == rank
    for t in range(1, s.shape[1]):
        (a_full, b_full), (a_small, b_small) = (_stacked(fld, v, t) for v in (s, basis))
        x_full, rank_full = fld._solve(a_full, b_full[:, None])
        x_small, rank_small = fld._solve(a_small, b_small[:, None])
        assert rank_small == rank_full
        assert (x_small is None) == (x_full is None)
        assert x_full is None or np.array_equal(x_small, x_full)
        if t < rank:
            assert x_full is None
    t_full, c_full = synthesize_recurrence(fld, s)
    t_small, c_small = synthesize_recurrence(fld, basis)
    assert t_small == t_full
    if 0 < t_full < s.shape[1] and fld.rank(_stacked(fld, s, t_full)[0]) == t_full:
        assert np.array_equal(c_small, c_full)


@st.composite
def _deep_words(draw):
    """(code, received) with more layers than syndromes.  GF(2) has a single
    nonzero evaluation point, so it has no code to decode and is covered by
    test_row_space_keeps_every_stacked_system instead."""
    p = draw(st.sampled_from(ROW_SPACE_PRIMES[1:]))
    n = draw(st.integers(2, min(p - 1, 14)))
    k = draw(st.integers(1, n - 1))
    l = draw(st.integers(n - k + 1, 64))
    kind = draw(st.sampled_from(WORD_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _collab_word(PrimeField(p), n, k, l, kind, rng)


@settings(max_examples=200, deadline=None)
@given(case=_deep_words())
def test_compressed_decoding_matches_full_layers(case):
    _decode_compressed_and_full(*case)


def test_compressed_decoding_reaches_every_outcome():
    # The differential check above, on fixed words that between them
    # succeed and fail with every reason that can occur over GF(p).
    fld = PrimeField(17)
    rng = np.random.default_rng(700)
    seen = set()
    for trial in range(300):
        kind = WORD_KINDS[trial % len(WORD_KINDS)]
        code, received = _collab_word(fld, 16, 4, int(rng.integers(13, 65)), kind, rng)
        out = _decode_compressed_and_full(code, received)
        seen.add(out.reason if not out.success else kind == "clean")
        if len(seen) == 5:
            break
    assert seen == {True, False, FailureReason.NO_CONSISTENT_T, FailureReason.NOT_T_VALID,
                    FailureReason.RANK_DEFICIENT}


@pytest.mark.parametrize("decode", [cpda_decode, mssr_decode])
def test_deep_decode_stacks_at_most_positions_squared_rows(monkeypatch, decode):
    # With L = 16384 layers the stacked systems of the scan and the value
    # solve see the row space of the syndromes, not L (N - K - t) rows.
    fld = PrimeField(257)
    n, k, l, t = 40, 16, 16384, 20
    code = make_grs(fld, n, k, [pow(fld.primitive_root(), i, fld.p) for i in range(n)])
    rng = np.random.default_rng(800)
    word = fld.matmul(fld.rand_elements(rng, (l, k)), code.encoding_matrix().T)
    err = sample_error(ErrorModelSpec(kind="uref", t=t), fld, l, n, rng)
    scans, solves = [], []
    scan_batch, solve_batch = decoder_module._scan_batch, PrimeField._solve_batch

    def counting_scan(field, seqs, t):
        # Each of the R rows of a word gives n - t windows, one row each.
        scans.append(seqs.shape[1] * (seqs.shape[2] - t))
        return scan_batch(field, seqs, t)

    def counting_solve(self, aug, ncols):
        # The rows of each system, the scans' and the value solve's.
        solves.append(int(np.prod(aug.shape[1:-1])))
        return solve_batch(self, aug, ncols)

    monkeypatch.setattr(decoder_module, "_scan_batch", counting_scan)
    monkeypatch.setattr(PrimeField, "_solve_batch", counting_solve)
    out = decode(code, inject(word, err.e, fld))
    assert out.success and np.array_equal(out.corrected, word)
    assert scans and len(solves) > len(scans) and max(scans + solves) <= (n - k) ** 2


# ---------------------------------------------------------------------------
# Batch decoding of GF(p) words, against the single-word decoders
# ---------------------------------------------------------------------------

BATCH_PRIMES = [3, 17, 257, 65537, 3037000493, 2**61 - 1]


def _batch_matches_single_words(code, words):
    """cpda and mssr outcomes of the batch decoder on the B-word stack,
    asserted equal to cpda_decode's and mssr_decode's word by word, and
    cpda's to mssr's; returns cpda's.  The public decoders run the same
    path on stacks of one, so this compares the kernels that stack size
    chooses: the synthesis and the tail."""
    fld = code.field
    both = []
    for name, decode in (("mssr", mssr_decode), ("cpda", cpda_decode)):
        got = decoder_module._decode_batch(code, words, name)
        assert len(got) == len(words)
        for outcome, word in zip(got, words):
            assert outcomes_equal(fld, outcome, decode(code, word))
        both.append(got)
    for mssr, cpda in zip(*both):
        assert outcomes_equal(fld, mssr, cpda)
    return got


@st.composite
def _word_batches(draw):
    """(code, (B, L, N) stack) of words of mixed kinds (see _collab_word),
    with L on both sides of N - K."""
    p = draw(st.sampled_from(BATCH_PRIMES))
    n = draw(st.integers(2, min(p - 1, 14)))
    k = draw(st.integers(1, n - 1))
    l = draw(st.integers(1, 2 * (n - k) + 2))
    kinds = draw(st.lists(st.sampled_from(WORD_KINDS), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fld = PrimeField(p)
    pairs = [_collab_word(fld, n, k, l, kind, rng) for kind in kinds]
    return pairs[0][0], np.stack([word for _, word in pairs])


@settings(max_examples=200, deadline=None)
@given(case=_word_batches())
def test_batch_decoding_matches_single_words(case):
    _batch_matches_single_words(*case)


# The primes on each side of field._INT64_SAFE_P (3037000499), where the
# elements turn from int64 to object dtype, and 2**61 - 1.
BOUNDARY_PRIMES = [3037000493, 3037000507, 2**61 - 1]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(BOUNDARY_PRIMES), n=st.integers(2, 9), data=st.data())
def test_decoders_at_the_moduli_boundaries(p, n, data):
    # cpda_decode, mssr_decode and the batch decoder agree on every word of
    # small codes at random points, and within the radius every decode finds
    # the planted support of uniform errors: a decode fails with probability
    # below about 1/p there (criterion 3's bound).
    fld = PrimeField(p)
    k = data.draw(st.integers(1, n - 1))
    l = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = random.Random(int(rng.integers(2**32))).sample(range(1, p), n)
    code = make_grs(fld, n, k, points)
    tm = t_max(n, k, l)
    ts = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=6))
    planted = [_planted_instance(code, l, t, rng) for t in ts]
    words = np.stack([received for _, received, _ in planted])
    outcomes = _batch_matches_single_words(code, words)
    for t, (word, _, err), out in zip(ts, planted, outcomes):
        if t <= tm:
            assert out.success and out.locations == err.support
            assert np.array_equal(out.corrected, word)


def _every_outcome_batch(l):
    """(code, words): a fixed GF(17) batch of 120 words, L = l, N = 16, K = 4."""
    fld = PrimeField(17)
    rng = np.random.default_rng(900 + l)
    pairs = [_collab_word(fld, 16, 4, l, WORD_KINDS[i % len(WORD_KINDS)], rng)
             for i in range(120)]
    return pairs[0][0], np.stack([word for _, word in pairs])


@pytest.mark.parametrize("l", [4, 20])
def test_batch_decoding_reaches_every_outcome(l):
    # L below and above N - K = 12; the words leave the scan at different t
    # and between them succeed and fail with every reason that can occur
    # over GF(p).
    outcomes = _batch_matches_single_words(*_every_outcome_batch(l))
    seen = {out.reason if not out.success else len(out.locations) > 0 for out in outcomes}
    assert seen == {True, False, FailureReason.NO_CONSISTENT_T, FailureReason.NOT_T_VALID,
                    FailureReason.RANK_DEFICIENT}
    assert len({len(out.locations) for out in outcomes if out.success}) > 3


@pytest.mark.parametrize("l", [4, 20])
def test_mssr_takes_only_the_length_from_the_synthesis(monkeypatch, l):
    # The synthesized length picks where mssr's scan starts; the locator
    # comes from the stacked elimination there, so scrambled coefficients
    # leave every outcome equal to cpda's.
    code, words = _every_outcome_batch(l)
    p = code.field.p
    cpda = decoder_module._decode_batch(code, words, "cpda")
    synthesize, synthesize_batch = synthesize_recurrence, decoder_module._synthesize_batch

    def scrambled(length, coeffs):
        return length, (coeffs + 1 + np.arange(coeffs.shape[-1])) % p

    monkeypatch.setattr(decoder_module, "synthesize_recurrence",
                        lambda field, seqs: scrambled(*synthesize(field, seqs)))
    monkeypatch.setattr(decoder_module, "_synthesize_batch",
                        lambda field, seqs: scrambled(*synthesize_batch(field, seqs)))
    batch = decoder_module._decode_batch(code, words, "mssr")
    for word, want, got in zip(words, cpda, batch):
        assert outcomes_equal(code.field, got, want)
        assert outcomes_equal(code.field, mssr_decode(code, word), want)


def test_batch_decoding_of_an_empty_stack():
    code = make_grs(PrimeField(257), 16, 4, list(range(1, 17)))
    assert decoder_module._decode_batch(code, code.field.zeros((0, 4, 16)), "cpda") == []


def test_batch_decoding_requires_nonzero_points():
    fld = PrimeField(257)
    with pytest.raises(InvalidParameters):
        code = make_grs(fld, 8, 2, list(range(8)))
        decoder_module._decode_batch(code, fld.zeros((3, 2, 8)), "cpda")


@pytest.mark.parametrize("name, decode", [("cpda", cpda_decode), ("mssr", mssr_decode)])
def test_deep_batch_of_one_matches_the_single_word_decoders(name, decode):
    # L = 1024 > N - K = 24: the row basis of a stack of one runs through
    # several blocks of _reduce_batch, and the value solve's 1024
    # right-hand sides outnumber the rows of its first block.
    fld = PrimeField(257)
    code = make_grs(fld, 40, 16, [pow(fld.primitive_root(), i, fld.p) for i in range(40)])
    word, received, _ = _planted_instance(code, 1024, 20, np.random.default_rng(900))
    want = decode(code, received)
    assert want.success and np.array_equal(want.corrected, word)
    got = decoder_module._decode_batch(code, received[None], name)[0]
    assert outcomes_equal(fld, got, want, rtol=0)


def _finish_cases(fld):
    """(code, received, synd, coeffs) for 12 planted words with 1..3 errors
    and the locators _scan_batch finds for them at their t, a few scrambled
    so that they fail; N = 8, K = 2, L = 3 over fld."""
    rule = "primitive" if isinstance(fld, PrimeField) else "pow:0.9"
    code = make_grs(fld, 8, 2, make_alphas(fld, 8, rule))
    rng = np.random.default_rng(1100)
    cases = []
    for i in range(12):
        t = 1 + i % 3
        _, received, _ = _planted_instance(code, 3, t, rng)
        synd = layer_syndromes(code, received).values
        coeffs = decoder_module._scan_batch(fld, synd[None], t)[0][0]
        if i % 4 == 3:
            coeffs = fld.add(coeffs, fld.ones(t))
        cases.append((code, received, synd, coeffs))
    return cases


def _public_tail(code, received, synd, coeffs):
    """The tail of one word from the public stages: is_t_valid,
    recover_error_values and a subtraction."""
    fld = code.field
    locator = ErrorLocator(coeffs=coeffs)
    valid, locations = is_t_valid(code, locator)
    if not valid:
        return DecodeOutcome.fail(FailureReason.NOT_T_VALID)
    values = recover_error_values(code, locations, SyndromeSet(values=synd))
    if values is None:
        return DecodeOutcome.fail(FailureReason.SYNDROME_RESIDUAL)
    corrected = np.array(received, copy=True)
    corrected[:, list(locations)] = fld._sub(corrected[:, list(locations)], values)
    return DecodeOutcome.ok(corrected, locator, locations, values)


@pytest.mark.parametrize("fld", [PrimeField(257), RealField()], ids=["gf257", "real"])
def test_finish_batch_of_one_is_the_single_word_tail(fld):
    # The one tail gives the public stages' outcome, bit for bit: on a stack
    # of one, and on the words of one t finishing together, both as a stack
    # of their own and picked out of the stack of all twelve.
    cases = _finish_cases(fld)
    words = np.stack([received for _, received, _, _ in cases])
    synds = np.stack([synd for _, _, synd, _ in cases])
    want = [_public_tail(*case) for case in cases]
    assert {out.success for out in want} == {True, False}
    for (code, received, synd, coeffs), out in zip(cases, want):
        got, = decoder_module._finish_batch(code, received[None], synd[None], np.array([0]),
                                             coeffs[None])
        assert outcomes_equal(fld, got, out, rtol=0)
    code = cases[0][0]
    for t in (1, 2, 3):
        which = np.array([i for i, case in enumerate(cases) if len(case[3]) == t])
        coeffs = np.stack([cases[i][3] for i in which])
        for stack, synd, picked in ((words, synds, which),
                                    (words[which], synds[which], np.arange(len(which)))):
            got = decoder_module._finish_batch(code, stack, synd, picked, coeffs)
            assert len(got) == len(which)
            for i, out in zip(which, got):
                assert outcomes_equal(fld, out, want[i], rtol=0)


@pytest.mark.parametrize("fld", [PrimeField(257), RealField()], ids=["gf257", "real"])
def test_batch_with_one_word_at_full_rank_matches_the_single_word_decoders(fld):
    # Word 0 has one error and reaches full rank at t = 1, alone: its tail
    # locates through is_t_valid, once.  Words 1 and 2 have three errors
    # each and finish together at t = 3 through the stacked root search.
    rule = "primitive" if isinstance(fld, PrimeField) else "pow:0.9"
    code = make_grs(fld, 8, 2, make_alphas(fld, 8, rule))
    rng = np.random.default_rng(1200)
    planted = [_planted_instance(code, 3, t, rng) for t in (1, 3, 3)]
    words = np.stack([received for _, received, _ in planted])
    for name, decode in (("cpda", cpda_decode), ("mssr", mssr_decode)):
        with mock.patch.object(decoder_module, "is_t_valid",
                               wraps=decoder_module.is_t_valid) as located:
            got = decoder_module._decode_batch(code, words, name)
        assert located.call_count == 1
        for (word, received, err), out in zip(planted, got):
            assert out.success and out.locations == err.support
            assert outcomes_equal(fld, out, decode(code, received), rtol=0)


@st.composite
def _small_field_words(draw):
    """(code, received): a word over GF(5), GF(7), GF(13) or GF(257) on
    primitive points, N <= 12 and L <= 5, plus errors in e <= t_max + 2
    columns (at most N), uniform or with layers that are multiples of one
    row (which fail at the least consistent t more often)."""
    fld = PrimeField(draw(st.sampled_from([5, 7, 13, 257])))
    n = draw(st.integers(2, min(fld.p - 1, 12)))
    k, l = draw(st.integers(1, n - 1)), draw(st.integers(1, 5))
    e = draw(st.integers(0, min(n, t_max(n, k, l) + 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = classical_code(fld, n, k)
    if draw(st.booleans()):
        err = _rank_one_errors(fld, l, n, e, rng)
    else:
        err = fld.zeros((l, n))
        err[:, rng.choice(n, e, replace=False)] = rng.integers(1, fld.p, (l, e))
    return code, fld.add(_random_word(code, l, rng), err)


@settings(max_examples=300, deadline=None)
@given(case=_small_field_words())
def test_every_t_above_the_least_consistent_is_rank_deficient(case):
    # Why a GF(p) word may scan on past a failed check and still report the
    # failure of the least consistent t0: with Lambda_0 the locator there,
    # every t in (t0, t_max] is consistent (Lambda_0 padded with zeros) and
    # has the second solution Lambda_0 (1 + a z), so its rank is below t.
    code, received = case
    fld, least = code.field, None
    for t in range(1, t_max(code.n, code.k, len(received)) + 1):
        system = build_stacked(code, received, t)
        x, rank = gauss_jordan_solve(fld, system.matrix, system.rhs[:, None])
        if least is not None:
            assert x is not None and rank < t, (least, t)
        elif x is not None:
            least = t


@st.composite
def _layered_words(draw):
    """(code, received): a word over GF(5), GF(7), GF(13) or GF(257) on
    primitive points, N <= 12 and 2 <= L <= N - K, plus errors in e <=
    t_max + 2 columns (at most N) whose values have any rank from 1 to
    min(L, e), so that the rank of the syndromes is often below the least
    consistent t, and cpda's start, the rank of their widest windows, often
    above the rank."""
    fld = PrimeField(draw(st.sampled_from([5, 7, 13, 257])))
    n = draw(st.integers(3, min(fld.p - 1, 12)))
    k = draw(st.integers(1, n - 2))
    l = draw(st.integers(2, n - k))
    e = draw(st.integers(0, min(n, t_max(n, k, l) + 2)))
    rank = draw(st.integers(min(1, e), min(l, e)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = classical_code(fld, n, k)
    err = fld.zeros((l, n))
    err[:, rng.choice(n, e, replace=False)] = fld.matmul(
        fld.array(rng.integers(1, fld.p, (l, rank))), fld.array(rng.integers(1, fld.p, (rank, e))))
    return code, fld.add(_random_word(code, l, rng), err)


@settings(max_examples=500, deadline=None)
@given(case=st.one_of(_small_field_words(), _layered_words()))
def test_decoders_match_the_reference_decoder(case):
    # Both decoders run one decode path, so they are checked against a
    # decode that shares none of it (conftest.reference_decode, which scans
    # from t = 1), bit for bit, on words with up to t_max + 2 errors,
    # rank-deficient ones included.  cpda starts at the rank of the widest
    # windows of the syndromes, which errors of low rank can put below the
    # least consistent t.
    code, received = case
    want = reference_decode(code, received)
    for decode in (cpda_decode, mssr_decode):
        assert outcomes_equal(code.field, decode(code, received), want, rtol=0)


def _least_consistent_t(code, received):
    """The least t <= t_max whose stacked system is consistent, by brute
    force from build_stacked and Field.rank, or None."""
    fld = code.field
    for t in range(1, t_max(code.n, code.k, len(received)) + 1):
        system = build_stacked(code, received, t)
        if fld.rank(system.matrix) == fld.rank(np.column_stack([system.matrix, system.rhs])):
            return t
    return None


def _window_rank(code, received):
    """The rank of the width-(t_max + 1) windows of a word's syndrome rows,
    by sliding_window_view and Field.rank: where cpda starts over GF(p)."""
    s = layer_syndromes(code, received).values
    w = t_max(code.n, code.k, len(received)) + 1
    return code.field.rank(sliding_window_view(s, w, axis=1).reshape(-1, w))


def _first_scanned_t(decode, code, received):
    """(outcome, the first t that the decode scans, or None)."""
    with mock.patch.object(decoder_module, "_scan_batch", wraps=decoder_module._scan_batch) as scan:
        out = decode(code, received)
    return out, (scan.call_args_list[0].args[2] if scan.called else None)


@pytest.mark.parametrize("l, rank, weight", [(2, 2, 5), (4, 4, 9), (6, 3, 7)])
def test_cpda_starts_a_word_at_the_rank_of_its_syndromes(l, rank, weight):
    # cpda's first scan is at the rank of the width-(t_max + 1) windows of
    # the syndromes.  No t below it is consistent, and it is at least the
    # rank of S, where cpda started before (2 <= L <= N - K = 12 here).
    fld = PrimeField(257)
    code = classical_code(fld, 16, 4)
    rng = np.random.default_rng(1300 + l)
    err = fld.zeros((l, 16))
    err[:, rng.choice(16, weight, replace=False)] = fld.matmul(
        fld.array(rng.integers(1, 257, (l, rank))), fld.array(rng.integers(1, 257, (rank, weight))))
    received = fld.add(_random_word(code, l, rng), err)
    assert fld.rank(layer_syndromes(code, received).values) == rank
    out, first = _first_scanned_t(cpda_decode, code, received)
    assert rank <= first == _window_rank(code, received) <= _least_consistent_t(code, received)
    assert outcomes_equal(fld, out, reference_decode(code, received), rtol=0)


@pytest.mark.parametrize("l", [1, 2, 13])
def test_cpda_eliminates_the_windows_of_a_word_once_at_every_depth(monkeypatch, l):
    # cpda's start is one _reduce_batch without right-hand sides, of width
    # t_max + 1, at every L, and with L > N - K = 12 the row basis is one
    # more, of width N - K, under either decoder.  mssr, which starts at its
    # synthesized length, makes no other.  Every further call carries
    # right-hand sides (a scan or a value solve).
    fld = PrimeField(257)
    code = classical_code(fld, 16, 4)
    tm = t_max(16, 4, l)
    word, received, _ = _planted_instance(code, l, tm, np.random.default_rng(1400))
    basis = [12] if l > 12 else []
    for decode, plain in ((cpda_decode, basis + [tm + 1]), (mssr_decode, basis)):
        calls, reduce_batch = [], PrimeField._reduce_batch

        def counting(self, m, ncols):
            calls.append((m.shape[-1] - ncols, ncols))
            return reduce_batch(self, m, ncols)

        with monkeypatch.context() as patch:
            patch.setattr(PrimeField, "_reduce_batch", counting)
            out = decode(code, received)
        assert out.success and np.array_equal(out.corrected, word)
        assert [ncols for extra, ncols in calls if not extra] == plain
        assert len(calls) > len(plain)


@st.composite
def _window_rank_words(draw):
    """(code, received) over GF(p) for random p, N, K and L, N - K = 1 or 2
    often, L > N - K included, plus errors in e <= N columns, past t_max
    included, whose values have any rank from 1 to min(L, e)."""
    fld = PrimeField(draw(st.sampled_from([3, 5, 7, 13, 257, 65537])))
    n = draw(st.integers(2, min(fld.p - 1, 14)))
    m = draw(st.one_of(st.integers(1, min(2, n - 1)), st.integers(1, n - 1)))
    l = draw(st.integers(1, 8))
    e = draw(st.integers(0, n))
    rank = draw(st.integers(min(1, e), min(l, e)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = classical_code(fld, n, n - m)
    err = fld.zeros((l, n))
    err[:, rng.choice(n, e, replace=False)] = fld.matmul(
        fld.array(rng.integers(1, fld.p, (l, rank))), fld.array(rng.integers(1, fld.p, (rank, e))))
    return code, fld.add(_random_word(code, l, rng), err)


@settings(max_examples=300, deadline=None)
@given(case=_window_rank_words())
def test_window_rank_never_exceeds_the_least_consistent_t(case):
    # The interleaved Peterson-Gorenstein-Zierler bound behind cpda's start
    # over GF(p): if the stacked system at t is consistent, every syndrome
    # row obeys one recurrence of length t, so its windows of width t_max +
    # 1 > t lie in one t-dimensional space.  The window rank is also at
    # least rank(S), where cpda started before, and it is where cpda's scan
    # starts (a clean word, or one whose window rank passes t_max, scans
    # nothing).
    code, received = case
    fld, l = code.field, len(received)
    s = layer_syndromes(code, received).values
    windows, least = _window_rank(code, received), _least_consistent_t(code, received)
    assert fld.rank(s) <= windows
    assert least is None or windows <= least
    first = _first_scanned_t(cpda_decode, code, received)[1]
    assert first == (windows if s.any() and windows <= t_max(code.n, code.k, l) else None)


@pytest.mark.parametrize("fld", [PrimeField(257), RealField()], ids=["gf257", "real"])
def test_decoders_never_alias_their_input(fld):
    # A real float64 word reaches the decoder uncopied, and a stack with no
    # clean word goes through _decode_batch as it is; every corrected word
    # is still a fresh array, and the input is left as it was.  The stack's
    # words finish alone (t = 1, 3) and together (t = 2).
    rule = "primitive" if isinstance(fld, PrimeField) else "pow:0.9"
    code = make_grs(fld, 8, 2, make_alphas(fld, 8, rule))
    rng = np.random.default_rng(1500)
    planted = [_planted_instance(code, 3, t, rng) for t in (0, 1, 2, 2, 3)]
    for _, received, _ in planted:
        before = received.copy()
        for decode in (cpda_decode, mssr_decode):
            out = decode(code, received)
            assert out.success and not np.shares_memory(out.corrected, received)
            assert np.array_equal(received, before)
    words = np.stack([received for _, received, _ in planted[1:]])
    before = words.copy()
    for name in ("cpda", "mssr"):
        for out in decoder_module._decode_batch(code, words, name):
            assert out.success and not np.shares_memory(out.corrected, words)
        assert np.array_equal(words, before)


def test_monte_carlo_cell_makes_one_batched_elimination_per_t(monkeypatch):
    # A 100-trial mc-gf257 cell (GF(257), N = 16, K = 4, L = 4, t = 9): one
    # elimination for the start ranks, at most one scan elimination and one
    # value solve per t, and no per-word elimination at all.
    from irscollab.harness import ExperimentConfig, run_monte_carlo

    calls, single = [], []
    reduce_batch = PrimeField._reduce_batch

    def counting_reduce(self, m, ncols):
        calls.append((m.shape, ncols))
        return reduce_batch(self, m, ncols)

    def per_word(name):
        return lambda *args: single.append(name)

    monkeypatch.setattr(PrimeField, "_reduce_batch", counting_reduce)
    for name in ("_solve", "_row_reduce"):
        monkeypatch.setattr(PrimeField, name, per_word(name))
    config = ExperimentConfig(field=PrimeField(257), n=16, k=4, l_values=(4,), t_values=(9,),
                              trials=100, model="uref", alphas="primitive", seed=5)
    cell = run_monte_carlo(config).cell(4, 9)
    assert cell.failures == cell.undetected == 0
    assert not single
    kinds = [(shape[-1] - ncols, ncols) for shape, ncols in calls]
    assert kinds.count((0, 10)) == 1  # the window ranks of the 4 x 12 syndromes, t_max = 9
    scans = [t for extra, t in kinds if extra == 1]
    solves = [t for extra, t in kinds if extra == 4]
    assert len(scans) == len(set(scans)) and len(solves) == len(set(solves))
    assert len(calls) == 1 + len(scans) + len(solves) <= 1 + 2 * t_max(16, 4, 4)
    assert 9 in solves and all(shape[0] > 1 for shape, _ in calls)


def test_monte_carlo_mssr_cell_synthesizes_once_per_batch(monkeypatch):
    # The same cell decoded by mssr: one batched synthesis per batch, and
    # no per-word synthesis or elimination at all.
    from irscollab import harness
    from irscollab.harness import ExperimentConfig, run_monte_carlo

    batches, syntheses, single = [], [], []
    decode_batch, synthesize_batch = harness._decode_batch, decoder_module._synthesize_batch

    def counting_decode(code, words, name):
        batches.append(len(words))
        return decode_batch(code, words, name)

    def counting_synthesize(field, seqs):
        syntheses.append(len(seqs))
        return synthesize_batch(field, seqs)

    def per_word(name):
        return lambda *args: single.append(name)

    monkeypatch.setattr(harness, "_decode_batch", counting_decode)
    monkeypatch.setattr(decoder_module, "_synthesize_batch", counting_synthesize)
    monkeypatch.setattr(decoder_module, "_synthesize_gf", per_word("_synthesize_gf"))
    for name in ("_solve", "_row_reduce"):
        monkeypatch.setattr(PrimeField, name, per_word(name))
    config = ExperimentConfig(field=PrimeField(257), n=16, k=4, l_values=(4,), t_values=(9,),
                              trials=100, model="uref", alphas="primitive", seed=5,
                              decoder="mssr")
    cell = run_monte_carlo(config).cell(4, 9)
    assert cell.failures == cell.undetected == 0
    assert not single
    assert batches == [100] and syntheses == [100]


@pytest.mark.parametrize("decoder, eliminations", [("cpda", 1), ("mssr", 0)])
def test_monte_carlo_cell_eliminates_the_syndromes_only_where_used(monkeypatch, decoder,
                                                                   eliminations):
    # With L = 4 <= N - K = 12 both decoders scan the syndromes themselves,
    # so neither builds a row basis (no (0, N - K) elimination).  cpda starts
    # every word at the rank of its width-(t_max + 1) windows, from one (0,
    # 10) elimination of the batch; mssr at its synthesized length, with no
    # elimination at all beyond its scans and value solves.
    from irscollab.harness import ExperimentConfig, run_monte_carlo

    calls = []
    reduce_batch = PrimeField._reduce_batch

    def counting_reduce(self, m, ncols):
        calls.append((m.shape[-1] - ncols, ncols))
        return reduce_batch(self, m, ncols)

    monkeypatch.setattr(PrimeField, "_reduce_batch", counting_reduce)
    config = ExperimentConfig(field=PrimeField(257), n=16, k=4, l_values=(4,), t_values=(9,),
                              trials=100, model="uref", alphas="primitive", seed=5,
                              decoder=decoder)
    cell = run_monte_carlo(config).cell(4, 9)
    assert cell.failures == cell.undetected == 0
    assert [call for call in calls if not call[0]] == [(0, 10)] * eliminations
    assert (1, 9) in calls and (4, 9) in calls  # the scan and value solves at t = 9


# ---------------------------------------------------------------------------
# Batch decoding of real words, against the single-word decoders
# ---------------------------------------------------------------------------

REAL_ERROR_KINDS = ["gaussian", "rank_one", "duplicated", "tiny", "huge"]


def _real_error(l, n, t, kind, rng):
    """An L x n real error in t random columns: gaussian values; rank_one,
    layers that are multiples of one row; duplicated, two columns with equal
    values; tiny, gaussian at 10**U(-12, -6); huge, gaussian times 10**6."""
    vals = rng.standard_normal((l, t))
    if kind == "rank_one":
        vals = np.outer(rng.standard_normal(l), vals[0])
    elif kind == "duplicated" and t >= 2:
        vals[:, 1] = vals[:, 0]
    elif kind == "tiny":
        vals *= 10 ** rng.uniform(-12, -6)
    elif kind == "huge":
        vals *= 1e6
    e = np.zeros((l, n))
    e[:, rng.choice(n, t, replace=False)] = vals
    return e


def _real_batch_matches_single_words(code, words, kinds):
    """The cpda and mssr outcomes of the batch decoder, asserted equal to
    cpda_decode's and mssr_decode's word by word, bit for bit (rtol=0):
    both solve through RealField._solve_batch; returns cpda's.  kinds names
    each word's error kind, for the failure message."""
    fld = code.field
    for name, decode in (("mssr", mssr_decode), ("cpda", cpda_decode)):
        got = decoder_module._decode_batch(code, words, name)
        assert len(got) == len(words)
        for outcome, word, kind in zip(got, words, kinds):
            assert outcomes_equal(fld, outcome, decode(code, word), rtol=0), kind
    return got


@pytest.mark.parametrize("n, k, rule", [(8, 2, "pow:0.9"), (8, 2, "linear"), (12, 4, "pow:0.9"),
                                        (20, 12, "linear"), (10, 7, "linear")])
def test_real_batch_decoding_matches_single_words(n, k, rule):
    # Every t from 0 to t_max + 2 (at most N - K) and every error kind, on
    # L below, at and above N - K, each (L, t) with words of several seeds.
    fld = RealField()
    code = make_grs(fld, n, k, make_alphas(fld, n, rule))
    for l in sorted({1, 2, n - k, n - k + 3}):
        rng = np.random.default_rng([n, k, l])
        kinds = [REAL_ERROR_KINDS[i % len(REAL_ERROR_KINDS)]
                 for i in range(4 * len(REAL_ERROR_KINDS))]
        words = []
        for t in range(0, min(t_max(n, k, l) + 2, n - k) + 1):
            for kind in kinds:
                word = rng.standard_normal((l, k)) @ code.encoding_matrix().T
                words.append(word + _real_error(l, n, t, kind, rng))
        _real_batch_matches_single_words(code, np.stack(words),
                                         kinds * (len(words) // len(kinds)))


@st.composite
def _real_word_batches(draw):
    """(code, (B, L, N) stack, kinds): real words of one code on pow:0.9 or
    linear points, each a codeword plus errors of a drawn kind in t in
    [0, t_max + 1] columns."""
    fld = RealField()
    n = draw(st.integers(3, 14))
    k = draw(st.integers(1, n - 1))
    l = draw(st.integers(1, 2 * (n - k) + 2))
    rule = draw(st.sampled_from(["pow:0.9", "linear"]))
    kinds = draw(st.lists(st.sampled_from(REAL_ERROR_KINDS), min_size=1, max_size=10))
    ts = draw(st.lists(st.integers(0, min(t_max(n, k, l) + 1, n)),
                       min_size=len(kinds), max_size=len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = make_grs(fld, n, k, make_alphas(fld, n, rule))
    words = [rng.standard_normal((l, k)) @ code.encoding_matrix().T
             + _real_error(l, n, t, kind, rng) for t, kind in zip(ts, kinds)]
    return code, np.stack(words), kinds


@settings(max_examples=100, deadline=None)
@given(case=_real_word_batches())
def test_real_batch_decoding_matches_single_words_property(case):
    _real_batch_matches_single_words(*case)


def test_real_batch_decoding_reaches_every_outcome():
    # N = 10, K = 3 on pow:0.9 points, L = 4: words leave the scan at
    # different t, and between them succeed and fail with every reason.
    fld = RealField()
    code = make_grs(fld, 10, 3, make_alphas(fld, 10, "pow:0.9"))
    rng = np.random.default_rng(31)
    words, kinds = [], []
    for t in range(8):
        for kind in REAL_ERROR_KINDS:
            for _ in range(6):
                word = rng.standard_normal((4, 3)) @ code.encoding_matrix().T
                words.append(word + _real_error(4, 10, t, kind, rng))
                kinds.append(kind)
    outcomes = _real_batch_matches_single_words(code, np.stack(words), kinds)
    seen = {out.reason if not out.success else len(out.locations) for out in outcomes}
    assert seen == set(range(6)) | set(FailureReason)


@st.composite
def _scaled_real_words(draw):
    """(code, word, e): a real word of a code on pow:0.9 or linear points, a
    codeword plus errors of a drawn kind in t <= N - K columns, whose
    syndromes all have scale >= 1, and an exponent e in [0, 830]."""
    fld = RealField()
    n = draw(st.integers(3, 12))
    k = draw(st.integers(1, n - 1))
    l = draw(st.integers(1, 2 * (n - k) + 2))
    rule = draw(st.sampled_from(["pow:0.9", "linear"]))
    kind = draw(st.sampled_from(REAL_ERROR_KINDS))
    t = draw(st.integers(0, n - k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = make_grs(fld, n, k, make_alphas(fld, n, rule))
    word = rng.standard_normal((l, k)) @ code.encoding_matrix().T + _real_error(l, n, t, kind, rng)
    assume(layer_syndromes(code, word).scale.min() >= 1.0)
    return code, word, draw(st.integers(0, 830))


@settings(max_examples=150, deadline=None)
@given(case=_scaled_real_words())
def test_real_decoders_are_scale_invariant(case):
    # Scaling a word by 2**e scales its syndromes and their zero-test
    # scale exactly, so neither decoder may locate or reject differently;
    # norms that square the entries would overflow past about 1e154.
    code, word, e = case
    for decode in (cpda_decode, mssr_decode):
        want, got = decode(code, word), decode(code, word * 2.0**e)
        assert got.success == want.success
        assert (got.locations, got.reason) == (want.locations, want.reason)


def test_real_monte_carlo_cell_makes_no_per_word_solve(monkeypatch):
    # A criterion-1 cell is decoded by stacked solves alone: the
    # single-word RealField._solve and lstsq are never called.
    from irscollab.harness import ExperimentConfig, run_monte_carlo

    monkeypatch.setattr(RealField, "_solve", lambda *args: pytest.fail("per-word solve"))
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: pytest.fail("lstsq"))
    config = ExperimentConfig(field=RealField(), n=8, k=2, l_values=(1, 6), t_values=(0, 3, 6),
                              trials=50, model="gre", alphas="pow:0.9", seed=5, decoder="both")
    report = run_monte_carlo(config)
    assert [c.p_e for c in report.cells] == [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]


def test_is_t_valid_uses_the_cached_inverse_points(monkeypatch):
    fld = PrimeField(257)
    code = classical_code(fld, 16, 4)
    word, received, err = _planted_instance(code, 2, 3, np.random.default_rng(950))
    locator = cpda_decode(code, received).locator
    monkeypatch.setattr(PrimeField, "inv", lambda *args: pytest.fail("inverted the points"))
    assert is_t_valid(code, locator) == (True, err.support)


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([3, 5, 7]), l=st.integers(1, 2), uniform=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_success_is_a_nearest_codeword_brute_force(q, l, uniform, seed, data):
    # Criterion 6 at random small parameters: at most q**(K L) = 2401 codewords,
    # all listed, so a success can be checked against every one of them.
    fld = PrimeField(q)
    n = data.draw(st.integers(2, min(6, q - 1)))
    k = data.draw(st.integers(1, min(2, n - 1)))
    points = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n, unique=True))
    code = make_grs(fld, n, k, points)
    layers = fld.matmul(list(itertools.product(range(q), repeat=k)), code.encoding_matrix().T)
    table = np.array(list(itertools.product(layers, repeat=l)))  # (q**(k l), l, n)
    rng = np.random.default_rng(seed)
    if uniform:
        received = fld.rand_elements(rng, (l, n))
    else:
        received = table[rng.integers(len(table))].copy()
        cols = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        received[:, cols] = (received[:, cols] + fld.rand_elements(rng, (l, len(cols)))) % q
    cpda, mssr = cpda_decode(code, received), mssr_decode(code, received)
    assert outcomes_equal(fld, cpda, mssr)
    if cpda.success:
        assert np.all(table == cpda.corrected, axis=(1, 2)).any()
        distance = np.count_nonzero(np.any(cpda.corrected != received, axis=0))
        assert distance == np.any(table != received, axis=1).sum(axis=1).min()


@st.composite
def _full_rank_error_words(draw):
    """(code, words, received, supports): one to three words of one GF(p)
    code, p in {5, 7, 13, 257, 65537}, on primitive points with N <= 24,
    each hit in t < N - K columns by errors whose L x t values have full
    column rank t (so L >= t).  L > N - K, where the row bases are scanned,
    is drawn too."""
    fld = PrimeField(draw(st.sampled_from([5, 7, 13, 257, 65537])))
    n = draw(st.integers(3, min(fld.p - 1, 24)))
    k = draw(st.integers(1, n - 2))
    l = draw(st.integers(1, n - k + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = classical_code(fld, n, k)
    words, received, supports = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.integers(1, min(l, n - k - 1)))
        values = fld.rand_elements(rng, (l, t))
        while fld.rank(values) < t:
            values = fld.rand_elements(rng, (l, t))
        support = tuple(sorted(int(j) for j in rng.choice(n, t, replace=False)))
        err = fld.zeros((l, n))
        err[:, list(support)] = values
        words.append(_random_word(code, l, rng))
        received.append(fld.add(words[-1], err))
        supports.append(support)
    return code, words, np.stack(received), supports


@settings(max_examples=300, deadline=None)
@given(case=_full_rank_error_words())
def test_full_rank_errors_below_n_minus_k_are_always_corrected(case):
    # The paper's claim in its exact form: over GF(p), errors in t < N - K
    # columns whose L x t values have full column rank are corrected with
    # certainty (L >= t and t < N - K give t <= t_max).  Both public
    # decoders, and the batch decoder under both names on the whole stack,
    # locate the planted support and return the codeword.
    code, words, received, supports = case
    outcomes = [[decode(code, r) for r in received] for decode in (cpda_decode, mssr_decode)]
    outcomes += [decoder_module._decode_batch(code, received, name) for name in ("cpda", "mssr")]
    for outs in outcomes:
        for word, support, out in zip(words, supports, outs):
            assert out.success and out.locations == support
            assert np.array_equal(out.corrected, word)
