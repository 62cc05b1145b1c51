"""Polynomial-coded matmul: expansion oracles, interleaving, recovery."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irscollab.decoder import cpda_decode, layer_syndromes, t_max
from irscollab.errmodel import ErrorModelSpec, inject, sample_error
from irscollab.errors import InvalidParameters, NotACodeword
from irscollab.field import EQ_TOL, PrimeField, RealField
from irscollab.grs import _interpolate_rows, make_grs
from irscollab.polycode import (
    PolyCodeParams,
    assemble_irs,
    encode_tasks,
    recover_product,
    worker_compute,
)

GF = PrimeField(257)
RE = RealField()


def make_params(field, m, n, num_workers):
    if isinstance(field, PrimeField):
        xs = list(range(1, num_workers + 1))
    else:
        xs = (0.9 ** np.arange(1, num_workers + 1)).tolist()
    return PolyCodeParams(field=field, m=m, n=n, num_workers=num_workers, xs=xs)


# ---------------------------------------------------------------------------
# The exponent layout (1, m) and parameter validation
# ---------------------------------------------------------------------------

def test_exponent_map_is_bijection_default():
    # With 1 x 1 blocks each worker output is one entry, and interpolating
    # it gives every product A_j^T B_k once, at degree j + k*m.
    rng = np.random.default_rng(3)
    for m in range(1, 5):
        for n in range(1, 5):
            params = make_params(GF, m, n, m * n + 1)
            a = GF.rand_elements(rng, (2, m))
            b = GF.rand_elements(rng, (2, n))
            word = assemble_irs(params, [worker_compute(t) for t in encode_tasks(params, a, b)])
            (msg,) = _interpolate_rows(word.code, word.d)
            want = [0] * (m * n)
            for j in range(m):
                for k in range(n):
                    want[j + k * m] = int(a[:, j] @ b[:, k]) % 257
            assert msg.tolist() == want


def test_params_validation():
    with pytest.raises(InvalidParameters):
        make_params(GF, 2, 2, 3)  # fewer workers than m*n
    with pytest.raises(InvalidParameters):
        PolyCodeParams(field=GF, m=2, n=2, num_workers=5, xs=[1, 2, 3, 4, 4])


@pytest.mark.parametrize("m, n, num_workers, message", [
    (0, 2, 5, r"^m must be an integer >= 1, got 0$"),
    (2, 0, 5, r"^n must be an integer >= 1, got 0$"),
    (-1, 1, 5, r"^m must be an integer >= 1, got -1$"),
    (2.0, 2, 5, r"^m must be an integer >= 1, got 2\.0$"),
    (2, "2", 5, r"^n must be an integer >= 1, got '2'$"),
    (2, 2, 5.0, r"^num_workers must be an integer >= 1, got 5\.0$"),
], ids=["m=0", "n=0", "m=-1", "m=2.0", "n='2'", "num_workers=5.0"])
def test_params_need_positive_integer_block_counts(m, n, num_workers, message):
    with pytest.raises(InvalidParameters, match=message):
        PolyCodeParams(field=GF, m=m, n=n, num_workers=num_workers,
                       xs=list(range(1, 6)))


@pytest.mark.parametrize("field", [GF, RE])
def test_params_build_their_code_once(field):
    # The induced GRS(N, mn) code is built with the params and shared by
    # every word assembled from them, with its cached matrices.
    params = make_params(field, 2, 2, 6)
    assert (params.code.n, params.code.k) == (6, 4)
    assert params.xs is params.code.alphas and not params.xs.flags.writeable
    outs = [field.zeros((1, 1))] * 6
    first, second = assemble_irs(params, outs), assemble_irs(params, outs)
    assert first.code is params.code and second.code is params.code


@pytest.mark.parametrize("field", [GF, RE, PrimeField(2**61 - 1)], ids=repr)
def test_params_compare_and_hash_by_value(field):
    # Params with equal fields, counts and points are equal and hash alike,
    # whatever the points' container; any differing setting makes them differ.
    params = make_params(field, 2, 2, 6)
    same = PolyCodeParams(field=field, m=2, n=2, num_workers=6, xs=tuple(params.xs.tolist()))
    assert params == same and hash(params) == hash(same)
    assert len({params, same}) == 1
    moved = params.xs.copy()
    moved[-1] = moved[-1] + 1
    for other in (make_params(field, 1, 2, 6), make_params(field, 2, 2, 7),
                  PolyCodeParams(field=field, m=2, n=2, num_workers=6, xs=moved)):
        assert params != other
    assert params != make_params(PrimeField(7) if field == RE else RE, 2, 2, 6)
    assert params != "params"


@pytest.mark.parametrize("field", [GF, RE])
def test_params_need_more_workers_than_k(field):
    # N = K workers leave the induced GRS(N, K) code no redundancy, so
    # assemble_irs could not build it: the params are refused up front.
    with pytest.raises(InvalidParameters, match="K = m\\*n = 4"):
        make_params(field, 2, 2, 4)
    assert make_params(field, 2, 2, 5).k == 4


# ---------------------------------------------------------------------------
# Task encoding
# ---------------------------------------------------------------------------

def test_encode_tasks_identity_for_single_blocks():
    params = make_params(GF, 1, 1, 3)
    a = GF.array([[1, 2], [3, 4]])
    b = GF.array([[5, 6], [7, 8]])
    for task in encode_tasks(params, a, b):
        assert np.array_equal(task.a_tilde, a)
        assert np.array_equal(task.b_tilde, b)


def test_encode_tasks_expansion_oracle():
    """A~_i = sum_j A_j x^j and B~_i = sum_k B_k x^(k*m), by an explicit loop."""
    rng = np.random.default_rng(42)
    params = make_params(GF, 3, 2, 8)
    a = GF.rand_elements(rng, (4, 6))
    b = GF.rand_elements(rng, (4, 4))
    tasks = encode_tasks(params, a, b)
    a_blocks = np.hsplit(a, 3)
    b_blocks = np.hsplit(b, 2)
    for i, task in enumerate(tasks):
        x = int(params.xs[i])
        a_ref = sum(blk * pow(x, j, 257) for j, blk in enumerate(a_blocks)) % 257
        b_ref = sum(blk * pow(x, k * params.m, 257) for k, blk in enumerate(b_blocks)) % 257
        assert np.array_equal(task.a_tilde, a_ref)
        assert np.array_equal(task.b_tilde, b_ref)


def _encode_per_worker(params, a, b, exps):
    """The per-worker loop encode_tasks used before it became one matmul per
    input: (A~_i, B~_i) for every worker, A's block j at degree j * exps[0]
    and B's block k at degree k * exps[1], as a reference."""
    fld = params.field
    exp_a, exp_b = exps
    a_blocks = np.hsplit(fld.array(a), params.m)
    b_blocks = np.hsplit(fld.array(b), params.n)
    pow_a = fld.power_matrix(params.xs, (params.m - 1) * exp_a + 1)
    pow_b = fld.power_matrix(params.xs, (params.n - 1) * exp_b + 1)
    out = []
    for i in range(params.num_workers):
        a_tilde = None
        for j, blk in enumerate(a_blocks):
            term = fld.mul(blk, pow_a[i, j * exp_a])
            a_tilde = term if a_tilde is None else fld.add(a_tilde, term)
        b_tilde = None
        for k, blk in enumerate(b_blocks):
            term = fld.mul(blk, pow_b[i, k * exp_b])
            b_tilde = term if b_tilde is None else fld.add(b_tilde, term)
        out.append((a_tilde, b_tilde))
    return out


# exps is the layout (1, m) written out, or None to take it as (1, m).
@pytest.mark.parametrize("field, m, n, exps", [
    (GF, 3, 2, None),
    (GF, 2, 3, (1, 2)),
    (GF, 1, 3, (1, 1)),
    (PrimeField(2**61 - 1), 3, 2, None),
    (PrimeField(2**61 - 1), 2, 3, (1, 2)),
    (RE, 3, 2, None),
    (RE, 2, 3, (1, 2)),
])
def test_encode_tasks_matches_per_worker_loop(field, m, n, exps):
    # The fixed layout: A_j at degree j and B_k at degree k*m.
    rng = np.random.default_rng(11)
    xs = make_params(field, m, n, m * n + 4).xs
    params = PolyCodeParams(field=field, m=m, n=n, num_workers=len(xs), xs=xs)
    a = field.rand_elements(rng, (5, 4 * m))
    b = field.rand_elements(rng, (5, 2 * n))
    tasks = encode_tasks(params, a, b)
    assert [task.worker_id for task in tasks] == list(range(params.num_workers))
    want = _encode_per_worker(params, a, b, exps or (1, m))
    for task, want in zip(tasks, want, strict=True):
        for got, ref in zip((task.a_tilde, task.b_tilde), want):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            if isinstance(field, PrimeField):
                assert np.array_equal(got, ref)
            else:
                # BLAS may sum the m (or n) terms in another order.
                assert np.allclose(got, ref, rtol=EQ_TOL, atol=EQ_TOL)


def test_encode_tasks_shape_validation():
    params = make_params(GF, 2, 2, 5)
    with pytest.raises(InvalidParameters):
        encode_tasks(params, GF.zeros((4, 5)), GF.zeros((4, 4)))  # 5 % 2 != 0
    with pytest.raises(InvalidParameters):
        encode_tasks(params, GF.zeros((4, 4)), GF.zeros((3, 4)))  # row mismatch


def test_worker_compute_matches_polynomial_expansion():
    """C~_i = sum_{j,k} (A_j^T B_k) x^(j + k*m), checked term by term."""
    rng = np.random.default_rng(7)
    params = make_params(GF, 2, 2, 6)
    a = GF.rand_elements(rng, (3, 4))
    b = GF.rand_elements(rng, (3, 4))
    a_blocks = np.hsplit(a, 2)
    b_blocks = np.hsplit(b, 2)
    for i, task in enumerate(encode_tasks(params, a, b)):
        x = int(params.xs[i])
        ref = np.zeros((2, 2), dtype=np.int64)
        for j in range(2):
            for k in range(2):
                coef = (a_blocks[j].T @ b_blocks[k]) % 257
                ref = (ref + coef * pow(x, j + k * params.m, 257)) % 257
        assert np.array_equal(worker_compute(task), ref)


def test_worker_compute_zero_inputs():
    params = make_params(GF, 2, 1, 4)
    tasks = encode_tasks(params, GF.zeros((3, 4)), GF.zeros((3, 2)))
    assert np.all(worker_compute(tasks[0]) == 0)


def _python_int_product(fld, task):
    """A~^T B~ mod p of a task's canonical encodings, in Python ints."""
    a, b = task.a_tilde.astype(object), task.b_tilde.astype(object)
    return (a.T @ b) % fld.p


@pytest.mark.parametrize("s", [7, 8])
def test_worker_compute_is_exact_at_either_side_of_the_float_rule(s):
    # With m = n = 2 over GF(4099), the rule s * 2(p - 1)**2 * 2(p - 1)**2
    # < 2**53 holds at s = 7 and fails at s = 8: the encodings are left
    # unreduced only at s = 7, and both sides give the exact product of
    # all-(p - 1) operands.
    fld = PrimeField(4099)
    bounds = (2 * (fld.p - 1) ** 2,) * 2
    assert fld._float_exact(s, *bounds) == (s == 7)
    params = PolyCodeParams(field=fld, m=2, n=2, num_workers=7,
                            xs=[fld.p - 1, fld.p - 2, 2, 3, 4, 5, 6])
    a = fld.array(np.full((s, 6), fld.p - 1))
    b = fld.array(np.full((s, 4), fld.p - 1))
    for task in encode_tasks(params, a, b):
        assert (task._a.dtype == np.float64) == (s == 7)
        got = worker_compute(task)
        assert got.dtype == np.int64
        assert got.tolist() == _python_int_product(fld, task).tolist()


@pytest.mark.parametrize("inner", [2, 3])
def test_matmul_takes_dgemm_exactly_while_the_float_rule_holds(monkeypatch, inner):
    # p = 2**26 - 5: the rule inner * (p - 1)**2 < 2**53 holds at inner = 2
    # and fails at 3.  The odd operands p - 2 make 3(p - 2)**2, above 2**53,
    # odd, so a float64 sum there would round: a looser switch fails here.
    fld = PrimeField(2**26 - 5)
    assert fld._float_exact(inner, fld.p - 1, fld.p - 1) == (inner == 2)
    dgemm, rule = [], PrimeField._float_exact

    def recording(self, *args):
        dgemm.append(rule(self, *args))
        return dgemm[-1]

    monkeypatch.setattr(PrimeField, "_float_exact", recording)
    a = np.full((4096, inner), fld.p - 2, dtype=np.int64)
    b = np.full((inner, 4), fld.p - 2, dtype=np.int64)
    assert np.all(fld._matmul(a, b) == inner * 4 % fld.p)  # (p - 2)**2 = 4 mod p
    assert dgemm == [inner == 2]


@pytest.mark.parametrize("fld", [PrimeField(13), GF, PrimeField(65537), PrimeField(2**31 - 1),
                                 PrimeField(2**61 - 1), RE],
                         ids=["gf13", "gf257", "gf65537", "gf2^31-1", "gf2^61-1", "real"])
def test_worker_compute_matches_the_canonical_product(fld):
    # Whether or not the encodings were left unreduced, the worker's output
    # is field.matmul of the canonical encodings, bit for bit.
    rng = np.random.default_rng(5)
    params = make_params(fld, 2, 3, 9)
    a = fld.rand_elements(rng, (48, 2 * 40))
    b = fld.rand_elements(rng, (48, 3 * 20))
    unreduced = fld in (PrimeField(13), GF)  # GF(65537) fails the rule: s * 6 * 2**64
    for task in encode_tasks(params, a, b):
        assert (task._a.dtype != fld.dtype) == unreduced
        got, want = worker_compute(task), fld.matmul(task.a_tilde.T, task.b_tilde)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()


def test_encodings_read_as_canonical_int64():
    rng = np.random.default_rng(9)
    params = make_params(GF, 3, 2, 8)
    tasks = encode_tasks(params, GF.rand_elements(rng, (6, 9)), GF.rand_elements(rng, (6, 4)))
    assert max(task._a.max() for task in tasks) >= GF.p  # left unreduced
    for task in tasks:
        assert task._a.dtype == task._b.dtype == np.float64
        for got, rep in ((task.a_tilde, task._a), (task.b_tilde, task._b)):
            assert got.dtype == np.int64
            assert got.min() >= 0 and got.max() < GF.p
            assert np.array_equal(got, rep.astype(np.int64) % GF.p)
        assert task.a_tilde is task.a_tilde  # reduced once, on first access


# ---------------------------------------------------------------------------
# Interleaving
# ---------------------------------------------------------------------------

def test_assemble_irs_rows_are_codewords_gf():
    rng = np.random.default_rng(11)
    params = make_params(GF, 2, 2, 7)
    a = GF.rand_elements(rng, (3, 4))
    b = GF.rand_elements(rng, (3, 6))
    outs = [worker_compute(t) for t in encode_tasks(params, a, b)]
    word = assemble_irs(params, outs)
    assert word.d.shape == (2 * 3, 7)  # L = (r/m)(r'/n) = 2*3
    assert word.code.k == params.k == 4
    assert not layer_syndromes(word.code, word.d).values.any()


def test_assemble_irs_row_entry_index_map():
    """Row l of D holds entry (l // bc, l % bc) of every worker output."""
    rng = np.random.default_rng(13)
    params = make_params(GF, 2, 1, 5)
    a = GF.rand_elements(rng, (2, 4))
    b = GF.rand_elements(rng, (2, 3))
    outs = [worker_compute(t) for t in encode_tasks(params, a, b)]
    word = assemble_irs(params, outs)
    bc = word.block_cols
    for l in range(word.d.shape[0]):
        for i in range(5):
            assert word.d[l, i] == outs[i][l // bc, l % bc]


def test_assemble_irs_rows_evaluate_product_polynomial():
    """Interpolating row l recovers the entries of the blocks A_j^T B_k."""
    rng = np.random.default_rng(17)
    params = make_params(GF, 2, 2, 9)
    a = GF.rand_elements(rng, (3, 4))
    b = GF.rand_elements(rng, (3, 4))
    outs = [worker_compute(t) for t in encode_tasks(params, a, b)]
    word = assemble_irs(params, outs)
    a_blocks = np.hsplit(a, 2)
    b_blocks = np.hsplit(b, 2)
    msgs = _interpolate_rows(word.code, word.d)
    for l, msg in enumerate(msgs):
        p_, q_ = divmod(l, word.block_cols)
        for j in range(2):
            for k in range(2):
                coef = (a_blocks[j].T @ b_blocks[k]) % 257
                assert msg[j + k * params.m] == coef[p_, q_]


def test_assemble_irs_validation():
    params = make_params(GF, 1, 1, 3)
    with pytest.raises(InvalidParameters):
        assemble_irs(params, [GF.zeros((2, 2))] * 2)  # wrong count
    with pytest.raises(InvalidParameters):
        assemble_irs(params, [GF.zeros((2, 2)), GF.zeros((2, 2)), GF.zeros((2, 3))])


# ---------------------------------------------------------------------------
# End-to-end recovery (no errors)
# ---------------------------------------------------------------------------

def test_recover_product_exact_gf():
    rng = np.random.default_rng(19)
    for m, n, nw in [(1, 1, 2), (2, 1, 4), (2, 2, 6), (3, 2, 9)]:
        params = make_params(GF, m, n, nw)
        a = GF.rand_elements(rng, (4, 2 * m))
        b = GF.rand_elements(rng, (4, 2 * n))
        outs = [worker_compute(t) for t in encode_tasks(params, a, b)]
        got = recover_product(params, assemble_irs(params, outs))
        assert np.array_equal(got, (a.T @ b) % 257)


def test_recover_product_zero_matrices():
    params = make_params(GF, 2, 2, 5)
    a = GF.zeros((3, 4))
    b = GF.zeros((3, 4))
    outs = [worker_compute(t) for t in encode_tasks(params, a, b)]
    got = recover_product(params, assemble_irs(params, outs))
    assert np.all(got == 0)


def test_recover_product_real_tolerance():
    rng = np.random.default_rng(23)
    params = make_params(RE, 2, 2, 8)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    outs = [worker_compute(t) for t in encode_tasks(params, a, b)]
    got = recover_product(params, assemble_irs(params, outs))
    ref = a.T @ b
    assert np.max(np.abs(got - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))


def _product_word(field, rng):
    params = make_params(field, 2, 2, 6)
    a, b = field.rand_elements(rng, (3, 4)), field.rand_elements(rng, (3, 4))
    outs = [worker_compute(t) for t in encode_tasks(params, a, b)]
    return params, assemble_irs(params, outs)


def test_recover_product_rejects_a_non_finite_real_word():
    params, word = _product_word(RE, np.random.default_rng(24))
    d = word.d.copy()
    d[1, 2] = np.nan
    with pytest.raises(ValueError):
        recover_product(params, replace(word, d=d))


def test_recover_product_reduces_a_shifted_gf_word():
    # Entries shifted by +-p are the same codeword, as the decoders read them.
    params, word = _product_word(GF, np.random.default_rng(25))
    shift = np.random.default_rng(26).integers(-1, 2, word.d.shape) * GF.p
    got = recover_product(params, replace(word, d=word.d + shift))
    assert np.array_equal(got, recover_product(params, word))


@settings(max_examples=100, deadline=None)
@given(e=st.integers(-600, 830), seed=st.integers(0, 2**32 - 1))
def test_recover_product_is_scale_invariant(e, seed):
    # A clean real word scaled by 2**e gives 2**e times its product, and a
    # scaled non-codeword is still rejected: norms that square the entries
    # overflow to inf past about 1e154 and vanish below about 1e-154.
    rng = np.random.default_rng(seed)
    params, word = _product_word(RE, rng)
    c = 2.0**e
    assert np.array_equal(recover_product(params, replace(word, d=word.d * c)),
                          recover_product(params, word) * c)
    noise = rng.standard_normal(word.d.shape)
    with pytest.raises(NotACodeword):
        recover_product(params, replace(word, d=(word.d + noise) * c))


@pytest.mark.parametrize("field, xs, moved", [
    (GF, range(1, 9), range(2, 10)),
    (RE, 0.9 ** np.arange(1, 9), 0.9 ** np.arange(2, 10)),
], ids=["gf257", "real"])
def test_recover_product_interpolates_on_the_params_code(field, xs, moved):
    # A word of the code on xs that carries the code on moved points: over
    # GF(p), with xs = 1..8, f(x) and f(x - 1) are both codewords, so
    # interpolating on the carried code gave a wrong product and no error.
    params = PolyCodeParams(field=field, m=2, n=2, num_workers=8, xs=xs)
    rng = np.random.default_rng(27)
    a, b = field.rand_elements(rng, (3, 4)), field.rand_elements(rng, (3, 4))
    word = assemble_irs(params, [worker_compute(t) for t in encode_tasks(params, a, b)])
    truth = field.matmul(a.T, b)
    other_field = RE if field == GF else PrimeField(257)
    for code in (make_grs(field, 8, 4, moved), make_grs(field, 8, 3, xs),
                 make_grs(field, 9, 4, [*xs, 0.5 if field == RE else 100]),
                 make_grs(other_field, 8, 4, range(1, 9))):
        with pytest.raises(InvalidParameters, match="not the params' code"):
            recover_product(params, replace(word, code=code))
    # A code built anew on the same points is the params' code.
    got = recover_product(params, replace(word, code=make_grs(field, 8, 4, xs)))
    assert np.array_equal(got, truth) if field == GF else np.allclose(got, truth)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([7, 13, 257, 65537, 2**31 - 1, 3037000493, 2**61 - 1]),
       m=st.integers(1, 3), n=st.integers(1, 3), extra=st.integers(1, 6), rows=st.integers(1, 3),
       block_rows=st.integers(1, 2), block_cols=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_recover_product_is_exact_clean_and_after_correction(
        p, m, n, extra, rows, block_rows, block_cols, seed, data):
    # p = 3037000493 is the largest prime whose products of two residues fit
    # in int64; 2**61 - 1 runs on Python ints.
    fld = PrimeField(p)
    workers = m * n + extra
    assume(workers <= p - 1)
    xs = data.draw(st.lists(st.integers(1, p - 1), min_size=workers, max_size=workers,
                            unique=True))
    params = PolyCodeParams(field=fld, m=m, n=n, num_workers=workers, xs=xs)
    rng = np.random.default_rng(seed)
    a = fld.rand_elements(rng, (rows, m * block_rows))
    b = fld.rand_elements(rng, (rows, n * block_cols))
    want = ((a.astype(object).T @ b.astype(object)) % p).tolist()
    word = assemble_irs(params, [worker_compute(t) for t in encode_tasks(params, a, b)])
    assert recover_product(params, word).tolist() == want

    l = word.d.shape[0]
    t = data.draw(st.integers(0, t_max(workers, params.k, l)))
    err = sample_error(ErrorModelSpec(kind="uref", t=t), fld, l, workers, rng)
    outcome = cpda_decode(word.code, inject(word.d, err.e, fld))
    if 2 * t <= workers - params.k:  # within half the minimum distance
        assert outcome.success
    if outcome.success:
        got = recover_product(params, replace(word, d=outcome.corrected))
        assert got.tolist() == want


def test_interleaving_depth_formula():
    """L = r r' / (m n) when blocks are (r/m) x (r'/n)."""
    params = make_params(GF, 2, 3, 7)
    r, rp = 6, 9
    a = GF.zeros((2, r))
    b = GF.zeros((2, rp))
    outs = [worker_compute(t) for t in encode_tasks(params, a, b)]
    word = assemble_irs(params, outs)
    assert word.d.shape[0] == (r * rp) // (2 * 3)
