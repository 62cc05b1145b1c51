"""Polynomial-coded matmul: expansion oracles, interleaving, recovery."""

import numpy as np
import pytest

from irscollab.errors import InvalidParameters
from irscollab.field import EQ_TOL, PrimeField, RealField
from irscollab.grs import syndromes
from irscollab.polycode import (
    PolyCodeParams,
    assemble_irs,
    choose_exponents,
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
# Exponents and parameter validation
# ---------------------------------------------------------------------------

def test_choose_exponents_examples():
    assert choose_exponents(2, 2) == (1, 2)
    assert choose_exponents(1, 1) == (1, 1)
    assert choose_exponents(3, 4) == (1, 3)
    with pytest.raises(InvalidParameters):
        choose_exponents(0, 2)


def test_exponent_map_is_bijection_default():
    for m in range(1, 5):
        for n in range(1, 5):
            ea, eb = choose_exponents(m, n)
            exps = sorted(j * ea + k * eb for j in range(m) for k in range(n))
            assert exps == list(range(m * n))


def test_params_validation():
    with pytest.raises(InvalidParameters):
        make_params(GF, 2, 2, 3)  # fewer workers than m*n
    with pytest.raises(InvalidParameters):
        PolyCodeParams(field=GF, m=2, n=2, num_workers=5, xs=[1, 2, 3, 4, 4])


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
    """A~_i must equal sum_j A_j x^(j*ea) computed by an explicit loop."""
    rng = np.random.default_rng(42)
    params = make_params(GF, 3, 2, 8)
    a = GF.rand_elements(rng, (4, 6))
    b = GF.rand_elements(rng, (4, 4))
    tasks = encode_tasks(params, a, b)
    a_blocks = np.hsplit(a, 3)
    b_blocks = np.hsplit(b, 2)
    for i, task in enumerate(tasks):
        x = int(params.xs[i])
        a_ref = sum(blk * pow(x, j * params.exp_a, 257) for j, blk in enumerate(a_blocks)) % 257
        b_ref = sum(blk * pow(x, k * params.exp_b, 257) for k, blk in enumerate(b_blocks)) % 257
        assert np.array_equal(task.a_tilde, a_ref)
        assert np.array_equal(task.b_tilde, b_ref)


def _encode_per_worker(params, a, b):
    """The per-worker loop encode_tasks used before it became one matmul per
    input: (A~_i, B~_i) for every worker, as a reference."""
    fld = params.field
    a_blocks = np.hsplit(fld.array(a), params.m)
    b_blocks = np.hsplit(fld.array(b), params.n)
    pow_a = fld.power_matrix(params.xs, (params.m - 1) * params.exp_a + 1)
    pow_b = fld.power_matrix(params.xs, (params.n - 1) * params.exp_b + 1)
    out = []
    for i in range(params.num_workers):
        a_tilde = None
        for j, blk in enumerate(a_blocks):
            term = fld.mul(blk, pow_a[i, j * params.exp_a])
            a_tilde = term if a_tilde is None else fld.add(a_tilde, term)
        b_tilde = None
        for k, blk in enumerate(b_blocks):
            term = fld.mul(blk, pow_b[i, k * params.exp_b])
            b_tilde = term if b_tilde is None else fld.add(b_tilde, term)
        out.append((a_tilde, b_tilde))
    return out


@pytest.mark.parametrize("field, m, n, exps", [
    (GF, 3, 2, None),
    (GF, 2, 3, (1, 2)),  # the derived exponents: exp_a = 1, exp_b = m
    (GF, 1, 3, (1, 1)),
    (PrimeField(2**61 - 1), 3, 2, None),
    (PrimeField(2**61 - 1), 2, 3, (1, 2)),
    (RE, 3, 2, None),
    (RE, 2, 3, (1, 2)),
])
def test_encode_tasks_matches_per_worker_loop(field, m, n, exps):
    rng = np.random.default_rng(11)
    xs = make_params(field, m, n, m * n + 4).xs
    params = PolyCodeParams(field=field, m=m, n=n, num_workers=len(xs), xs=xs)
    if exps:
        assert (params.exp_a, params.exp_b) == exps
    a = field.rand_elements(rng, (5, 4 * m))
    b = field.rand_elements(rng, (5, 2 * n))
    tasks = encode_tasks(params, a, b)
    assert [task.worker_id for task in tasks] == list(range(params.num_workers))
    for task, want in zip(tasks, _encode_per_worker(params, a, b), strict=True):
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
    """C~_i = sum_{j,k} (A_j^T B_k) x^(j*ea + k*eb), checked term by term."""
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
                ref = (ref + coef * pow(x, j * params.exp_a + k * params.exp_b, 257)) % 257
        assert np.array_equal(worker_compute(task), ref)


def test_worker_compute_zero_inputs():
    params = make_params(GF, 2, 1, 4)
    tasks = encode_tasks(params, GF.zeros((3, 4)), GF.zeros((3, 2)))
    assert np.all(worker_compute(tasks[0]) == 0)


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
    for l in range(word.d.shape[0]):
        assert np.all(syndromes(word.code, word.d[l]) == 0)


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
    from irscollab.grs import interpolate

    for l in range(word.d.shape[0]):
        msg = interpolate(word.code, word.d[l])
        p_, q_ = divmod(l, word.block_cols)
        for j in range(2):
            for k in range(2):
                coef = (a_blocks[j].T @ b_blocks[k]) % 257
                assert msg[j * params.exp_a + k * params.exp_b] == coef[p_, q_]


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


def test_interleaving_depth_formula():
    """L = r r' / (m n) when blocks are (r/m) x (r'/n)."""
    params = make_params(GF, 2, 3, 7)
    r, rp = 6, 9
    a = GF.zeros((2, r))
    b = GF.zeros((2, rp))
    outs = [worker_compute(t) for t in encode_tasks(params, a, b)]
    word = assemble_irs(params, outs)
    assert word.d.shape[0] == (r * rp) // (2 * 3)
