"""Error models: support statistics, value distributions, determinism."""

import numpy as np
import pytest

from irscollab.errmodel import ErrorMatrix, ErrorModelSpec, inject, sample_error
from irscollab.errors import InvalidParameters
from irscollab.field import PrimeField, RealField

GF7 = PrimeField(7)
RE = RealField()


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(InvalidParameters):
        ErrorModelSpec(kind="bogus", t=1)
    with pytest.raises(InvalidParameters):
        ErrorModelSpec(kind="uref", t=-1)


def test_field_model_pairing_enforced():
    with pytest.raises(InvalidParameters):
        sample_error(ErrorModelSpec(kind="uref", t=1), RE, 2, 4, rng_for(0))
    with pytest.raises(InvalidParameters):
        sample_error(ErrorModelSpec(kind="gre", t=1), GF7, 2, 4, rng_for(0))


def test_t_bounds():
    with pytest.raises(InvalidParameters):
        sample_error(ErrorModelSpec(kind="uref", t=5), GF7, 2, 4, rng_for(0))
    em = sample_error(ErrorModelSpec(kind="uref", t=0), GF7, 2, 4, rng_for(0))
    assert em.support == () and np.all(em.e == 0)
    em_full = sample_error(ErrorModelSpec(kind="uref", t=4), GF7, 2, 4, rng_for(1))
    assert em_full.support == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# Support and weight
# ---------------------------------------------------------------------------

def test_weight_always_t_both_models():
    for trial in range(50):
        em = sample_error(ErrorModelSpec(kind="uref", t=3), GF7, 2, 8, rng_for(trial))
        assert len(em.support) == 3
        assert np.count_nonzero(em.e.any(axis=0)) == 3
        em_r = sample_error(ErrorModelSpec(kind="gre", t=3), RE, 2, 8, rng_for(trial))
        assert np.count_nonzero(em_r.e.any(axis=0)) == 3


def test_hamming_weight_brute_force_oracle():
    # The nonzero columns of a sampled error, found entry by entry, are its
    # support: its burst weight is t.
    rng = rng_for(99)
    for _ in range(30):
        t = int(rng.integers(0, 7))
        em = sample_error(ErrorModelSpec(kind="uref", t=t), GF7, 3, 6, rng)
        brute = tuple(j for j in range(6) if any(int(em.e[i, j]) != 0 for i in range(3)))
        assert brute == em.support and len(brute) == t


def test_support_uniform_over_subsets():
    """Every 2-subset of 4 columns appears with frequency ~ 1/6."""
    counts = {}
    spec = ErrorModelSpec(kind="uref", t=2)
    n_trials = 30_000
    rng = rng_for(123)
    for _ in range(n_trials):
        em = sample_error(spec, GF7, 1, 4, rng)
        counts[em.support] = counts.get(em.support, 0) + 1
    assert len(counts) == 6
    p = 1 / 6
    bound = 4 * np.sqrt(p * (1 - p) / n_trials)
    for got in counts.values():
        assert abs(got / n_trials - p) <= bound


# ---------------------------------------------------------------------------
# Value distributions
# ---------------------------------------------------------------------------

def test_uref_values_uniform_over_nonzero():
    """q=7, L=1, t=1: each nonzero value appears with freq 1/6 +- 3 sigma."""
    spec = ErrorModelSpec(kind="uref", t=1)
    n_trials = 100_000
    rng = rng_for(2027)
    counts = np.zeros(7, dtype=int)
    for _ in range(n_trials):
        em = sample_error(spec, GF7, 1, 3, rng)
        counts[int(em.e[0, em.support[0]])] += 1
    assert counts[0] == 0
    p = 1 / 6
    sigma = np.sqrt(p * (1 - p) / n_trials)
    for v in range(1, 7):
        assert abs(counts[v] / n_trials - p) <= 3 * sigma


def test_uref_columns_never_all_zero_l2():
    spec = ErrorModelSpec(kind="uref", t=2)
    rng = rng_for(31)
    gf2 = PrimeField(2)  # all-zero columns are likeliest at q = 2
    for _ in range(2000):
        em = sample_error(spec, gf2, 2, 5, rng)
        assert np.all(np.any(em.e[:, list(em.support)] != 0, axis=0))


def test_gre_moments():
    # Standard normal entries; the bounds are those of the former mean-2,
    # standard-deviation-3 check divided by 3.
    spec = ErrorModelSpec(kind="gre", t=4)
    rng = rng_for(57)
    vals = []
    for _ in range(2000):
        em = sample_error(spec, RE, 3, 6, rng)
        vals.append(em.e[:, list(em.support)].ravel())
    vals = np.concatenate(vals)
    assert abs(vals.mean()) < 0.05 / 3
    assert abs(vals.std() - 1.0) < 0.05 / 3


# ---------------------------------------------------------------------------
# Determinism and injection
# ---------------------------------------------------------------------------

def test_determinism_same_seed():
    spec = ErrorModelSpec(kind="uref", t=3)
    a = sample_error(spec, GF7, 4, 10, rng_for(77))
    b = sample_error(spec, GF7, 4, 10, rng_for(77))
    assert a.support == b.support
    assert np.array_equal(a.e, b.e)
    c = sample_error(spec, GF7, 4, 10, rng_for(78))
    assert not np.array_equal(a.e, c.e)


def test_inject_examples():
    d = GF7.array([[1, 2], [3, 4]])
    e = GF7.array([[6, 0], [0, 5]])
    assert inject(d, e, GF7).tolist() == [[0, 2], [3, 2]]
    with pytest.raises(InvalidParameters):
        inject(d, GF7.zeros((3, 2)), GF7)
    dr = np.array([[0.5, -1.0]])
    er = np.array([[0.25, 1.0]])
    assert inject(dr, er, RE).tolist() == [[0.75, 0.0]]


def test_inject_object_dtype_and_nonfinite():
    big = PrimeField(2**61 - 1)
    d = big.array([[2**61 - 2, 5]])
    e = big.array([[3, 2**61 - 6]])
    out = inject(d, e, big)
    assert out.dtype == object and out.tolist() == [[2, 0]]
    assert inject([[6, 0]], [[1, 13]], GF7).tolist() == [[0, 6]]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            inject(np.array([[0.5, bad]]), np.zeros((1, 2)), RE)
    with pytest.raises(TypeError):
        inject(np.array([[0.5, 1.0]]), np.zeros((1, 2), dtype=np.int64), GF7)


def test_error_matrix_is_readonly():
    em = sample_error(ErrorModelSpec(kind="uref", t=1), GF7, 2, 4, rng_for(5))
    with pytest.raises(ValueError):
        em.e[0, 0] = 3
