"""Shared test fixtures: reference GF(p) elimination and recurrence synthesis.

classical_code builds the GF(p) code that most tests decode over, on the
primitive points g**j, and brute_syndromes_gf is a double-loop oracle for
the syndrome map; tests import both from this module.

gauss_jordan_solve is an unblocked exact solver: one Gauss-Jordan pass over
the whole augmented matrix, with a whole-matrix update per pivot.  It is slow
on tall stacks but simple, so GF(p) solves, which run the blocked
elimination PrimeField._reduce_batch, are checked against it.  Its RREF pass
also checks the basis rows, rank and consistency of _reduce_batch, and it
checks the batch solver PrimeField._solve_batch, matrix by matrix.
gauss_jordan_solve_batch runs it system by system, so that it can be
patched into PrimeField as _solve_batch to run whole decodes, scan and value
solves alike, on the reference path.

reference_decode is cpda_decode written from scratch for GF(p): a scan over
every t from 1 that stacks sliding windows of the brute_syndromes_gf
syndromes (not the decoder's window gather) and solves them by
gauss_jordan_solve, a locator check that evaluates Lambda at every 1/alpha_j
in Python ints, and a gauss_jordan_solve of the error values.  It shares no
window gather, scan, root search or value solve with the decoders, which are
checked against it.

gaussian_synthesize is the GF(p) recurrence synthesis that decoder.py used
before its Berlekamp-Massey pass: at every nonzero discrepancy it refits the
register at lengths t, t + 1, ... by solving the prefix system.  It is slow
but direct, so synthesize_recurrence is checked against it.

lstsq_solve and svd_rank are references for the real field's solve and
rank that do not share its kernel: np.linalg.lstsq accepted by the residual
test, and a count of singular values above the cutoff.  The real _solve,
rank and solve_consistent all run _solve_batch, one stacked SVD, and are
checked against them: the rank and consistency exactly, and the solution
to within rounding, since lstsq sums in another order.

per_trial_draws is the Monte Carlo trial recipe as the harness ran it before
it drew whole batches: a fresh Generator(Philox(SeedSequence((seed, L, t,
trial)))) per trial, its messages, then sample_error added to the codeword.
The harness's batched draws (harness._draw) are checked against it element
for element.
"""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from irscollab.decoder import DecodeOutcome, ErrorLocator, FailureReason, t_max
from irscollab.errmodel import ErrorModelSpec, inject, model_for, sample_error
from irscollab.field import RANK_TOL, RESIDUAL_TOL
from irscollab.grs import make_grs
from irscollab.harness import make_alphas


def classical_code(field, n, k):
    """GRS(n, k) over GF(p) on the points g**j, j in [0, n), g a primitive root."""
    return make_grs(field, n, k, make_alphas(field, n, "primitive"))


def brute_syndromes_gf(code, r):
    """The N - K syndromes sum_j u_j r_j alpha_j**i of a GF(p) word r, by a
    double loop over Python ints."""
    p = code.field.p
    out = []
    for i in range(code.n - code.k):
        acc = 0
        for j in range(code.n):
            acc = (acc + int(code.u[j]) * int(r[j]) * pow(int(code.alphas[j]), i, p)) % p
        out.append(acc)
    return out


def _row_reduce(field, m, ncols):
    m = np.array(m, copy=True)
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
        pivot_inv = pow(int(m[r, c]), field.p - 2, field.p)
        m[r] = (m[r] * pivot_inv) % field.p
        factors = m[:, c].copy()
        factors[r] = 0
        m = (m - np.outer(factors, m[r])) % field.p
        piv_cols.append(c)
        r += 1
    return m, piv_cols


def gauss_jordan_solve(field, a, rhs):
    """(x with free variables zero, or None if inconsistent; rank of a)."""
    n = a.shape[1]
    red, piv = _row_reduce(field, np.hstack([a, rhs]), n)
    nrank = len(piv)
    if np.any(red[nrank:, n:] != 0):
        return None, nrank
    x = field.zeros((n, rhs.shape[1]))
    if piv:
        x[np.array(piv), :] = red[:nrank, n:]
    return x, nrank


def gauss_jordan_solve_batch(field, aug, ncols):
    """_solve_batch's (x, rank, consistent) for a stack of augmented GF(p)
    systems, by gauss_jordan_solve on each; x is zero where inconsistent."""
    aug = aug.reshape(len(aug), math.prod(aug.shape[1:-1]), aug.shape[-1])
    x = field.zeros((len(aug), ncols, aug.shape[2] - ncols))
    rank, consistent = np.zeros(len(aug), dtype=np.intp), np.zeros(len(aug), dtype=bool)
    for b, m in enumerate(aug):
        sol, rank[b] = gauss_jordan_solve(field, m[:, :ncols], m[:, ncols:])
        consistent[b] = sol is not None
        if consistent[b]:
            x[b] = sol
    return x, rank, consistent


@pytest.fixture(scope="session")
def oracle_reduce():
    """The reference RREF: oracle_reduce(field, m, ncols) -> (rref, pivots)."""
    return _row_reduce


@pytest.fixture(scope="session")
def oracle_solve():
    """The reference solver, callable as a PrimeField method."""
    return gauss_jordan_solve


@pytest.fixture(scope="session")
def oracle_solve_batch():
    """The reference batch solver, callable as a PrimeField method."""
    return gauss_jordan_solve_batch


def reference_decode(code, r):
    """cpda_decode's outcome for an L x N word r over GF(p), from scratch.

    For t = 1..t_max: solve the stacked system, built from the syndromes'
    sliding windows of t + 1, by gauss_jordan_solve; at a consistent t a
    rank below t is RANK_DEFICIENT; otherwise the locator
    1 + c_1 z + ... + c_t z^t must vanish at exactly t of the 1/alpha_j
    (NOT_T_VALID), and the values at those columns must explain every
    syndrome (SYNDROME_RESIDUAL).  The first t that passes is the outcome,
    else the first failure, else NO_CONSISTENT_T.
    """
    fld, p = code.field, code.field.p
    r = fld.array(r)
    l, n = r.shape
    alphas, u = [int(a) for a in code.alphas], [int(v) for v in code.u]
    synd = fld.array([brute_syndromes_gf(code, row) for row in r])
    if not synd.any():
        return DecodeOutcome.ok(r.copy(), ErrorLocator(fld.zeros(0)), (), fld.zeros((l, 0)))
    first = None
    for t in range(1, t_max(n, code.k, l) + 1):
        wins = sliding_window_view(synd, t + 1, axis=1)
        x, rank = gauss_jordan_solve(fld, wins[..., :t].reshape(-1, t),
                                     (-wins[..., t] % p).reshape(-1, 1))
        if x is None:
            continue
        if rank < t:
            first = first or DecodeOutcome.fail(FailureReason.RANK_DEFICIENT)
            continue
        coeffs = [int(c) for c in x[::-1, 0]]
        locs = [j for j in range(n)
                if (1 + sum(c * pow(alphas[j], -i, p) for i, c in enumerate(coeffs, 1))) % p == 0]
        if len(locs) != t:
            first = first or DecodeOutcome.fail(FailureReason.NOT_T_VALID)
            continue
        h = fld.array([[u[j] * pow(alphas[j], i, p) % p for j in locs] for i in range(n - code.k)])
        values = gauss_jordan_solve(fld, h, synd.T)[0]
        if values is None:
            first = first or DecodeOutcome.fail(FailureReason.SYNDROME_RESIDUAL)
            continue
        corrected = r.copy()
        corrected[:, locs] = (corrected[:, locs] - values.T) % p
        return DecodeOutcome.ok(corrected, ErrorLocator(fld.array(coeffs)), locs, values.T)
    return first or DecodeOutcome.fail(FailureReason.NO_CONSISTENT_T)


def lstsq_solve(a, b):
    """Least-squares x of a @ x = b (b 1-D or 2-D), or None unless every
    right-hand side passes ||a x - b|| <= RESIDUAL_TOL * max(||b||,
    sigma_max ||x||)."""
    x, _, _, sv = np.linalg.lstsq(a, b, rcond=RANK_TOL * max(a.shape))
    smax = float(sv[0]) if sv.size else 0.0
    resid = a @ x - b
    if b.ndim == 1:
        ok = np.linalg.norm(resid) <= RESIDUAL_TOL * max(
            np.linalg.norm(b), smax * np.linalg.norm(x)
        )
    else:
        bounds = RESIDUAL_TOL * np.maximum(
            np.linalg.norm(b, axis=0), smax * np.linalg.norm(x, axis=0)
        )
        ok = np.all(np.linalg.norm(resid, axis=0) <= bounds)
    return x if ok else None


def svd_rank(m):
    """Count of singular values above RANK_TOL * sigma_max * max(m.shape)."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0] * max(m.shape)))


@pytest.fixture(scope="session")
def oracle_lstsq():
    """The reference real solve and rank: (lstsq_solve, svd_rank)."""
    return lstsq_solve, svd_rank


def _prefix_system(seqs, t2, j, field):
    """Constraint system for a length-t2 recurrence on positions t2..j."""
    rows = j - t2 + 1
    if rows <= 0:
        return None, None
    wins = sliding_window_view(seqs[:, :j], t2, axis=1)[:, :rows, :]
    matrix = wins[..., ::-1].reshape(-1, t2)
    rhs = -seqs[:, t2:j + 1] % field.p
    return matrix, rhs.reshape(-1)


def gaussian_synthesize(field, seqs):
    """(t, (c_1, ..., c_t)): the minimal common recurrence, by repeated refits."""
    seqs = field.array(seqs)
    _, n = seqs.shape
    t = 0
    coeffs = field.zeros(0)
    for j in range(n):
        if j < t:
            continue
        window = seqs[:, j - t:j][:, ::-1]
        delta = seqs[:, j]
        if t:
            delta = field.add(delta, field.matmul(window, coeffs.reshape(-1, 1)).reshape(-1))
        if np.all(delta == 0):
            continue
        for t2 in range(max(t, 1), j + 2):
            matrix, rhs = _prefix_system(seqs, t2, j, field)
            if matrix is None:
                t, coeffs = t2, field.zeros(t2)
                break
            sol = field.solve_consistent(matrix, rhs)
            if sol is not None:
                t, coeffs = t2, sol
                break
    return t, coeffs


@pytest.fixture(scope="session")
def reference_synthesize():
    """The refit synthesis, callable like synthesize_recurrence over GF(p)."""
    return gaussian_synthesize


def per_trial_draws(field, enc, seed, l, t, trials):
    """(words, received), each (B, l, N), for the trial indices in trials:
    per trial, a fresh generator, l x K messages times the K x N encoding
    matrix enc, then a weight-t sample_error (none at t = 0)."""
    words, received = [], []
    for trial in trials:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, l, t, trial))))
        word = field.matmul(field.rand_elements(rng, (l, enc.shape[0])), enc)
        words.append(word)
        if t:
            err = sample_error(ErrorModelSpec(model_for(field), t), field, l, enc.shape[1], rng)
            word = inject(word, err.e, field)
        received.append(word)
    return np.stack(words), np.stack(received)


@pytest.fixture(scope="session")
def oracle_trials():
    """The per-trial draws: oracle_trials(field, enc, seed, l, t, trials)."""
    return per_trial_draws
