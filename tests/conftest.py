"""Shared test fixtures: reference GF(p) elimination and recurrence synthesis.

classical_code builds the GF(p) code that most tests decode over, on the
primitive points g**j, and brute_syndromes_gf is a double-loop oracle for
the syndrome map; tests import both from this module.

gauss_jordan_solve is an unblocked exact solver: one Gauss-Jordan pass over
the whole augmented matrix, with a whole-matrix update per pivot.  It is slow
on tall stacks but simple, so the blocked PrimeField._solve is checked against
it, and it can be patched into PrimeField in its place to run whole decodes on
the reference path.  Its RREF pass also checks the batched elimination
PrimeField._reduce_batch, and it checks the batch solver
PrimeField._solve_batch, matrix by matrix.

gaussian_synthesize is the GF(p) recurrence synthesis that decoder.py used
before its Berlekamp-Massey pass: at every nonzero discrepancy it refits the
register at lengths t, t + 1, ... by solving the prefix system.  It is slow
but direct, so synthesize_recurrence is checked against it.

lstsq_solve and svd_rank are the real field's solve and rank as they were
before RealField._solve took both from one factorisation: a least-squares
solve accepted by its residual test, and a count of singular values above
the cutoff.  RealField._solve, rank, solve_consistent and _solve_batch
are checked against them.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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


@pytest.fixture(scope="session")
def oracle_reduce():
    """The reference RREF: oracle_reduce(field, m, ncols) -> (rref, pivots)."""
    return _row_reduce


@pytest.fixture(scope="session")
def oracle_solve():
    """The reference solver, callable as a PrimeField method."""
    return gauss_jordan_solve


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
