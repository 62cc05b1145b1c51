"""Shared test fixtures: the reference GF(p) elimination.

gauss_jordan_solve is an unblocked exact solver: one Gauss-Jordan pass over
the whole augmented matrix, with a whole-matrix update per pivot.  It is slow
on tall stacks but simple, so the blocked PrimeField._solve is checked against
it, and it can be patched into PrimeField in its place to run whole decodes on
the reference path.
"""

import numpy as np
import pytest


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
def oracle_solve():
    """The reference solver, callable as a PrimeField method."""
    return gauss_jordan_solve
