"""Collaborative decoding of interleaved GRS words.

An interleaved word R (L x N) carries L codewords of one GRS(N, K) code hit
by errors confined to at most t shared columns.  Each layer l yields N - K
syndromes S^(l)_i; a common error-locator polynomial Lambda(z) = 1 + c_1 z +
... + c_t z^t with roots 1/alpha_j at the erroneous columns j satisfies, for
every layer, the windowed recurrence

    sum_{k=0}^{t-1} S^(l)_{i+k} * c_{t-k} = -S^(l)_{t+i},   0 <= i < N-K-t.

Stacking these L Hankel blocks gives one linear system in the t unknown
coefficients; errors in up to t_max = floor(L (N-K) / (L+1)) columns are
correctable whenever the stack has full column rank.

The errors hit at most t columns, so the L x (N-K) syndrome matrix is
S = E_t H_t, of rank at most min(L, t, N-K).  Everything the decoders derive
from S is linear in its rows and so depends only on its row space: the
solution set and the rank of each stacked system, the minimal common
recurrence and, when unique, its coefficients (Metzner and Kapturowski,
IEEE T-IT 1990, use the same fact for L >= t).  Over GF(p), with more
layers than positions, both decoders therefore first reduce S to its RREF
row basis, at most N - K rows, by the blocked scan of PrimeField._scan, and
stack, eliminate and synthesize on that basis; only the error-value solve
keeps all L layers.  Sequences sharing a recurrence of length t span at
most t dimensions, so cpda_decode starts its scan at the rank of S.  Real
words keep all L layers.  With S = QR the least-squares problem would not
change (the Gram matrix, solution and residual from R's rows equal those
from S's), but RealField's rank cutoff and residual bound scale with
max(shape) of the stacked system, which compression shrinks, and mssr's real
refit tests the discrepancy of each row against that row's own magnitude,
which R's rows do not keep.

The Monte Carlo harness decodes GF(p) words only in batches, through
_decode_batch: it gives every word of a (B, L, N) stack the outcome that
cpda_decode or mssr_decode would, with each stage one array operation over
the whole stack: row bases for every L, and for mssr one Berlekamp-Massey
pass (below) over all the words, one loop over the positions.  The public
decoders take one word, so a deep word keeps the blocked scan above.

Two decoders are provided and produce identical outcomes: cpda_decode scans
t = 1, 2, ... and accepts the first t whose stacked system is consistent
(with a unique solution), while mssr_decode synthesizes the minimal-length
common recurrence of the L syndrome sequences directly and validates it.
Both certify the result through the same location and value-recovery checks,
so a Success is always the closest (maximum-likelihood) explanation of R.

Over GF(p) the synthesis is one multi-sequence Berlekamp-Massey pass (Feng
and Tzeng, IEEE T-IT 1991; Schmidt, Sidorenko and Bossert, IEEE T-IT 2009).
It keeps a register C of length ell and a few records (B, ell_B, m, D):
earlier registers that held through position m - 1 and failed at m with
discrepancy vector D in F^L.  At a position j whose discrepancy vector
delta is nonzero, delta is written in the records' D, and C subtracts the
same combination of the shifted registers x^(j-m) B; the length becomes
the largest of ell and the used records' j - m + ell_B, or j + 1 when delta
lies outside the span of the D (nothing shorter then explains position j).
Record exchange: the old register (C, ell, j, delta) joins the records when
delta was outside their span, and otherwise replaces the used record of
lowest m - ell_B when its own j - ell is higher.  The records thus stay a
basis of their span with the greatest m - ell_B, which makes every length
the least possible.  With L = 1 this is the classical algorithm.  Over the
reals, where Berlekamp-Massey is numerically unstable, the register is
refit by least squares instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParameters
from .field import EQ_TOL, ROOT_TOL, Field, PrimeField
from .grs import GrsCode

__all__ = [
    "FailureReason",
    "ErrorLocator",
    "SyndromeSet",
    "StackedSystem",
    "DecodeOutcome",
    "t_max",
    "layer_syndromes",
    "build_stacked",
    "synthesize_recurrence",
    "is_t_valid",
    "recover_error_values",
    "cpda_decode",
    "mssr_decode",
    "outcomes_equal",
]


class FailureReason(enum.Enum):
    """Why a decode attempt returned no corrected word.

    NO_CONSISTENT_T    no t <= t_max admits any common recurrence
    RANK_DEFICIENT     the minimal consistent t admits multiple recurrences
    NOT_T_VALID        the unique locator lacks t distinct candidate roots
    SYNDROME_RESIDUAL  located error values cannot reproduce the syndromes
    """

    NO_CONSISTENT_T = "no_consistent_t"
    RANK_DEFICIENT = "rank_deficient"
    NOT_T_VALID = "not_t_valid"
    SYNDROME_RESIDUAL = "syndrome_residual"


@dataclass(frozen=True)
class ErrorLocator:
    """Lambda(z) = 1 + coeffs[0] z + ... + coeffs[t-1] z^t."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.array(self.coeffs, copy=True))
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def t(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class SyndromeSet:
    """Per-layer syndromes; scale carries magnitude references over the reals."""

    values: np.ndarray
    scale: np.ndarray | None = None


@dataclass(frozen=True)
class StackedSystem:
    """The L stacked Hankel blocks for a trial error count t."""

    t: int
    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of a decode attempt.

    On success, corrected is the repaired L x N word, locations the sorted
    erroneous columns, values the L x t error values subtracted there, and
    locator the certified error-locator polynomial.  On failure only reason
    is set.  A Success certifies that the corrected word has all-zero
    syndromes (to within the residual tolerance over the reals) and is the
    closest interleaved codeword to the input.
    """

    success: bool
    corrected: np.ndarray | None = None
    locator: ErrorLocator | None = None
    locations: tuple | None = None
    values: np.ndarray | None = None
    reason: FailureReason | None = None

    @classmethod
    def ok(cls, corrected, locator, locations, values):
        return cls(success=True, corrected=corrected, locator=locator,
                   locations=tuple(int(j) for j in locations), values=values)

    @classmethod
    def fail(cls, reason: FailureReason):
        return cls(success=False, reason=reason)


def t_max(n: int, k: int, l: int) -> int:
    """Collaborative decoding radius floor(l * (n - k) / (l + 1))."""
    if not 1 <= k < n:
        raise InvalidParameters(f"need 1 <= k < n, got n={n}, k={k}")
    if l < 1:
        raise InvalidParameters(f"need l >= 1, got l={l}")
    return (l * (n - k)) // (l + 1)


def layer_syndromes(code: GrsCode, r) -> SyndromeSet:
    """Syndromes of every layer of an L x N word, with magnitude references."""
    r = code.field.array(r)
    if r.ndim != 2 or r.shape[1] != code.n:
        raise InvalidParameters(f"expected an L x {code.n} matrix, got shape {r.shape}")
    return _syndromes(code, r)


def _syndromes(code: GrsCode, r: np.ndarray) -> SyndromeSet:
    """layer_syndromes of a validated word."""
    fld, h = code.field, code.syndrome_matrix()
    if isinstance(fld, PrimeField):
        return SyndromeSet(values=fld._matmul(r, h))
    return SyndromeSet(values=r @ h, scale=np.abs(r) @ code.syndrome_matrix_abs())


def _row_space(field: Field, values: np.ndarray) -> np.ndarray:
    """The rows the decoders scan: an RREF basis of GF(p) syndromes.

    Only when there are more layers than positions, since the basis has at
    most as many rows as positions.  Real syndromes keep every layer.
    """
    if not isinstance(field, PrimeField) or values.shape[0] <= values.shape[1]:
        return values
    return field._scan(values, values[:, :0])[0]


def _stack(values: np.ndarray, t: int, field: Field) -> StackedSystem:
    nk = values.shape[1]
    win = sliding_window_view(values, t, axis=1)
    matrix = win[:, : nk - t, :].reshape(-1, t)
    rhs = field._sub(0, values[:, t:])
    return StackedSystem(t=t, matrix=matrix, rhs=rhs.reshape(-1))


def build_stacked(code: GrsCode, r, t: int) -> StackedSystem:
    """Stacked syndrome system for trial error count t.

    Per layer, row i pairs the window (S_i, ..., S_{i+t-1}) with the
    right-hand side -S_{t+i}; the unknown vector is (c_t, ..., c_1).
    """
    if not isinstance(t, (int, np.integer)) or t < 1:
        raise InvalidParameters(f"t must be a positive integer, got {t!r}")
    r = code.field.array(r)
    if r.ndim != 2:
        raise InvalidParameters("expected an L x N matrix")
    tm = t_max(code.n, code.k, r.shape[0])
    if t > tm:
        raise InvalidParameters(f"t={t} exceeds the decoding radius t_max={tm}")
    return _stack(layer_syndromes(code, r).values, int(t), code.field)


# ---------------------------------------------------------------------------
# Minimal common recurrence synthesis
# ---------------------------------------------------------------------------

def _synthesize_gf(field: PrimeField, seqs: np.ndarray):
    """Multi-sequence Berlekamp-Massey over canonical GF(p) rows.

    c holds the register (c[0] = 1) of length ell.  Record i, (b, ell_b, m),
    is an earlier register of length ell_b that held through position m - 1
    and failed at m with the discrepancy vector in column i of disc.  These
    r columns stay linearly independent (at most min(L, n) of them); on the
    rows sel they form an invertible r x r matrix whose inverse is
    inv[:r, :r].
    """
    p = field.p
    rows, n = seqs.shape
    cap = min(rows, n)
    disc, inv = field.zeros((rows, cap)), field.zeros((cap, cap))
    sel, records = [], []
    c, ell = field.ones(1), 0
    for j in range(n):
        delta = field._matmul(seqs[:, j - ell:j + 1], c[::-1])
        if not delta.any():
            continue
        r = len(records)
        x = field._matmul(inv[:r, :r], delta[sel])
        resid = (delta - field._matmul(disc[:, :r], x)) % p
        out = resid.nonzero()[0]
        if out.size:
            # delta is outside the records' span: the implicit record
            # (1, 0, -1) gives length j + 1, which constrains no position.
            # Row k joins sel, and the new record's column joins inv.
            k = int(out[0])
            row = field.zeros(r + 1)
            row[:r] = -field._matmul(disc[k, :r], inv[:r, :r]) % p
            row[r] = 1
            pivot = resid[k]
            new_ell, slot, used = j + 1, r, ()
            sel.append(k)
            records.append(None)
        else:
            used = x.nonzero()[0]
            low = min(used, key=lambda i: records[i][2] - records[i][1])
            new_ell = max(ell, j - records[low][2] + records[low][1])
            slot = low if new_ell > ell else None
            row, pivot = inv[low, :r], x[low]
        new_c = field.zeros(new_ell + 1)
        new_c[:ell + 1] = c
        for i in used:
            b, _, m = records[i]
            new_c[j - m:j - m + len(b)] = (new_c[j - m:j - m + len(b)] - x[i] * b) % p
        if slot is not None:
            row = row * pow(int(pivot), p - 2, p) % p
            inv[:r, :len(row)] = (inv[:r, :len(row)] - x[:, None] * row) % p
            inv[slot, :len(row)] = row
            disc[:, slot] = delta
            records[slot] = (c, ell, j)
        c, ell = new_c, new_ell
    return ell, c[1:]


def synthesize_recurrence(field: Field, seqs, scales=None):
    """Minimal-length common linear recurrence over the rows of seqs.

    Returns (t, coeffs) with coeffs = (c_1, ..., c_t) such that every row s
    obeys s[i] + sum_k c_k s[i-k] = 0 for t <= i < len(s); t is the least
    length for which any such recurrence exists (c_t may be zero).

    Over GF(p) this is one multi-sequence Berlekamp-Massey pass (see the
    module docstring).  At each position j with a nonzero discrepancy
    vector, the register subtracts the combination of records (earlier
    registers B that failed at a position m) whose discrepancy vectors sum
    to it, each shifted by x^(j-m); the length grows to the largest
    j - m + ell_B of the records used, or to j + 1 when the vector is outside
    their span.  Record exchange: the old register then joins the records,
    and otherwise replaces the used record of lowest m - ell_B when its own
    j - ell is higher, which is exactly when the length grows.  The final
    length is the least common-recurrence length, and the coefficients are
    the unique ones whenever the t-stack has full column rank.  The records'
    discrepancy vectors are kept with the inverse of their restriction to as
    many chosen rows, so writing a discrepancy in them is one small product
    checked on every row by one residual product, and an exchange updates
    that inverse by one pivot: no elimination runs inside the pass.

    Over the reals, where that pass is numerically unstable, the register
    is refit at each nonzero discrepancy: the smallest length whose
    least-squares system over the processed prefix is consistent.
    Discrepancy zero tests there are scale-relative; scales (same shape as
    seqs) supplies per-syndrome magnitude references.
    """
    seqs = field.array(seqs)
    if seqs.ndim != 2:
        raise InvalidParameters("expected an L x n matrix of sequences")
    if isinstance(field, PrimeField):
        return _synthesize_gf(field, seqs)
    n = seqs.shape[1]
    mags = np.abs(seqs)
    if scales is not None:
        mags = np.maximum(mags, np.asarray(scales, dtype=np.float64))
    t = 0
    coeffs = field.zeros(0)
    for j in range(n):
        if j < t:
            continue
        window = seqs[:, j - t:j][:, ::-1]
        delta = seqs[:, j] + (window @ coeffs if t else 0)
        base = mags[:, j] + (np.abs(window) @ np.abs(coeffs) if t else 0)
        if np.all(field.is_zero(delta, scale=base)):
            continue
        for t2 in range(max(t, 1), j + 2):
            if t2 > j:
                t, coeffs = t2, field.zeros(t2)
                break
            system = _stack(seqs[:, :j + 1], t2, field)
            sol = field._solve(np.ascontiguousarray(system.matrix[:, ::-1]), system.rhs[:, None])[0]
            if sol is not None:
                t, coeffs = t2, sol[:, 0]
                break
    return t, coeffs


# ---------------------------------------------------------------------------
# Locator validation and error-value recovery
# ---------------------------------------------------------------------------

def _require_invertible_points(code: GrsCode):
    if np.any(np.asarray(code.alphas) == 0):
        raise InvalidParameters("decoding requires nonzero evaluation points")


def is_t_valid(code: GrsCode, locator: ErrorLocator):
    """Check that Lambda has exactly t distinct roots among the 1/alpha_j.

    Returns (valid, locations).  Over GF(p) the candidates are evaluated
    exactly; over the reals the t polynomial roots are matched to their
    nearest candidates, each match accepted only within a window of
    max(ROOT_TOL * |candidate|, 0.45 * nearest-candidate gap) so that roots
    perturbed by solver noise are recognized while off-grid or coalescing
    roots are rejected.
    """
    _require_invertible_points(code)
    fld = code.field
    t = locator.t
    if t == 0:
        return True, ()
    if isinstance(fld, PrimeField):
        coeffs = fld.array(locator.coeffs)
        if coeffs[-1] == 0:
            return False, ()
        cands = code.inverse_powers()[:, 1]
        acc = fld.zeros(code.n)
        for c in list(coeffs[::-1]) + [1]:
            acc = (acc * cands + c) % fld.p
        locations = np.nonzero(acc == 0)[0]
        return (locations.shape[0] == t), tuple(int(j) for j in locations)
    coeffs = np.asarray(locator.coeffs, dtype=np.float64)
    lead_scale = max(1.0, float(np.max(np.abs(coeffs))))
    if fld.is_zero(coeffs[-1], scale=lead_scale):
        return False, ()
    roots = np.roots(np.concatenate([coeffs[::-1], [1.0]]))
    cands = 1.0 / np.asarray(code.alphas, dtype=np.float64)
    gaps = code.candidate_gaps()
    matched = set()
    for root in roots:
        dists = np.abs(root - cands)
        j1 = int(np.argmin(dists))
        window = max(ROOT_TOL * max(abs(cands[j1]), 1.0), 0.45 * gaps[j1])
        if dists[j1] > window:
            return False, ()
        matched.add(j1)
    if len(matched) != t:
        return False, ()
    return True, tuple(sorted(matched))


def recover_error_values(code: GrsCode, locations, synd: SyndromeSet):
    """Error values explaining every syndrome at the given locations.

    Solves, for each layer, the full overdetermined system
    sum_i u_{j_i} e_{j_i} alpha_{j_i}^k = S_k over all N - K syndromes;
    returns the L x t value matrix, or None when any layer's system is
    inconsistent (so the locations cannot explain the received word).
    Raises InvalidParameters unless the locations are distinct integers in
    [0, N) and the syndromes form an L x (N - K) matrix.
    """
    values = code.field.array(synd.values)
    if values.ndim != 2 or values.shape[1] != code.n - code.k:
        raise InvalidParameters(
            f"expected an L x {code.n - code.k} syndrome matrix, got shape {values.shape}")
    locations = list(locations)
    if not all(isinstance(j, (int, np.integer)) and not isinstance(j, bool)
               and 0 <= j < code.n for j in locations):
        raise InvalidParameters(f"locations must be integers in [0, {code.n}), got {locations}")
    if len(set(locations)) != len(locations):
        raise InvalidParameters(f"locations must be distinct, got {locations}")
    return _error_values(code, locations, values)


def _error_values(code: GrsCode, locations, values: np.ndarray):
    """recover_error_values on validated syndrome values."""
    fld = code.field
    locations = list(locations)
    if not locations:
        return fld.zeros((values.shape[0], 0))
    sol = fld._solve(code.syndrome_matrix()[locations, :].T, values.T)[0]
    return None if sol is None else sol.T


# ---------------------------------------------------------------------------
# The two decoders
# ---------------------------------------------------------------------------

def _all_syndromes_zero(synd: SyndromeSet, field: Field) -> bool:
    if isinstance(field, PrimeField):
        return bool(np.all(synd.values == 0))
    return bool(np.all(field.is_zero(synd.values, scale=synd.scale)))


def _clean_outcome(field: Field, r: np.ndarray) -> DecodeOutcome:
    locator = ErrorLocator(coeffs=field.zeros(0))
    return DecodeOutcome.ok(np.array(r, copy=True), locator, (), field.zeros((r.shape[0], 0)))


def _finish(code: GrsCode, synd: SyndromeSet, r: np.ndarray, coeffs) -> DecodeOutcome:
    """Shared tail: validate the locator, recover values, subtract."""
    fld = code.field
    locator = ErrorLocator(coeffs=coeffs)
    valid, locations = is_t_valid(code, locator)
    if not valid:
        return DecodeOutcome.fail(FailureReason.NOT_T_VALID)
    values = _error_values(code, locations, synd.values)
    if values is None:
        return DecodeOutcome.fail(FailureReason.SYNDROME_RESIDUAL)
    corrected = np.array(r, copy=True)
    locs = list(locations)
    corrected[:, locs] = fld._sub(corrected[:, locs], values)
    return DecodeOutcome.ok(corrected, locator, locations, values)


def _validated_word(code: GrsCode, r):
    _require_invertible_points(code)
    r = code.field.array(r)
    if r.ndim != 2 or r.shape[1] != code.n or r.shape[0] < 1:
        raise InvalidParameters(f"expected an L x {code.n} received matrix")
    return r


def _attempt(code: GrsCode, synd: SyndromeSet, seqs: np.ndarray, r: np.ndarray, t: int,
             coeffs=None):
    """Try to decode with exactly t errors.

    The stacked system is built from seqs, the rows of _row_space(synd).
    Returns None when it is inconsistent, and otherwise the outcome at t.
    When coeffs is given (from recurrence synthesis) the stacked solve gives
    only the rank.
    """
    system = _stack(seqs, t, code.field)
    # One solve gives the solution and the rank; the stack is consistent
    # with synthesized coeffs, so then only the rank is needed.
    rhs = system.rhs[:, None]
    sol, rank = code.field._solve(system.matrix, rhs if coeffs is None else rhs[:, :0])
    if coeffs is None:
        if sol is None:
            return None
        coeffs = sol[::-1, 0]
    if rank < t:
        return DecodeOutcome.fail(FailureReason.RANK_DEFICIENT)
    return _finish(code, synd, r, coeffs)


def cpda_decode(code: GrsCode, r) -> DecodeOutcome:
    """Collaborative Peterson-style decoder.

    Scans t = 1, ..., t_max and accepts the first t whose stacked syndrome
    system is consistent; the solution must be unique (full column rank),
    t-valid, and able to reproduce every syndrome.  Over GF(p) a failed
    check at the accepted t is final (larger t provably cannot recover).
    Over the reals the scan continues past it - a near-degenerate error
    pattern can look consistent at too small a t within tolerance - and
    the first failure is reported if no t succeeds.  Never raises on a
    decoding impasse; all failure modes are reported in the outcome.
    """
    return _decode(code, r, "cpda")


def mssr_decode(code: GrsCode, r) -> DecodeOutcome:
    """Multi-sequence shift-register decoder.

    Synthesizes the minimal-length common recurrence of the L syndrome
    sequences, then applies the same validity, uniqueness, and value
    checks as cpda_decode (including the real-field rescan at larger t
    after a downstream rejection); the two decoders agree on every input
    (exactly over GF(p), to numerical tolerance over the reals).
    """
    return _decode(code, r, "mssr")


def _decode(code: GrsCode, r, decoder: str) -> DecodeOutcome:
    """cpda_decode or mssr_decode (decoder "cpda" or "mssr") of one word.

    Both scan t upward from a first t to t_max: cpda from the rank of the
    row basis, mssr from the length of the synthesized recurrence, whose
    coefficients stand in for the stacked solve at that first t.
    """
    r = _validated_word(code, r)
    fld = code.field
    synd = _syndromes(code, r)
    if _all_syndromes_zero(synd, fld):
        return _clean_outcome(fld, r)
    seqs = _row_space(fld, synd.values)
    first, coeffs = 1, None
    if decoder == "mssr":
        first, coeffs = synthesize_recurrence(fld, seqs, scales=synd.scale)
        if first == 0:
            return _clean_outcome(fld, r)
    elif len(seqs) < len(synd.values):
        # Sequences with a common recurrence of length t span at most t
        # dimensions, so no t below the rank of a basis can be consistent.
        first = len(seqs)
    first_failure = None
    for t in range(first, t_max(code.n, code.k, r.shape[0]) + 1):
        outcome = _attempt(code, synd, seqs, r, t, coeffs if t == first else None)
        if outcome is None:
            continue
        if outcome.success or isinstance(fld, PrimeField):
            return outcome
        first_failure = first_failure or outcome
    return first_failure or DecodeOutcome.fail(FailureReason.NO_CONSISTENT_T)


# ---------------------------------------------------------------------------
# Batch decoding of many small GF(p) words
# ---------------------------------------------------------------------------

def _decode_batch(code: GrsCode, words: np.ndarray, decoder: str) -> list:
    """Outcomes of cpda_decode or mssr_decode (decoder "cpda" or "mssr") for
    every word of a canonical (B, L, N) GF(p) stack.

    Each stage runs on the whole stack: the syndromes are one product, the
    clean words one zero test, and the RREF row bases of the syndrome
    matrices one masked Gauss-Jordan elimination (PrimeField._reduce_batch),
    each basis padded with zero rows to min(L, N - K).  cpda then runs one
    elimination per t over the stacked systems of the words still scanning;
    a word joins the scan at the rank of its basis and leaves it at its
    first consistent t, where over GF(p) the outcome is final: rank
    deficient, or on to the tail.  mssr synthesizes the recurrences of all
    words from their padded bases in one pass (_synthesize_batch), groups
    the words by length and checks each group's rank by one elimination.
    The tail, _finish_batch, runs once per t on the words accepted at that
    t.
    """
    _require_invertible_points(code)
    fld, p = code.field, code.field.p
    count, l, n = words.shape
    m, tm = n - code.k, t_max(n, code.k, l)
    synd = fld._matmul(words, code.syndrome_matrix())
    outcomes = [None] * count
    dirty = np.flatnonzero(synd.any(axis=(1, 2)))
    for i in np.setdiff1d(np.arange(count), dirty):
        outcomes[i] = _clean_outcome(fld, words[i])
    basis, rank, _ = fld._reduce_batch(synd[dirty], m)
    basis = basis[:, :min(l, m)]

    def fail(pos, reason):
        for j in pos:
            outcomes[dirty[j]] = DecodeOutcome.fail(reason)

    def finish(pos, coeffs):
        if pos.size:
            trials = dirty[pos]
            for i, out in zip(trials, _finish_batch(code, words[trials], synd[trials], coeffs)):
                outcomes[i] = out

    if decoder == "cpda":
        scanning = np.arange(len(dirty))
        for t in range(1, tm + 1):
            # No t below the rank of a basis is consistent (see cpda_decode).
            pos = scanning[rank[scanning] <= t]
            if not pos.size:
                continue
            # Every window of t + 1 syndromes is a row [A | -b] of the stack.
            red, r, done = fld._reduce_batch(sliding_window_view(basis[pos], t + 1, axis=2), t)
            scanning = np.setdiff1d(scanning, pos[done])
            fail(pos[done & (r < t)], FailureReason.RANK_DEFICIENT)
            full = done & (r == t)
            # The pivots are columns 0..t-1, and the solution is -(c_t, ..., c_1).
            finish(pos[full], (p - red[full, :t, t])[:, ::-1] % p)
        fail(scanning, FailureReason.NO_CONSISTENT_T)
        return outcomes
    ell, coeffs = _synthesize_batch(fld, basis)
    fail(np.flatnonzero(ell > tm), FailureReason.NO_CONSISTENT_T)
    for t in np.unique(ell[ell <= tm]):
        pos = np.flatnonzero(ell == t)
        r = fld._reduce_batch(sliding_window_view(basis[pos], t + 1, axis=2), t)[1]
        fail(pos[r < t], FailureReason.RANK_DEFICIENT)
        finish(pos[r == t], coeffs[pos[r == t], :t])
    return outcomes


def _dot(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b, axis=-1) mod p of canonical (broadcast) arrays, exact for
    every modulus: the products are reduced before the sum when the sum of
    int64 products could pass 2**63."""
    prod = a * b
    if prod.dtype != object and prod.shape[-1] * (field.p - 1) ** 2 >= 2**63:
        prod %= field.p
    return prod.sum(axis=-1) % field.p


def _synthesize_batch(field: PrimeField, seqs: np.ndarray):
    """_synthesize_gf for every word of a canonical (B, R, n) stack.

    Returns (ell, c): ell[b] and c[b, :ell[b]] are _synthesize_gf's length
    and coefficients for seqs[b], and the rest of the (B, n) array c is zero.
    Zero rows never change a discrepancy or the records' span, so a basis
    padded with zero rows gives the same result as its nonzero rows.

    One loop over the n positions, each step array operations over the
    words whose discrepancy is nonzero, with the same rules as
    _synthesize_gf.  Every word keeps its register c (zero past ell), and
    cap = min(R, n) record slots (unused ones zero): rec[:, i] holds the
    record's register already shifted, x^(j - m) B at position j (every
    record moves up one place per position), key[:, i] its m - ell_B, and
    disc, inv and sel are _synthesize_gf's, padded to cap.  A word whose
    discrepancy is outside the span adds a record at slot r; one inside
    combines the used records and, when its length grows, replaces the used
    record of lowest key (the first such slot on a tie).  Products go
    through _dot, so they stay exact for every modulus.

    On one word this is about three times slower than _synthesize_gf (the
    4 x 12 bases of N = 16, L = 4 words with 9 errors over GF(257): 0.77 ms
    against 0.23 ms, 2-core x86), so the single-word decoders keep that
    loop, as they keep _row_reduce beside _reduce_batch.
    """
    p = field.p
    count, rows, n = seqs.shape
    cap = min(rows, n)
    c, ell = field.zeros((count, n + 1)), np.zeros(count, dtype=np.intp)
    c[:, 0] = 1
    rec, key = field.zeros((count, cap, n + 1)), np.zeros((count, cap), dtype=np.intp)
    disc, inv = field.zeros((count, rows, cap)), field.zeros((count, cap, cap))
    sel, nrec = np.zeros((count, cap), dtype=np.intp), np.zeros(count, dtype=np.intp)
    for j in range(n):
        # ell <= j, so the terms c[k] s[j - k] for k <= j hold the whole sum.
        delta = _dot(field, seqs[:, :, j::-1], c[:, None, :j + 1])
        w = np.flatnonzero((delta != 0).any(axis=1))
        if w.size:
            d, iv, each = delta[w], inv[w], np.arange(w.size)
            x = _dot(field, iv, np.take_along_axis(d, sel[w], axis=1)[:, None, :])
            resid = (d - _dot(field, disc[w], x[:, None, :])) % p
            out, k = (resid != 0).any(axis=1), (resid != 0).argmax(axis=1)
            used = (x != 0) & ~out[:, None]
            low = np.where(used, key[w], n + 1).argmin(axis=1)
            new_ell = np.where(out, j + 1, np.maximum(ell[w], j - key[w, low]))
            slot = np.where(out, nrec[w], low)
            # Outside the span, the new record's row of inv is
            # (-disc[k] inv, 1); inside, the row of the replaced record.
            row = np.where(out[:, None],
                           (p - _dot(field, iv.transpose(0, 2, 1), disc[w, k][:, None, :])) % p,
                           iv[each, low])
            row[out, slot[out]] = 1
            pivot = np.where(out, resid[each, k], x[each, low])
            new_c = (c[w] - _dot(field, rec[w].transpose(0, 2, 1),
                                 np.where(used, x, 0)[:, None, :])) % p
            e = np.flatnonzero(new_ell > ell[w])
            we, se = w[e], slot[e]
            row = row[e] * field._inverse(pivot[e])[:, None] % p
            inv[we] = (inv[we] - x[e, :, None] * row[:, None, :]) % p
            inv[we, se] = row
            disc[we, :, se] = d[e]
            rec[we, se] = c[we]
            key[we, se] = j - ell[we]
            sel[w[out], slot[out]] = k[out]
            nrec[w] += out
            c[w], ell[w] = new_c, new_ell
        rec[:, :, 1:] = rec[:, :, :-1]
        rec[:, :, 0] = 0
    return ell, c[:, 1:]


def _batch_elements(n: int, k: int, l: int) -> int:
    """Elements per word in the largest array _decode_batch builds for
    (B, l, n) words of a GRS(n, k) code.

    That is the received word, a scan stack (min(l, n - k) basis rows of
    n - k - t windows of t + 1 syndromes, at most (n - k + 1)**2 / 4
    elements per row) or a value solve (n - k rows of t + l entries).  Both
    grow with the square of n - k, so they, not the received word, bound a
    batch of long codes with few layers.
    """
    m = n - k
    return max(l * n, min(l, m) * ((m + 1) ** 2 // 4), m * (t_max(n, k, l) + l))


def _finish_batch(code: GrsCode, words: np.ndarray, synd: np.ndarray, coeffs: np.ndarray):
    """_finish for a stack of words with locators of one length t.

    The Chien search evaluates every locator (1, c_1, ..., c_t) at every
    candidate 1/alpha_j by one product with the cached power table; a word
    is t-valid when exactly t candidates are roots, listed in column order.
    The value solves are one masked elimination of the (B, N - K, t + L)
    stack [H_t^T | S^T], and the subtraction writes every word at once.
    """
    fld = code.field
    count, t = coeffs.shape
    outcomes = [DecodeOutcome.fail(FailureReason.NOT_T_VALID)] * count
    locators = np.hstack([fld.ones((count, 1)), coeffs])
    roots = fld._matmul(locators, code.inverse_powers()[:, :t + 1].T) == 0
    valid = np.flatnonzero(roots.sum(axis=1) == t)
    locs = np.nonzero(roots[valid])[1].reshape(-1, t)
    system = np.concatenate([code.syndrome_matrix()[locs].transpose(0, 2, 1),
                             synd[valid].transpose(0, 2, 1)], axis=2)
    red, _, solved = fld._reduce_batch(system, t)
    # H_t has full column rank t (distinct nonzero points), so x = red[:t].
    values = red[:, :t, t:].transpose(0, 2, 1)
    cols = np.broadcast_to(locs[:, None, :], values.shape)
    corrected = words[valid]
    fixed = fld._sub(np.take_along_axis(corrected, cols, axis=2), values)
    np.put_along_axis(corrected, cols, fixed, axis=2)
    for k, (i, where) in enumerate(zip(valid, locs.tolist())):
        if solved[k]:
            outcomes[i] = DecodeOutcome.ok(corrected[k], ErrorLocator(coeffs=coeffs[i]),
                                           where, values[k])
        else:
            outcomes[i] = DecodeOutcome.fail(FailureReason.SYNDROME_RESIDUAL)
    return outcomes


def outcomes_equal(field: Field, a: DecodeOutcome, b: DecodeOutcome, rtol=EQ_TOL) -> bool:
    """Whether two outcomes agree (exactly over GF, within rtol over reals)."""
    if a.success != b.success:
        return False
    if not a.success:
        return a.reason == b.reason
    if a.locations != b.locations:
        return False
    if isinstance(field, PrimeField):
        return (np.array_equal(a.corrected, b.corrected)
                and np.array_equal(a.values, b.values)
                and np.array_equal(a.locator.coeffs, b.locator.coeffs))
    for x, y in ((a.corrected, b.corrected), (a.values, b.values),
                 (a.locator.coeffs, b.locator.coeffs)):
        if x.shape != y.shape:
            return False
        scale = max(1.0, float(np.max(np.abs(x), initial=0.0)),
                    float(np.max(np.abs(y), initial=0.0)))
        if not np.all(np.abs(x - y) <= rtol * scale):
            return False
    return True
