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
from S's), but RealField's rank cutoff scales with max(shape) of the
stacked system, which compression shrinks.

The Monte Carlo harness decodes words only in batches, over either field,
through _decode_batch: it gives every word of a (B, L, N) stack the outcome
that cpda_decode or mssr_decode would, with each stage one array operation
over the whole stack.  The stacked systems of each t and the value solves
go through the field's _solve_batch (one masked elimination over GF(p), one
stacked SVD over the reals), and the locators through _locate_batch, the
rule is_t_valid applies to one locator.  Over GF(p) the scan runs on row
bases for every L, and mssr starts it after one Berlekamp-Massey pass
(below) over all the words, one loop over the positions.  Real outcomes
then agree with the single-word decoders' to within rounding, not bit for
bit.  The public decoders take one word, so a deep
word keeps the blocked scan above.

Two decoders are provided and produce identical outcomes.  Both scan t
upward and accept the first t whose stacked system is consistent, where the
solve that checks uniqueness (full column rank) also gives the locator.
cpda_decode starts at most at the rank of S, below which no system is
consistent, and mssr_decode at the length of the minimal common recurrence
of the L syndrome sequences, the least consistent t.  Both certify the
result through the same location and value-recovery checks, so a Success
is always the closest (maximum-likelihood) explanation of R.

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
reals, where Berlekamp-Massey is numerically unstable, the least length is
found by cpda_decode's own scan instead: the first t whose stacked system
is consistent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParameters
from .field import EQ_TOL, ROOT_TOL, Field, PrimeField, _is_int
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
    """Lambda(z) = 1 + coeffs[0] z + ... + coeffs[t-1] z^t.

    coeffs is a vector (a scalar becomes one of length 1); any other shape
    raises InvalidParameters.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.array(self.coeffs, copy=True))
        if arr.ndim != 1:
            raise InvalidParameters(f"locator coefficients must be a vector, got shape {arr.shape}")
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


def _validated_word(code: GrsCode, r) -> np.ndarray:
    """r as a canonical L x N word, L >= 1: the one check of a word's shape."""
    r = code.field.array(r)
    if r.ndim != 2 or r.shape[1] != code.n or r.shape[0] < 1:
        raise InvalidParameters(f"expected an L x {code.n} matrix, L >= 1, got shape {r.shape}")
    return r


def layer_syndromes(code: GrsCode, r) -> SyndromeSet:
    """Syndromes of every layer of an L x N word (L >= 1), with magnitude references."""
    return _syndromes(code, _validated_word(code, r))


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
    """Stacked syndrome system of an L x N word (L >= 1) for trial error count t.

    Per layer, row i pairs the window (S_i, ..., S_{i+t-1}) with the
    right-hand side -S_{t+i}; the unknown vector is (c_t, ..., c_1).
    """
    if not _is_int(t) or t < 1:
        raise InvalidParameters(f"t must be a positive integer, got {t!r}")
    r = _validated_word(code, r)
    tm = t_max(code.n, code.k, r.shape[0])
    if t > tm:
        raise InvalidParameters(f"t={t} exceeds the decoding radius t_max={tm}")
    return _stack(_syndromes(code, r).values, int(t), code.field)


# ---------------------------------------------------------------------------
# Minimal common recurrence synthesis
# ---------------------------------------------------------------------------

def _synthesize_gf(field: PrimeField, seqs: np.ndarray):
    """The module docstring's Berlekamp-Massey pass over canonical GF(p) rows.

    c holds the register C (c[0] = 1) of length ell, and record i is
    (B, ell_B, m) with its D in column i of disc.  These r columns stay
    linearly independent (at most min(L, n) of them); on the rows sel they
    form an invertible r x r matrix whose inverse is inv[:r, :r].  So writing
    delta in the D is one small product, checked on every row by one
    residual product, and an exchange updates inv by one pivot.
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


def synthesize_recurrence(field: Field, seqs):
    """Minimal-length common linear recurrence over the rows of seqs.

    Returns (t, coeffs) with coeffs = (c_1, ..., c_t) such that every row s
    obeys s[i] + sum_k c_k s[i-k] = 0 for t <= i < len(s); t is the least
    length for which any such recurrence exists (c_t may be zero), and the
    coefficients are the unique ones whenever the t-stack has full column
    rank.  Over GF(p) this is the module docstring's Berlekamp-Massey pass.
    Over the reals t is the least length whose whole stacked system passes
    RealField._solve, the solve cpda_decode runs at each t, so the two
    decoders agree exactly; n (with zero coefficients) when no t < n passes,
    and 0 for sequences that are zero within EQ_TOL.
    """
    seqs = field.array(seqs)
    if seqs.ndim != 2:
        raise InvalidParameters("expected an L x n matrix of sequences")
    if isinstance(field, PrimeField):
        return _synthesize_gf(field, seqs)
    n = seqs.shape[1]
    if np.all(field.is_zero(seqs)):
        return 0, field.zeros(0)
    found = _least_consistent(field, seqs, 1, n - 1)
    return (n, field.zeros(n)) if found is None else found[:2]


def _least_consistent(field: Field, seqs: np.ndarray, first: int, last: int):
    """The least t in [first, last] whose stacked system of the rows seqs is
    consistent, as (t, coeffs, rank) from that system's one solve: coeffs =
    (c_1, ..., c_t) and rank the system's rank.  None when no t there is.
    """
    for t in range(first, last + 1):
        system = _stack(seqs, t, field)
        sol, rank = field._solve(system.matrix, system.rhs[:, None])
        if sol is not None:
            return t, sol[::-1, 0], rank
    return None


# ---------------------------------------------------------------------------
# Locator validation and error-value recovery
# ---------------------------------------------------------------------------

def is_t_valid(code: GrsCode, locator: ErrorLocator):
    """Check that Lambda has exactly t distinct roots among the 1/alpha_j.

    Returns (True, locations), the locations sorted, or (False, ()).  This
    is _locate_batch on a stack of one, so the batch decoder locates by the
    same rule: over GF(p) every candidate is evaluated exactly; over the
    reals the t polynomial roots are matched to their nearest candidates,
    each match accepted only within a window of max(ROOT_TOL * |candidate|,
    0.45 * nearest-candidate gap) so that roots perturbed by solver noise
    are recognized while off-grid or coalescing roots are rejected.  No
    locator of degree t > N has t distinct roots among the N candidates.
    Real coefficients must be finite (ValueError otherwise).
    """
    coeffs, t = code.field.array(locator.coeffs), locator.t
    if not 0 < t <= code.n:
        return t == 0, ()
    valid, locs = _locate_batch(code, coeffs[None])
    return (True, tuple(int(j) for j in locs[0])) if valid.size else (False, ())


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
    if not all(_is_int(j) and 0 <= j < code.n for j in locations):
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

def _all_syndromes_zero(field: Field, synd: SyndromeSet):
    """Whether each word's syndromes are all zero (within the real zero
    test's scale): one bool per word of a (..., L, N - K) stack."""
    if isinstance(field, PrimeField):
        return ~synd.values.any(axis=(-2, -1))
    return field.is_zero(synd.values, scale=synd.scale).all(axis=(-2, -1))


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


def cpda_decode(code: GrsCode, r) -> DecodeOutcome:
    """Collaborative Peterson-style decoder.

    Scans t up to t_max, from the rank of the syndromes' row basis where
    one is computed, and accepts the first t whose stacked syndrome system
    is consistent; the solution must be unique (full column rank), t-valid,
    and able to reproduce every syndrome.  Over GF(p) a failed check at the
    accepted t is final (larger t provably cannot recover).
    Over the reals the scan continues past it - a near-degenerate error
    pattern can look consistent at too small a t within tolerance - and
    the first failure is reported if no t succeeds.  Never raises on a
    decoding impasse; all failure modes are reported in the outcome.  The
    outcome is identical to mssr_decode's on every input, over either field.
    """
    return _decode(code, r, "cpda")


def mssr_decode(code: GrsCode, r) -> DecodeOutcome:
    """Multi-sequence shift-register decoder.

    Synthesizes the minimal-length common recurrence of the L syndrome
    sequences and starts cpda_decode's scan at that length, the least
    consistent t, whose uniqueness check also gives the locator.  The rest,
    including the real-field rescan at larger t, is cpda_decode's, so the
    two decoders give identical outcomes on every input, over either field.
    """
    return _decode(code, r, "mssr")


def _decode(code: GrsCode, r, decoder: str) -> DecodeOutcome:
    """cpda_decode or mssr_decode (decoder "cpda" or "mssr") of one word.

    Both scan t upward from a first t to t_max and differ only in that
    first t: cpda starts at the rank of the row basis, mssr at the length
    of the synthesized recurrence.
    """
    r = _validated_word(code, r)
    fld = code.field
    synd = _syndromes(code, r)
    if _all_syndromes_zero(fld, synd):
        return _clean_outcome(fld, r)
    seqs = _row_space(fld, synd.values)
    if decoder == "mssr":
        first = synthesize_recurrence(fld, seqs)[0]
    else:
        # Sequences with a common recurrence of length t span at most t
        # dimensions, so no t below the rank of a basis can be consistent.
        first = len(seqs) if len(seqs) < len(synd.values) else 1
    first_failure, tm = None, t_max(code.n, code.k, r.shape[0])
    # At each consistent t one solve gives the rank and, when that is full,
    # the unique locator.
    while (found := _least_consistent(fld, seqs, first, tm)) is not None:
        t, coeffs, rank = found
        if rank < t:
            outcome = DecodeOutcome.fail(FailureReason.RANK_DEFICIENT)
        else:
            outcome = _finish(code, synd, r, coeffs)
        if outcome.success or isinstance(fld, PrimeField):
            return outcome
        first_failure = first_failure or outcome
        first = t + 1
    return first_failure or DecodeOutcome.fail(FailureReason.NO_CONSISTENT_T)


# ---------------------------------------------------------------------------
# Batch decoding of many small words
# ---------------------------------------------------------------------------

def _decode_batch(code: GrsCode, words: np.ndarray, decoder: str) -> list:
    """Outcomes of cpda_decode or mssr_decode (decoder "cpda" or "mssr") for
    every word of a canonical (B, L, N) stack, over either field.

    Each stage runs on the whole stack: the syndromes are one product and
    the clean words one zero test.  Then one solve per t runs over the
    stacked systems of the words still scanning (_scan_batch), and the
    tail, _finish_batch, once per t on the words whose system there is
    consistent with full rank.

    Over GF(p) the rows scanned are the RREF row bases of the syndrome
    matrices, found by one masked Gauss-Jordan elimination
    (PrimeField._reduce_batch) and padded with zero rows to min(L, N - K).
    A word joins the scan at the rank of its basis for cpda, and for mssr
    at its recurrence length, synthesized for all words in one pass
    (_synthesize_batch).  It leaves at its first consistent t, where the
    outcome is final.  Over the reals every word scans all L layers from
    t = 1 under either name, since real mssr's synthesis is cpda's scan,
    and keeps _decode's policy: a failed check at a consistent t records
    the word's first failure and the word scans on; it leaves on success.
    """
    fld = code.field
    count, l, n = words.shape
    exact = isinstance(fld, PrimeField)
    tm = t_max(n, code.k, l)
    synd = _syndromes(code, words)
    outcomes = [None] * count
    dirty = np.flatnonzero(~_all_syndromes_zero(fld, synd))
    for i in np.setdiff1d(np.arange(count), dirty):
        outcomes[i] = _clean_outcome(fld, words[i])
    seqs = synd.values[dirty]
    if exact:
        m = n - code.k
        basis, rank, _ = fld._reduce_batch(seqs, m)
        seqs = basis[:, :min(l, m)]
        # No t below the rank of a basis is consistent (see _decode), nor
        # any below the least common-recurrence length.
        start = rank if decoder == "cpda" else _synthesize_batch(fld, seqs)[0]
    else:
        start = np.ones(len(dirty), dtype=np.intp)

    def record(j, outcome):
        # A success replaces a recorded failure; a failure keeps the first.
        if outcome.success or outcomes[dirty[j]] is None:
            outcomes[dirty[j]] = outcome

    scanning = np.ones(len(dirty), dtype=bool)
    for t in range(1, tm + 1):
        pos = np.flatnonzero(scanning & (start <= t))
        if not pos.size:
            continue
        coeffs, rank, consistent = _scan_batch(fld, seqs[pos], t)
        if exact:
            scanning[pos[consistent]] = False
        for j in pos[consistent & (rank < t)]:
            record(j, DecodeOutcome.fail(FailureReason.RANK_DEFICIENT))
        full = consistent & (rank == t)
        if full.any():
            trials = dirty[pos[full]]
            finished = _finish_batch(code, words[trials], synd.values[trials], coeffs[full])
            for j, out in zip(pos[full], finished):
                record(j, out)
            scanning[pos[full][[out.success for out in finished]]] = False
    for j in np.flatnonzero(scanning):
        record(j, DecodeOutcome.fail(FailureReason.NO_CONSISTENT_T))
    return outcomes


def _scan_batch(field: Field, seqs: np.ndarray, t: int):
    """The stacked systems at t of a (B, R, n) stack of syndrome rows, solved.

    Every window of t + 1 syndromes is a row [A | b] of a word's stack, and
    one _solve_batch over the (B, R, n - t, t + 1) window stack solves
    A x = b, so x = -(c_t, ..., c_1).  Returns (coeffs, rank, consistent):
    coeffs[b] = (c_1, ..., c_t) is word b's solution, meaningful where
    consistent[b] and rank[b] == t.
    """
    x, rank, consistent = field._solve_batch(sliding_window_view(seqs, t + 1, axis=2), t)
    return field._sub(0, x[:, ::-1, 0]), rank, consistent


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
    words whose discrepancy is nonzero.  Every word keeps its register c
    (zero past ell), and cap = min(R, n) record slots (unused ones zero):
    rec[:, i] holds the record's register already shifted, x^(j - m) B at
    position j (every record moves up one place per position), key[:, i]
    its m - ell_B, and disc, inv and sel are _synthesize_gf's, padded to
    cap.  A new record takes slot nrec; an exchange replaces the used record
    of lowest key, the first such slot on a tie.  Products go through _dot,
    so they stay exact for every modulus.

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


def _batch_elements(field: Field, n: int, k: int, l: int) -> int:
    """Elements per word in the largest array _decode_batch builds for
    (B, l, n) words of a GRS(n, k) code over field.

    That is the received word, a scan stack (rows of n - k - t windows of
    t + 1 syndromes, at most (n - k + 1)**2 / 4 elements per row: the
    min(l, n - k) basis rows over GF(p), all l layers over the reals) or a
    value solve (n - k rows of t + l entries).  Both grow with the square
    of n - k, so they, not the received word, bound a batch of long codes
    with few layers.
    """
    m = n - k
    rows = min(l, m) if isinstance(field, PrimeField) else l
    return max(l * n, rows * ((m + 1) ** 2 // 4), m * (t_max(n, k, l) + l))


def _locate_batch(code: GrsCode, coeffs: np.ndarray):
    """is_t_valid for a (B, t) stack of locator coefficients, 1 <= t <= N.

    Returns (valid, locs): the indices of the t-valid locators, and their
    locations as a (len(valid), t) array in column order.  Over GF(p) a
    Chien search evaluates every locator (1, c_1, ..., c_t) at every
    candidate 1/alpha_j by one product with the cached power table; a
    locator is t-valid when exactly t candidates are roots.  Over the reals
    the roots are the eigenvalues of a stack of companion matrices, built
    as np.roots builds them, and each is matched to its nearest candidate
    within is_t_valid's window.
    """
    fld = code.field
    count, t = coeffs.shape
    if isinstance(fld, PrimeField):
        locators = np.hstack([fld.ones((count, 1)), coeffs])
        roots = fld._matmul(locators, code.inverse_powers()[:, :t + 1].T) == 0
        valid = np.flatnonzero(roots.sum(axis=1) == t)
        return valid, np.nonzero(roots[valid])[1].reshape(-1, t)
    lead_scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=1))
    valid = np.flatnonzero(~fld.is_zero(coeffs[:, -1], scale=lead_scale))
    # np.roots' companion matrix of c_t z^t + ... + c_1 z + 1: ones below
    # the diagonal, and -(c_{t-1}, ..., c_1, 1) / c_t in the first row.
    lead = coeffs[valid, -1:]
    companion = np.repeat(np.eye(t, k=-1)[None], len(valid), axis=0)
    companion[:, 0, :-1] = -coeffs[valid, -2::-1] / lead
    companion[:, 0, -1] = -1.0 / lead[:, 0]
    cands = code.inverse_powers()[:, 1]
    window = np.maximum(ROOT_TOL * np.maximum(np.abs(cands), 1.0), 0.45 * code.candidate_gaps())
    dists = np.abs(np.linalg.eigvals(companion)[:, :, None] - cands)
    nearest = dists.argmin(axis=2)
    locs = np.sort(nearest, axis=1)
    ok = ((dists.min(axis=2) <= window[nearest]).all(axis=1)
          & (locs[:, 1:] != locs[:, :-1]).all(axis=1))
    return valid[ok], locs[ok]


def _finish_batch(code: GrsCode, words: np.ndarray, synd: np.ndarray, coeffs: np.ndarray):
    """_finish for a stack of words with locators of one length t.

    The locators are checked by _locate_batch.  The value solves are one
    _solve_batch of the (B, N - K, t + L) stack [H_t^T | S^T], the L
    syndrome columns as right-hand sides; H_t has full column rank t
    (distinct nonzero points), so x is the solution wherever consistent.
    The subtraction writes every word at once.
    """
    fld = code.field
    count, t = coeffs.shape
    outcomes = [DecodeOutcome.fail(FailureReason.NOT_T_VALID)] * count
    valid, locs = _locate_batch(code, coeffs)
    aug = np.concatenate([code.syndrome_matrix()[locs], synd[valid]], axis=1).transpose(0, 2, 1)
    x, _, solved = fld._solve_batch(aug, t)
    values = x.transpose(0, 2, 1)
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
    """Whether two outcomes agree: the same failure reason, or the same
    locations with corrected words, values and locator coefficients that
    field._agree accepts (exactly over GF(p), within rtol of the larger
    magnitude over the reals)."""
    if a.success != b.success:
        return False
    if not a.success:
        return a.reason == b.reason
    return a.locations == b.locations and all(
        field._agree(x, y, rtol) for x, y in ((a.corrected, b.corrected), (a.values, b.values),
                                              (a.locator.coeffs, b.locator.coeffs)))
