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
layers than positions (L > N - K), both decoders therefore first reduce S to
its RREF row basis (one blocked PrimeField._reduce_batch of the stack of
syndromes, whose cost grows linearly in L), N - K rows with the row of pivot
j at row j and a zero row at each position that holds no pivot, and stack,
eliminate and synthesize on that basis; only the error-value solve keeps all
L layers.  Real words keep all L layers.
With S = QR the least-squares problem would not change (the Gram matrix,
solution and residual from R's rows equal those from S's), but RealField's
rank cutoff scales with max(shape) of the stacked system, which compression
shrinks.

Over GF(p) cpda starts its scan by one rule, for every L and any number of
words: the interleaved form of the Peterson-Gorenstein-Zierler rule, where
the rank of the syndrome matrix gives the error count (Peterson, IRE T-IT
1960; Gorenstein and Zierler, J. SIAM 1961).  If the stacked system at t is
consistent, every syndrome row obeys one recurrence of length t, so all its
windows of w > t consecutive syndromes lie in one t-dimensional space.  The
rank of the windows of width t_max + 1 of the rows cpda scans (one
_reduce_batch, without right-hand sides, over the batch) is therefore at
most the least consistent t, and cpda starts there.  Only inconsistent t are
skipped, so no outcome depends on the start.  The windows of the row basis
span the windows of all L rows, so the basis can be windowed.  Over the
reals the rule is not exact (a rank there is a tolerance decision), so real
words start at t = 1.

There is one decode path, _decode_batch over a (B, L, N) stack of words:
the public decoders run it on a stack of one, and the Monte Carlo harness on
whole batches, so a word's outcome is the same bit for bit.  It returns its
outcomes as arrays (_Decoded): a status code per word, the stack of
corrected words, and per t the locations, error values and locators of the
words that succeeded there.  A DecodeOutcome is built only on request, for
the public decoders and for the harness's cpda/mssr comparison; Monte Carlo
counts read the arrays.  Its syndromes are one product and its clean words
one zero test.  Every other word starts its scan at a t below which none of
its stacked systems is consistent, by
one rule per field and decoder, whatever the size of its stack: over GF(p),
cpda at the window rank above and mssr at the synthesized recurrence length,
the least consistent t; over the reals both at t = 1, since real synthesis
is cpda's scan, which reaches the same least t.  Over GF(p) it scans the row
basis when L > N - K.  One t-scan, _scan_words, then solves per t the
stacked systems of the words still scanning (_scan_batch), and the words of
full rank share one tail, _finish_batch, for any number of words: one root
search (_locate_batch, the rule is_t_valid applies to one locator, and for a
lone word is_t_valid itself), one stacked value solve and one subtraction.
So every outcome is built by one code path, and a word's outcome is the same
alone or in a batch by construction.  Where a stage has two kernels, the
size of the stack picks the faster: mssr's length comes, for one word, from
synthesize_recurrence (_synthesize_gf), and for more from one
Berlekamp-Massey pass (below) over all of them (_synthesize_batch).

Two decoders are provided and produce identical outcomes.  Both scan t
upward to t_max.  At each t whose stacked system is consistent, the solve
that checks uniqueness (full column rank) also gives the locator, and the
location and value-recovery checks certify the word.  The first t that
passes ends the scan, so a Success is always the closest
(maximum-likelihood) explanation of R; otherwise the first failure is
reported.  Over the reals a near-degenerate error pattern can look
consistent within tolerance at too small a t.  Over GF(p) the first failure
is final: with Lambda_0 the locator at the least consistent t_0, every
larger t is consistent (Lambda_0 padded with zeros) and rank-deficient
(Lambda_0 (1 + a z) solves it too).  There cpda_decode starts at most at
the least consistent t, at the rank of the widest windows of the syndromes,
and mssr_decode at the length of the minimal common recurrence of the L
syndrome sequences, the least consistent t itself.

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
is consistent.  So the decoders synthesize only over GF(p).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters
from .field import EQ_TOL, ROOT_TOL, Field, PrimeField, _check_int, _is_int
from .grs import GrsCode, _code_size

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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SyndromeSet:
    """Per-layer syndromes; scale carries magnitude references over the reals."""

    values: np.ndarray
    scale: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class StackedSystem:
    """The L stacked Hankel blocks for a trial error count t."""

    t: int
    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True, eq=False)
class DecodeOutcome:
    """Result of a decode attempt.

    On success, corrected is the repaired L x N word, locations the sorted
    erroneous columns, values the L x t error values subtracted there, and
    locator the certified error-locator polynomial.  On failure only reason
    is set.  A Success certifies that the corrected word has all-zero
    syndromes (to within the residual tolerance over the reals) and is the
    closest interleaved codeword to the input.  Outcomes compare by
    identity; outcomes_equal compares them by value.
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
    """Collaborative decoding radius floor(l * (n - k) / (l + 1)).

    The one check of (n, k, l): integers with 1 <= k < n and l >= 1, or
    InvalidParameters.
    """
    n, k = _code_size(n, k)
    l = _check_int("l", l, 1)
    return (l * (n - k)) // (l + 1)


def _check_t(t, n: int, k: int, l: int, least: int = 0) -> int:
    """t as a Python int, or InvalidParameters unless it is an integer in
    [least, t_max(n, k, l)]: the one check of t against the radius."""
    tm = t_max(n, k, l)
    if not _is_int(t) or not least <= t <= tm:
        raise InvalidParameters(f"t={t!r} is not an integer in [{least}, t_max={tm}] at L={l}")
    return int(t)


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


def _windows(seqs: np.ndarray, t: int) -> np.ndarray:
    """The (..., n - t, t + 1) windows of t + 1 consecutive syndromes along
    the last axis of seqs: window i is the row [S_i, ..., S_{i+t-1} | S_{i+t}]
    of a stacked system at t, before the right-hand side is negated.

    One gather makes the contiguous array that _solve_batch needs, without
    sliding_window_view's fixed cost (13 us, a fifth of a one-word scan
    step).
    """
    n = seqs.shape[-1]
    return seqs[..., np.arange(n - t)[:, None] + np.arange(t + 1)]


def build_stacked(code: GrsCode, r, t: int) -> StackedSystem:
    """Stacked syndrome system of an L x N word (L >= 1) for trial error count t.

    Per layer, row i pairs the window (S_i, ..., S_{i+t-1}) with the
    right-hand side -S_{t+i}; the unknown vector is (c_t, ..., c_1).
    """
    r = _validated_word(code, r)
    t = _check_t(t, code.n, code.k, r.shape[0], least=1)
    win = _windows(_syndromes(code, r).values, t)
    return StackedSystem(t=t, matrix=win[..., :t].reshape(-1, t),
                         rhs=code.field._sub(0, win[..., t]).reshape(-1))


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
    _scan_batch, the first consistent t of the decoders' scan from t = 1
    (so they need not call this); n (with zero coefficients) when no t < n
    passes, and 0 for sequences that are zero within EQ_TOL.
    """
    seqs = field.array(seqs)
    if seqs.ndim != 2:
        raise InvalidParameters("expected an L x n matrix of sequences")
    if isinstance(field, PrimeField):
        return _synthesize_gf(field, seqs)
    n = seqs.shape[1]
    if np.all(field.is_zero(seqs)):
        return 0, field.zeros(0)
    for t in range(1, n):
        coeffs, _, consistent = _scan_batch(field, seqs[None], t)
        if consistent[0]:
            return t, coeffs[0]
    return n, field.zeros(n)


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
    [0, N) and the syndromes form an L x (N - K) matrix.  The decoders do
    not call it: their tail, _finish_batch, solves the same systems [H_t^T |
    S^T] for all its words in one _solve_batch, with the same result.
    """
    fld = code.field
    values = fld.array(synd.values)
    if values.ndim != 2 or values.shape[1] != code.n - code.k:
        raise InvalidParameters(
            f"expected an L x {code.n - code.k} syndrome matrix, got shape {values.shape}")
    locations = list(locations)
    if not all(_is_int(j) and 0 <= j < code.n for j in locations):
        raise InvalidParameters(f"locations must be integers in [0, {code.n}), got {locations}")
    if len(set(locations)) != len(locations):
        raise InvalidParameters(f"locations must be distinct, got {locations}")
    if not locations:
        return fld.zeros((values.shape[0], 0))
    sol = fld._solve(code.syndrome_matrix()[locations, :].T, values.T)[0]
    return None if sol is None else sol.T


# ---------------------------------------------------------------------------
# The two decoders
# ---------------------------------------------------------------------------

def cpda_decode(code: GrsCode, r) -> DecodeOutcome:
    """Collaborative Peterson-style decoder.

    Scans t up to t_max, over GF(p) from the rank of the windows of t_max +
    1 consecutive syndromes of every layer (no t below it is consistent) and
    over the reals from 1.  At each t whose stacked syndrome system is
    consistent the solution must be unique (full column rank), t-valid, and
    able to reproduce every syndrome; the first t where it is ends the scan.
    Otherwise the scan goes on, and the first failure is reported if no t
    succeeds (see the module docstring).  Never raises on a decoding
    impasse; all failure modes are reported in the outcome.  The outcome is
    identical to mssr_decode's on every input, over either field.
    """
    return _decode_batch(code, _validated_word(code, r)[None], "cpda").outcome(0)


def mssr_decode(code: GrsCode, r) -> DecodeOutcome:
    """Multi-sequence shift-register decoder.

    Over GF(p) it starts cpda_decode's scan at the length of the minimal
    common recurrence of the L syndrome sequences, the least consistent t;
    over the reals, where synthesis is cpda_decode's scan, at t = 1.  The
    rest, the locator included, is cpda_decode's, so the two decoders give
    identical outcomes on every input, over either field.
    """
    return _decode_batch(code, _validated_word(code, r)[None], "mssr").outcome(0)


# A word's status in a _Decoded: 0 for success, otherwise 1 + the index of
# its first failure in _REASONS, FailureReason's order.
_REASONS = tuple(FailureReason)
_NO_CONSISTENT_T, _RANK_DEFICIENT, _NOT_T_VALID, _SYNDROME_RESIDUAL = range(1, len(_REASONS) + 1)


@dataclass(frozen=True, eq=False)
class _Decoded:
    """The outcomes of _decode_batch for a (B, L, N) stack, as arrays.

    status is the (B,) int8 code of each word (see _REASONS), and corrected
    the fresh (B, L, N) stack of corrected words, the received word where
    the status is not 0.  groups maps each t >= 1 at which words succeeded
    to (words, locations, values, coeffs): their sorted indices, (b, t)
    locations in column order, (b, t, L) error values and (b, t) locator
    coefficients; a success in no group is a clean word.  outcome(i) builds
    word i's DecodeOutcome on request, so a caller that needs only counts
    builds no object per word.
    """

    status: np.ndarray
    corrected: np.ndarray
    groups: dict

    def outcome(self, i) -> DecodeOutcome:
        if self.status[i]:
            return DecodeOutcome.fail(_REASONS[self.status[i] - 1])
        for words, locs, values, coeffs in self.groups.values():
            row = np.searchsorted(words, i)
            if row < len(words) and words[row] == i:
                return DecodeOutcome.ok(self.corrected[i], ErrorLocator(coeffs[row]), locs[row],
                                        values[row].T)
        dtype = self.corrected.dtype
        return DecodeOutcome.ok(self.corrected[i], ErrorLocator(np.zeros(0, dtype)), (),
                                np.zeros((self.corrected.shape[1], 0), dtype))


def _decode_batch(code: GrsCode, words: np.ndarray, decoder: str) -> _Decoded:
    """The outcomes of cpda_decode or mssr_decode (decoder "cpda" or "mssr")
    for every word of a canonical (B, L, N) stack, over either field, as a
    _Decoded: the one decode path of the module docstring.  It builds no
    DecodeOutcome; the public decoders build their word's from outcome(0).

    The syndromes are one product and the clean words one zero test.  The
    other words, the whole stack itself when no word is clean, go through
    _scan_words from their starts, on their row bases over GF(p) when
    L > N - K.  They start by one table, whatever the stack: over
    GF(p), cpda at the rank of the width-(t_max + 1) windows of those rows
    (one elimination of the stack of windows) and mssr at the synthesized
    length, from synthesize_recurrence for one word (the tracer's
    decoder.synthesize span) and _synthesize_batch for more; over the reals,
    both at t = 1, since real synthesis is cpda's scan.  The corrected
    stack is one copy of the words, into which each success's error values
    are subtracted, one scatter per t.
    """
    fld = code.field
    count, l, n = words.shape
    tm = t_max(n, code.k, l)  # refuses L = 0 even when every word is clean
    synd = _syndromes(code, words)
    values, exact = synd.values, isinstance(fld, PrimeField)
    if exact:
        clean = ~values.any(axis=(1, 2))
    else:
        clean = fld.is_zero(values, scale=synd.scale).all(axis=(1, 2))
    dirty = np.flatnonzero(~clean)
    if dirty.size < count:
        values = values[dirty]
    rows = fld._reduce_batch(values, n - code.k)[0] if exact and l > n - code.k else values
    if not exact:
        start = np.ones(len(dirty), dtype=np.intp)
    elif decoder != "mssr":  # no t below the rank of the widest windows is consistent
        start = fld._reduce_batch(_windows(rows, tm), tm + 1)[1]
    elif len(dirty) == 1:
        start = np.array([synthesize_recurrence(fld, rows[0])[0]])
    else:
        start = _synthesize_batch(fld, rows)[0]
    status = np.zeros(count, dtype=np.int8)
    status[dirty], found = _scan_words(code, values, rows, start, tm)
    corrected = words.copy()
    for t, (done, locs, x, coeffs) in found.items():
        done = dirty[done]
        corrected[done[:, None], :, locs] = fld._sub(corrected[done[:, None], :, locs], x)
        found[t] = (done, locs, x, coeffs)
    return _Decoded(status, corrected, found)


def _scan_words(code: GrsCode, synd: np.ndarray, rows: np.ndarray, start: np.ndarray,
                tm: int):
    """The t-scan of both decoders, for a stack of B words whose syndromes
    synd are not all zero: (status, found), their (B,) status codes and, for
    each t at which words succeeded, (words, locations, values, coeffs) as in
    _Decoded.groups, the words indexed into this stack.

    Word b scans the stacked systems of its syndrome rows rows[b] from t =
    start[b] up to tm = t_max, one _scan_batch per t over the words still
    scanning.  At a consistent t a rank below t records RANK_DEFICIENT, and
    the words of full rank go through _finish_batch together.  A failure
    is recorded only as a word's first, and the word scans on; it leaves on
    success.  A word that never reaches a consistent t gets NO_CONSISTENT_T.
    """
    fld = code.field
    status, found = np.zeros(len(synd), dtype=np.int8), {}
    scanning = np.ones(len(synd), dtype=bool)
    for t in range(int(start.min(initial=tm + 1)), tm + 1):
        pos = np.flatnonzero(scanning & (start <= t))
        if not pos.size:
            continue
        coeffs, rank, consistent = _scan_batch(fld, rows[pos], t)
        full = consistent & (rank == t)
        failed = np.where(consistent ^ full, _RANK_DEFICIENT, 0)
        if full.any():
            failed[full], locs, x = _finish_batch(code, synd, pos[full], coeffs[full])
            ok = full & (failed == 0)
            found[t] = (pos[ok], locs, x, coeffs[ok])
            scanning[pos[ok]] = False
        if failed.any():
            status[pos] = np.where(status[pos] == 0, failed, status[pos])
    status[scanning & (status == 0)] = _NO_CONSISTENT_T
    status[~scanning] = 0
    return status, found


# ---------------------------------------------------------------------------
# Batch kernels
# ---------------------------------------------------------------------------

def _scan_batch(field: Field, seqs: np.ndarray, t: int):
    """The stacked systems at t of a (B, R, n) stack of syndrome rows, solved.

    Every window of t + 1 syndromes is a row [A | b] of a word's stack, and
    one _solve_batch over the (B, R, n - t, t + 1) window stack solves
    A x = b, so x = -(c_t, ..., c_1).  Returns (coeffs, rank, consistent):
    coeffs[b] = (c_1, ..., c_t) is word b's solution, meaningful where
    consistent[b] and rank[b] == t.
    """
    x, rank, consistent = field._solve_batch(_windows(seqs, t), t)
    return field._sub(0, x[:, ::-1, 0]), rank, consistent


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
    of lowest key, the first such slot on a tie.  Products are stacked
    _matmul calls, so they stay exact for every modulus.

    On one word this is about three times slower than _synthesize_gf (2-core
    x86, GF(257): 1.0 against 0.31 ms on the 4 x 12 syndromes of words with
    N = 16, L = 4 and 9 errors, 2.0 against 0.6 ms on matmul-deep's 24 x 24
    row basis), so a stack of one keeps that loop (synthesize_recurrence).
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
        delta = field._matmul(seqs[:, :, j::-1], c[:, :j + 1, None])[:, :, 0]
        w = np.flatnonzero((delta != 0).any(axis=1))
        if w.size:
            d, iv, each = delta[w], inv[w], np.arange(w.size)
            x = field._matmul(iv, np.take_along_axis(d, sel[w], axis=1)[:, :, None])[:, :, 0]
            resid = (d - field._matmul(disc[w], x[:, :, None])[:, :, 0]) % p
            out, k = (resid != 0).any(axis=1), (resid != 0).argmax(axis=1)
            used = (x != 0) & ~out[:, None]
            low = np.where(used, key[w], n + 1).argmin(axis=1)
            new_ell = np.where(out, j + 1, np.maximum(ell[w], j - key[w, low]))
            slot = np.where(out, nrec[w], low)
            # Outside the span, the new record's row of inv is
            # (-disc[k] inv, 1); inside, the row of the replaced record.
            row = np.where(out[:, None],
                           (p - field._matmul(disc[w, k][:, None, :], iv)[:, 0]) % p,
                           iv[each, low])
            row[out, slot[out]] = 1
            pivot = np.where(out, resid[each, k], x[each, low])
            new_c = (c[w] - field._matmul(np.where(used, x, 0)[:, None, :], rec[w])[:, 0]) % p
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
    (B, l, n) words of a GRS(n, k) code over field, under either decoder.

    That is the received word, a scan stack (rows of n - k - t windows of
    t + 1 syndromes, at most (n - k + 1)**2 / 4 elements per row: the
    min(l, n - k) basis rows over GF(p), all l layers over the reals; cpda's
    start stack is the one at t_max) or a value solve (n - k rows of t + l
    entries, which also bounds the start's (t_max + 1)**2 basis).  The n - k
    by n - k row basis never sets the maximum: it is built only when
    l > n - k, and then l * n > (n - k)**2.  The scan stacks and value
    solves grow with the square of n - k, so they, not the received word,
    bound a batch of long codes with few layers.
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


def _finish_batch(code: GrsCode, synd: np.ndarray, which: np.ndarray, coeffs: np.ndarray):
    """The one tail of both decoders, for the words `which` of a stack with
    syndromes synd and their locators coeffs, all of one length t: locate
    and solve the error values.  Returns (status, locs, x): the status code
    of each word (0, NOT_T_VALID or SYNDROME_RESIDUAL), and the (b, t)
    locations and (b, t, L) error values of the b words of status 0, in
    order, which _decode_batch subtracts from its copies of the words.

    The locators are checked by _locate_batch, a lone word's through
    is_t_valid, which is _locate_batch on a stack of one.  The value solves
    are one _solve_batch of the (B, N - K, t + L) stack [H_t^T | S^T], the L
    syndrome columns as right-hand sides; H_t has full column rank t
    (distinct nonzero points), so x is the solution wherever consistent.
    x is (B, t, L), the layout of corrected[b, :, locs], so one gather and
    one scatter subtract the values of every word.
    """
    fld = code.field
    count, t = coeffs.shape
    if count == 1:  # is_t_valid is the root stage that perfbench's tracer times
        ok, where = is_t_valid(code, ErrorLocator(coeffs=coeffs[0]))
        valid, locs = np.arange(int(ok)), np.array(where, dtype=np.intp).reshape(-1, t)
    else:
        valid, locs = _locate_batch(code, coeffs)
    status = np.full(count, _NOT_T_VALID, dtype=np.int8)
    if not valid.size:
        return status, locs, fld.zeros((0, t, synd.shape[1]))
    # Fancy indexing copies slowly (1.3 against 0.4 ms on matmul-deep's
    # syndromes), so a whole stack goes into the solve as it is.
    aug = np.concatenate([code.syndrome_matrix()[locs],
                          synd if len(valid) == len(synd) else synd[which[valid]]], axis=1)
    x, _, solved = fld._solve_batch(aug.transpose(0, 2, 1), t)
    del aug  # so that the copy below reuses its pages (3 MB on matmul-deep)
    # x as a view would keep a wide GF(p) solve's whole product alive (3 MB
    # on matmul-deep), and its strides would slow the subtraction.
    x = x.copy() if solved.all() else x[solved]
    status[valid] = np.where(solved, 0, _SYNDROME_RESIDUAL)
    return status, locs[solved], x


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
