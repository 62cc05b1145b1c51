"""Monte Carlo experiment driver.

Estimates the failure rate P_F(t), undetected-error rate P_ML(t), and total
error rate P_e(t) = P_F + P_ML of collaborative decoding; evaluates the
analytic finite-field failure bound; measures condition numbers of the
stacked syndrome system; runs the end-to-end coded-matmul demo; and emits
deterministic CSV reports.

Every trial draws from its own counter-based Philox stream, keyed as
SeedSequence((master seed, L, t, trial index)) keys it, so runs are
reproducible cell by cell and independent of execution order.  The trials
of all the cells of one L go in batches that span those cells, in (t, trial)
order.  For the part of each cell in a batch the keys are one array pass
(_trial_keys).  Over GF(p) with p - 1 < 2**32 and N <= 10000 the draws are
one array pass too (_batch_draws), and reproduce each trial's stream bit
for bit: the Philox4x64-10 blocks of every key at once, their uint32
halves, Lemire's bounded draws for the messages and the error values, and
Floyd's algorithm plus the shuffle draws of Generator.choice for the
support.  A trial with a rejected Lemire draw or an all-zero error column
would take more words than that pass reads, so it alone is redrawn trial by
trial (_trial_draws, the per-trial path, which _trial also runs).  Whole
cells take the per-trial path where numpy draws otherwise: a larger p takes
its 64-bit bounded draws, a larger N its tail-shuffle choice, and the reals
its ziggurat normals, whose tables numpy does not expose.  The encode, the
scatter of the error values and the sum are one array operation each.  The
batch is then decoded as one stack by the batch decoder
(decoder._decode_batch, the one decode path of the package, over either
field), which cpda_decode and mssr_decode run on a stack of one, so each
trial gets their outcome bit for bit.  Its result is arrays, and each
cell's counts are read from them: failures from the status codes, and
undetected errors from one agreement test of the corrected stack against
the transmitted words (Field._agrees, the rule of outcomes_equal).
"""

from __future__ import annotations

import csv
import math
from dataclasses import InitVar, dataclass, replace
from fractions import Fraction

import numpy as np

from .decoder import (FailureReason, _batch_elements, _check_t, _decode_batch, _syndromes,
                      _windows, cpda_decode, outcomes_equal, t_max)
from .errmodel import ErrorModelSpec, _check_model, _draw_error, model_for, sample_error
from .errors import DecoderMismatch, InvalidParameters, NotACodeword
from .field import Field, PrimeField, RealField, _check_int
from .grs import _check_points, _primitive_points, make_grs
from .polycode import PolyCodeParams, assemble_irs, encode_tasks, recover_product, worker_compute

__all__ = [
    "ExperimentConfig",
    "CellStats",
    "Report",
    "DemoReport",
    "make_alphas",
    "run_monte_carlo",
    "condnum_study",
    "pf_bound",
    "demo_matmul",
    "emit_csv",
    "load_csv",
]

# An undetected error means the decoder confidently returned a word that is
# materially different from the transmitted one; over the reals "different"
# is judged at this relative tolerance (successful corrections land orders
# of magnitude below it, wrong codewords orders of magnitude above).
CLASSIFY_RTOL = 1e-6

_DECODERS = ("cpda", "mssr", "both")

# Elements in the largest array of the batch decoder for one batch of trials
# (decoder._batch_elements per trial): 2 MB of int64 or float64, whatever
# the code and the trial count.  The elimination or the SVD holds about
# three arrays of this size.
_BATCH_ELEMENTS = 2**18


def make_alphas(field: Field, n: int, rule: str | None = None):
    """Evaluation points from a rule string, by default the field's rule
    (_rule: primitive over GF(p), pow:0.9 over the reals).

    pow:<base>   alpha_i = base**i for i = 1..n (an integer base over GF(p))
    linear       alpha_i = i for i = 1..n
    primitive    alpha_j = g**j for j = 0..n-1, g a primitive root (GF only,
                 n <= p - 1)

    A malformed rule, an n that is not a positive integer, or n points that
    are not pairwise distinct and nonzero (the decoders invert them), raises
    InvalidParameters.
    """
    n, rule = _check_int("n", n, 1), _rule(field, rule)
    if rule.startswith("pow:"):
        raw = rule[len("pow:"):]
        try:
            if isinstance(field, PrimeField):
                base = field.element(int(raw))
                points = [pow(int(base), i, field.p) for i in range(1, n + 1)]
            else:
                base = float(raw)
                points = field.array([base ** i for i in range(1, n + 1)])
        except (ValueError, OverflowError) as exc:
            raise InvalidParameters(f"bad alpha rule {rule!r}: {exc}") from None
    elif rule == "linear":
        points = np.arange(1, n + 1)
    elif rule == "primitive":
        points = _primitive_points(field, n)
    else:
        raise InvalidParameters(f"unknown alpha rule {rule!r}")
    return _check_points(field, points, n)


def _rule(field: Field, rule: str | None) -> str:
    """rule, or when it is None the field's default point rule."""
    return rule if rule is not None else "primitive" if isinstance(field, PrimeField) else "pow:0.9"


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: a grid of (L, t) cells over a fixed code.

    Every integer goes through _check_int, whose message names it, and is
    stored as a Python int.  alphas is a make_alphas rule, None for the
    field's default; the config stores the resolved rule, checked with
    every other field here.  The error model is the field's (model_for):
    model, when given, is only checked against it and not stored.
    """

    field: Field
    n: int
    k: int
    l_values: tuple
    t_values: tuple
    trials: int
    model: InitVar[str | None] = None
    alphas: str | None = None
    decoder: str = "cpda"
    seed: int = 0

    def __post_init__(self, model):
        for name, least in (("n", 2), ("k", 1), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), least))
        for name, least in (("l_values", 1), ("t_values", 0)):
            values = tuple(_check_int(f"{name}[{i}]", v, least)
                           for i, v in enumerate(getattr(self, name)))
            if not values:
                raise InvalidParameters(f"{name} must be nonempty")
            object.__setattr__(self, name, values)
        t_max(self.n, self.k, 1)  # the size rule 1 <= k < n
        if max(self.t_values) > self.n:
            raise InvalidParameters(f"t_values must lie in [0, {self.n}]")
        _check_model(model_for(self.field) if model is None else model, self.field)
        if self.decoder not in _DECODERS:
            raise InvalidParameters(f"decoder must be one of {_DECODERS}, got {self.decoder!r}")
        object.__setattr__(self, "alphas", _rule(self.field, self.alphas))
        make_alphas(self.field, self.n, self.alphas)

    def code(self):
        return make_grs(self.field, self.n, self.k, make_alphas(self.field, self.n, self.alphas))


@dataclass(frozen=True)
class CellStats:
    """Counters for one (L, t) cell; successes + failures + undetected = trials."""

    t: int
    l: int
    trials: int
    failures: int
    undetected: int
    mean_cond: float | None = None

    @property
    def successes(self) -> int:
        return self.trials - self.failures - self.undetected

    @property
    def p_f(self) -> float:
        return self.failures / self.trials

    @property
    def p_ml(self) -> float:
        return self.undetected / self.trials

    @property
    def p_e(self) -> float:
        return (self.failures + self.undetected) / self.trials


@dataclass(frozen=True)
class Report:
    """Cells ordered by (L, t)."""

    cells: tuple

    def __post_init__(self):
        ordered = tuple(sorted(self.cells, key=lambda c: (c.l, c.t)))
        object.__setattr__(self, "cells", ordered)

    def cell(self, l: int, t: int) -> CellStats:
        for c in self.cells:
            if c.l == l and c.t == t:
                return c
        raise KeyError(f"no cell for L={l}, t={t}")


# SeedSequence's constants (numpy/random/bit_generator.pyx): the pool of
# four 32-bit words is filled by hashmix from a hash constant that starts
# at INIT_A and is multiplied by MULT_A at every use, stirred by mix, and
# read out by the same hash from INIT_B and MULT_B.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _trial_keys(seed: int, l: int, t: int, trials: range) -> np.ndarray:
    """(B, 2) uint64: SeedSequence((seed, l, t, i)).generate_state(2, np.uint64),
    the Philox key of each trial i of the range, computed for all at once.

    This is SeedSequence's pool of four words over uint64 arrays of the
    batch, each value masked to 32 bits; every operand is an array, so the
    wraparound of the products and differences raises no warning.
    """
    lo, hi = trials.start, trials.stop
    if lo < 2**32 < hi:  # the index takes a second word from 2**32 on
        return np.concatenate([_trial_keys(seed, l, t, range(lo, 2**32)),
                               _trial_keys(seed, l, t, range(2**32, hi))])
    idx = np.arange(lo, hi, dtype=np.uint64)
    # The 32-bit words of each int, least significant first, as SeedSequence
    # splits its entropy.
    entropy = [np.full(len(idx), x >> s & _MASK32, dtype=np.uint64)
               for x in map(int, (seed, l, t)) for s in range(0, max(x.bit_length(), 1), 32)]
    entropy += [idx & _MASK32] + ([idx >> 32] if lo >= 2**32 else [])
    const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(idx)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # seeds of two or more words
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B  # generate_state: the pool read out by a second hash
    out = [hashmix(value, _MULT_B) for value in pool]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


def _trial_rngs(keys: np.ndarray):
    """The generator of each trial key of the (B, 2) keys (_trial_keys), in
    order.

    One Philox is re-keyed before each trial to the trial's key, with
    counter 0 and empty buffers: the stream of
    Generator(Philox(SeedSequence((seed, l, t, trial)))), at a tenth of the
    cost of building one.
    """
    bits = np.random.Philox(0)
    state, rng = bits.state, np.random.Generator(bits)
    for key in keys:
        state["state"]["key"] = key
        bits.state = state
        yield rng


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011; numpy/random/src/philox/philox.h): the multipliers of words
# 0 and 2 of the counter, and the Weyl increments of the two key words, as
# (2, 1, 1) columns against the (2, B, blocks) pairs of words that a round
# treats alike.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]

# The largest n at which Generator.choice(n, t, replace=False) always takes
# Floyd's algorithm; above it, large t take a tail shuffle of arange(n).
_FLOYD_N = 10000


def _mulhilo(m: np.ndarray, x: np.ndarray):
    """(hi, lo): the high and low 64 bits of m * x over uint64 arrays, the
    high word summed from the four products of 32-bit halves, none of which
    wraps."""
    x0, x1, m0, m1 = x & _MASK32, x >> 32, m & _MASK32, m >> 32
    mid = x1 * m0 + (x0 * m0 >> 32)
    cross = x0 * m1 + (mid & _MASK32)
    return x1 * m1 + (mid >> 32) + (cross >> 32), x * m


def _philox(keys: np.ndarray, blocks: int) -> np.ndarray:
    """(B, 4 * blocks) uint64: the first blocks Philox4x64-10 blocks of each
    of the (B, 2) keys, the output of np.random.Philox(key=key).random_raw.

    numpy steps the counter before it generates, so block b is the cipher
    of the counter (b, 0, 0, 0), b = 1 ... blocks.  A round multiplies
    words 0 and 2; words 0 and 2 of the next are the high halves crossed,
    xor words 1 and 3, xor the key, and words 1 and 3 the low halves
    crossed.  So each pair of words is one (2, B, blocks) array.
    """
    even = np.zeros((2, len(keys), blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd, key = np.zeros_like(even), keys.T[:, :, None]
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, even)
        hi = hi[::-1]
        hi ^= odd
        hi ^= key
        even, odd = hi, lo[::-1]
    return np.stack((even, odd), axis=1).transpose(2, 3, 0, 1).reshape(len(keys), -1)


def _uint32_words(keys: np.ndarray, count: int) -> np.ndarray:
    """(B, count) uint64: the first count uint32 words of each key's Philox
    stream, as a Generator takes them: the low half of each output word,
    then its high half."""
    raw = _philox(keys, -(-count // 8))
    return np.stack([raw & _MASK32, raw >> 32], axis=-1).reshape(len(keys), -1)[:, :count]


def _batch_draws(fld: PrimeField, l: int, k: int, n: int, t: int, keys: np.ndarray):
    """(messages, support, values, redo) of the trials keyed by keys, all at
    once: the draws of _trial_draws bit for bit, for every trial that redo
    does not flag.  Over GF(p) with p - 1 < 2**32 and n <= _FLOYD_N only.

    Each bounded draw on [0, b) takes one uint32 word of the trial's Philox
    stream, the low half of each output word first, and is Lemire's
    multiply-shift (Lemire, ACM TOMACS 2019): the high 32 bits of word * b,
    rejected when the low 32 bits fall below (2**32 - b) mod b.  In stream
    order: the l x k messages on [0, p); Floyd's support on [0, j] for
    j = n - t ... n - 1 (j = 0 draws nothing and takes 0), which takes j
    when the draw is already chosen; then choice's Fisher-Yates shuffle on
    [0, i] for i = t - 1 ... 1, whose draws count but whose order does not,
    since the support is sorted; then the l x t values on [0, p).  A trial
    with a rejected draw or an all-zero value column, which _draw_error
    redraws, takes more words than this reads: redo flags it.
    """
    floyd = range(max(n - t, 1), n)
    bounds = np.array([fld.p] * (l * k) + [j + 1 for j in floyd] + list(range(t, 1, -1))
                      + [fld.p] * (l * t), dtype=np.uint64)
    count, product = len(keys), _uint32_words(keys, len(bounds)) * bounds
    redo = ((product & _MASK32) < (np.uint64(2**32) - bounds) % bounds).any(axis=1)
    draws = (product >> 32).astype(np.int64)
    vals = draws[:, len(bounds) - l * t:].reshape(count, l, t)
    redo |= ~vals.any(axis=1).all(axis=1)
    rows, chosen = np.arange(count), np.zeros((count, n), dtype=bool)
    chosen[:, 0] = t == n
    for col, j in enumerate(floyd, l * k):
        hit = chosen[rows, draws[:, col]]
        chosen[rows, np.where(hit, j, draws[:, col])] = True
    support = np.nonzero(chosen)[1].reshape(count, t)
    return (draws[:, :l * k].reshape(count, l, k).astype(fld.dtype, copy=False), support,
            vals.astype(fld.dtype, copy=False), redo)


def _trial_draws(fld: Field, l: int, k: int, n: int, t: int, keys: np.ndarray):
    """(messages, support, values): (B, l, k), (B, t) sorted and (B, l, t),
    of the trials keyed by keys, drawn trial by trial from _trial_rngs, each
    its messages and then its error (errmodel._draw_error): the per-trial
    path, whose draws _batch_draws reproduces."""
    msgs = np.empty((len(keys), l, k), dtype=fld.dtype)
    support = np.empty((len(keys), t), dtype=np.intp)
    vals = np.empty((len(keys), l, t), dtype=fld.dtype)
    for i, rng in enumerate(_trial_rngs(keys)):
        msgs[i] = fld.rand_elements(rng, (l, k))
        support[i], vals[i] = _draw_error(fld, l, n, t, rng)
    support.sort(axis=1)
    return msgs, support, vals


def _words(fld: Field, enc: np.ndarray, msgs, support, vals):
    """(words, received): the (B, L, N) codewords msgs @ enc, and the same
    plus the error whose values vals sit on the sorted support."""
    words = fld._matmul(msgs, enc)
    if not support.shape[1]:
        return words, words
    e = fld.zeros(words.shape)
    e[np.arange(len(words))[:, None, None], np.arange(words.shape[1])[:, None],
      support[:, None]] = vals
    return words, fld._reduce(words + e)


def _draw(fld: Field, enc: np.ndarray, seed: int, l: int, t: int, trials: range):
    """(words, received): (B, L, N) codewords and received words of the
    trials of the (L, t) cell in the range, enc the K x N encoding matrix.

    Over GF(p) with p - 1 < 2**32 and N <= _FLOYD_N, every trial is drawn at
    once (_batch_draws), and only the trials it flags are redrawn by the
    per-trial path (_trial_draws).  Larger moduli take numpy's 64-bit
    bounded draws, larger N its tail-shuffle choice, and the reals its
    ziggurat normals, whose tables numpy does not expose: those cells take
    the per-trial path whole.
    """
    (k, n), keys = enc.shape, _trial_keys(seed, l, t, trials)
    if not (isinstance(fld, PrimeField) and fld.p <= 2**32 and n <= _FLOYD_N):
        return _words(fld, enc, *_trial_draws(fld, l, k, n, t, keys))
    msgs, support, vals, redo = _batch_draws(fld, l, k, n, t, keys)
    if redo.any():
        msgs[redo], support[redo], vals[redo] = _trial_draws(fld, l, k, n, t, keys[redo])
    return _words(fld, enc, msgs, support, vals)


def _trial(config: ExperimentConfig, l: int, t: int, i: int):
    """(codeword, received, support) of trial i of the (L, t) cell of the
    config, by the per-trial path: the L x N transmitted and received words
    and the sorted tuple of the planted columns, as run_monte_carlo decodes
    them."""
    enc = config.code().encoding_matrix().T
    drawn = _trial_draws(config.field, l, *enc.shape, t,
                         _trial_keys(config.seed, l, t, range(i, i + 1)))
    words, received = _words(config.field, enc, *drawn)
    return words[0], received[0], tuple(drawn[1][0].tolist())


def _batches(config: ExperimentConfig, code, l: int):
    """(cell, words, received) for each decode batch of the cells of one L,
    in (t, trial) order: cell holds each trial's index into t_values, and a
    batch's largest decoder array at most _BATCH_ELEMENTS elements.  A
    trial's draws depend only on (seed, L, t, trial), not on what ran
    before or shares its batch."""
    size = max(1, _BATCH_ELEMENTS // _batch_elements(config.field, config.n, config.k, l))
    enc, trials = code.encoding_matrix().T, config.trials
    total = trials * len(config.t_values)
    for start in range(0, total, size):
        stop = min(start + size, total)
        draws = [_draw(config.field, enc, config.seed, l, config.t_values[c],
                       range(max(start - c * trials, 0), min(stop - c * trials, trials)))
                 for c in range(start // trials, (stop - 1) // trials + 1)]
        yield (np.arange(start, stop) // trials, *map(np.concatenate, zip(*draws)))


def _checked(config: ExperimentConfig, code, received: np.ndarray):
    """_decode_batch's result on received for the configured decoder.

    With "both", cpda's, after comparing each word's outcome with mssr's:
    the two decoders give identical outcomes over either field, so any
    difference raises DecoderMismatch.
    """
    if config.decoder != "both":
        return _decode_batch(code, received, config.decoder)
    cpda, mssr = _decode_batch(code, received, "cpda"), _decode_batch(code, received, "mssr")
    for i in range(len(received)):
        a, b = cpda.outcome(i), mssr.outcome(i)
        if not outcomes_equal(config.field, a, b):
            raise DecoderMismatch(f"decoders disagree: {a.reason} vs {b.reason}")
    return cpda


def _grid(config: ExperimentConfig, cells) -> Report:
    """The report of cells(code, l), the CellStats of the cells of one L in
    t_values order, for every L of the config: the one loop over the cells
    of both studies."""
    code = config.code()
    return Report(cells=tuple(c for l in config.l_values for c in cells(code, l)))


def run_monte_carlo(config: ExperimentConfig) -> Report:
    """Estimate P_F, P_ML, P_e for every (L, t) cell of the config.

    Each trial encodes random messages, plants a weight-t column error,
    decodes, and classifies the outcome against the transmitted word:
    failure when the decoder gives up, undetected error when it returns a
    different word.  Deterministic for a fixed master seed.
    """
    fld, count = config.field, len(config.t_values)

    def cells(code, l):
        failures, undetected = np.zeros(count, dtype=np.intp), np.zeros(count, dtype=np.intp)
        for cell, words, received in _batches(config, code, l):
            out = _checked(config, code, received)
            failed = out.status != 0
            wrong = ~failed & ~fld._agrees(out.corrected, words, CLASSIFY_RTOL)
            failures += np.bincount(cell[failed], minlength=count)
            undetected += np.bincount(cell[wrong], minlength=count)
        return [CellStats(t=t, l=l, trials=config.trials, failures=int(f), undetected=int(u))
                for t, f, u in zip(config.t_values, failures, undetected)]

    return _grid(config, cells)


def condnum_study(config: ExperimentConfig) -> Report:
    """Mean 2-norm condition number of the stacked system's Gram matrix.

    For each (L, t) cell, plants weight-t errors on random codewords and
    averages cond(S^T S) of the stacked system built at the true t.  No
    decoding is performed.  Real field only.
    """
    if not isinstance(config.field, RealField):
        raise InvalidParameters("conditioning is only studied over the real field")
    for t in config.t_values:  # t_max grows with L: the least L binds
        _check_t(t, config.n, config.k, min(config.l_values), least=1)

    def cells(code, l):
        conds = [[] for _ in config.t_values]
        for cell, _, received in _batches(config, code, l):
            for c in range(cell[0], cell[-1] + 1):
                # Each word's stacked matrix S, L(N - K - t) x t, and its S^T S.
                t = config.t_values[c]
                s = _windows(_syndromes(code, received[cell == c]).values, t)[..., :t]
                s = s.reshape(len(s), -1, t)
                conds[c].extend(np.linalg.cond(s.swapaxes(1, 2) @ s).tolist())
        return [CellStats(t=t, l=l, trials=config.trials, failures=0, undetected=0,
                          mean_cond=math.fsum(cond) / len(cond))
                for t, cond in zip(config.t_values, conds)]

    return _grid(config, cells)


def pf_bound(q: int, n: int, k: int, l: int, t: int) -> float:
    """Analytic upper bound on the failure rate under uniform errors.

    ((q^L - 1/q) / (q^L - 1)) * q^{-(L+1)(t_max - t)} / (q - 1), clamped to
    [0, 1], for integers q >= 2 and 0 <= t <= t_max (InvalidParameters
    otherwise).  Evaluated in exact rational arithmetic on Python ints
    before conversion to float.
    """
    q, t, l = _check_int("q", q, 2), _check_t(t, n, k, l), int(l)
    tm = t_max(n, k, l)
    ql = Fraction(q) ** l
    bound = ((ql - Fraction(1, q)) / (ql - 1)) / (Fraction(q) ** ((l + 1) * (tm - t)) * (q - 1))
    return float(min(Fraction(1), max(Fraction(0), bound)))


@dataclass(frozen=True)
class DemoReport:
    """End-to-end coded matmul outcome.

    On failure, reason is the decoder's FailureReason, or "not_a_codeword"
    when the decoded word fails the interpolation of the product.
    """

    success: bool
    max_rel_error: float | None
    reason: FailureReason | str | None = None
    t: int = 0
    num_workers: int = 0


def demo_matmul(params: PolyCodeParams, t: int, seed: int = 0) -> DemoReport:
    """Full pipeline on random matrices with t faulty workers.

    Generates random inputs, distributes encoded tasks, corrupts the
    outputs of t workers, decodes collaboratively, and compares the
    recovered product to the directly computed one.  A decoding impasse, or
    a decoded word that the interpolation rejects, is reported in the
    outcome, not raised.
    """
    fld = params.field
    # Fixed demo shapes: 4 inner rows and blocks of width 2, giving an
    # interleaving depth of L = 4 regardless of the split counts.
    s, r, rp = 4, 2 * params.m, 2 * params.n
    l = (r * rp) // (params.m * params.n)
    t, seed = _check_t(t, params.num_workers, params.k, l), _check_int("seed", seed, 0)
    rng = next(_trial_rngs(_trial_keys(seed, l, t, range(1))))
    a = fld.rand_elements(rng, (s, r))
    b = fld.rand_elements(rng, (s, rp))
    word = assemble_irs(params, [worker_compute(task) for task in encode_tasks(params, a, b)])
    err = sample_error(ErrorModelSpec(kind=model_for(fld), t=t), fld, *word.d.shape, rng)
    word = replace(word, d=fld._reduce(word.d + err.e))
    outcome = cpda_decode(word.code, word.d)
    reason = outcome.reason
    if outcome.success:
        try:
            product = recover_product(params, replace(word, d=outcome.corrected))
        except NotACodeword:
            # Over the reals a certified word can still miss the
            # interpolation's residual tolerance on ill-conditioned points.
            reason = "not_a_codeword"
    if reason is not None:
        return DemoReport(success=False, max_rel_error=None, reason=reason,
                          t=t, num_workers=params.num_workers)
    truth = fld._matmul(a.T, b)
    if isinstance(fld, PrimeField):
        rel = 0.0 if np.array_equal(product, truth) else 1.0
    else:
        rel = float(np.max(np.abs(product - truth)) / max(1.0, float(np.max(np.abs(truth)))))
    return DemoReport(success=True, max_rel_error=rel, t=t, num_workers=params.num_workers)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

_CSV_HEADER = "t,L,trials,failures,undetected,p_f,p_ml,p_e,mean_cond"
_COND_COMMENT = ("# mean_cond: 2-norm condition number of the stacked system's"
                 " Gram matrix at the true t, averaged over all trials")


def emit_csv(report: Report, path) -> None:
    """Write a report as CSV: one row per (L, t), byte-deterministic."""
    lines = []
    if any(c.mean_cond is not None for c in report.cells):
        lines.append(_COND_COMMENT)
    lines.append(_CSV_HEADER)
    for c in report.cells:
        cond = "" if c.mean_cond is None else repr(c.mean_cond)
        lines.append(f"{c.t},{c.l},{c.trials},{c.failures},{c.undetected},"
                     f"{c.p_f!r},{c.p_ml!r},{c.p_e!r},{cond}")
    _write_lines(path, lines)


def _write_lines(path, lines) -> None:
    """Write lines to path, each ended by a newline: the one file writer."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> Report:
    """Parse a CSV written by emit_csv back into a Report.

    A row with the wrong number of fields, counts that are not integers, or
    counts outside trials >= 1 and 0 <= failures + undetected <= trials
    raises InvalidParameters naming its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(num, line) for num, line in enumerate(fh.read().splitlines(), 1)
                if line and not line.startswith("#")]
    if not rows or rows[0][1] != _CSV_HEADER:
        raise InvalidParameters(f"{path} is not a report CSV")
    width = len(_CSV_HEADER.split(","))
    cells = []
    for num, line in rows[1:]:
        rec = next(csv.reader([line]))
        try:
            if len(rec) != width:
                raise ValueError(f"expected {width} fields, got {len(rec)}")
            t, l, trials, failures, undetected = (int(x) for x in rec[:5])
            mean_cond = float(rec[8]) if rec[8] else None
        except ValueError as exc:
            raise InvalidParameters(f"{path}, line {num}: {exc}") from None
        if trials < 1 or min(failures, undetected) < 0 or failures + undetected > trials:
            raise InvalidParameters(f"{path}, line {num}: counts {failures} + {undetected}"
                                    f" do not fit in {trials} trials")
        cells.append(CellStats(t=t, l=l, trials=trials, failures=failures,
                               undetected=undetected, mean_cond=mean_cond))
    return Report(cells=tuple(cells))
