"""Monte Carlo experiment driver.

Estimates the failure rate P_F(t), undetected-error rate P_ML(t), and total
error rate P_e(t) = P_F + P_ML of collaborative decoding; evaluates the
analytic finite-field failure bound; measures condition numbers of the
stacked syndrome system; runs the end-to-end coded-matmul demo; and emits
deterministic CSV reports.

Every trial draws from its own counter-based Philox stream, keyed as
SeedSequence((master seed, L, t, trial index)) keys it, so runs are
reproducible cell by cell and independent of execution order.  A cell's
trials go in batches.  For each batch the keys are one array pass
(_trial_keys), one Philox is re-keyed per trial, and only the draws of the
messages and the error run trial by trial; the encode, the scatter of the
error values and the sum are one array operation each.  The batch is then
decoded as one stack by the batch decoder (decoder._decode_batch, the one
decode path of the package, over either field), which cpda_decode and
mssr_decode run on a stack of one, so each trial gets their outcome bit
for bit.
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


def _trial_rngs(seed: int, l: int, t: int, trials: range):
    """The generator of each trial of the range, in order.

    One Philox is re-keyed before each trial to the trial's key, with
    counter 0 and empty buffers: the stream of
    Generator(Philox(SeedSequence((seed, l, t, trial)))), at a tenth of the
    cost of building one.
    """
    bits = np.random.Philox(0)
    state, rng = bits.state, np.random.Generator(bits)
    for key in _trial_keys(seed, l, t, trials):
        state["state"]["key"] = key
        bits.state = state
        yield rng


def _draw(fld: Field, enc: np.ndarray, seed: int, l: int, t: int, trials: range):
    """(words, received): (B, L, N) codewords and received words of the
    trials of the (L, t) cell in the range, enc the K x N encoding matrix.

    Each trial draws from its own stream, trial by trial, its messages and
    then its error (errmodel._draw_error).  The encode, the scatter of the
    error values and the sum are then one array operation each.
    """
    k, n = enc.shape
    msgs = np.empty((len(trials), l, k), dtype=fld.dtype)
    support = np.empty((len(trials), t), dtype=np.intp)
    vals = np.empty((len(trials), l, t), dtype=fld.dtype)
    for i, rng in enumerate(_trial_rngs(seed, l, t, trials)):
        msgs[i] = fld.rand_elements(rng, (l, k))
        support[i], vals[i] = _draw_error(fld, l, n, t, rng)
    words = fld._matmul(msgs, enc)
    if not t:
        return words, words
    support.sort(axis=1)
    e = fld.zeros(words.shape)
    e[np.arange(len(trials))[:, None, None], np.arange(l)[:, None], support[:, None]] = vals
    return words, fld._reduce(words + e)


def _batches(config: ExperimentConfig, code, l: int, t: int):
    """(words, received) for each decode batch of the (L, t) cell, in trial
    order: a batch's largest decoder array holds at most _BATCH_ELEMENTS
    elements.  A trial's draws depend only on (seed, L, t, trial), not on
    what ran before."""
    size = max(1, _BATCH_ELEMENTS // _batch_elements(config.field, config.n, config.k, l))
    enc = code.encoding_matrix().T
    for start in range(0, config.trials, size):
        trials = range(start, min(start + size, config.trials))
        yield _draw(config.field, enc, config.seed, l, t, trials)


def _checked(config: ExperimentConfig, decode) -> list:
    """decode(name), a list of outcomes, for the configured decoder.

    With "both", the cpda outcomes after comparing each with mssr's: the
    two decoders give identical outcomes over either field, so any
    difference raises DecoderMismatch.
    """
    if config.decoder != "both":
        return decode(config.decoder)
    cpda, mssr = decode("cpda"), decode("mssr")
    for a, b in zip(cpda, mssr):
        if not outcomes_equal(config.field, a, b):
            raise DecoderMismatch(f"decoders disagree: {a.reason} vs {b.reason}")
    return cpda


def _decoded(config: ExperimentConfig, code, l: int, t: int):
    """(word, outcome) for every trial of the (L, t) cell, in order: each
    batch is decoded as one stack by the batch decoder, over either field."""
    for words, received in _batches(config, code, l, t):
        yield from zip(words, _checked(config, lambda name: _decode_batch(code, received, name)))


def _grid(config: ExperimentConfig, cell) -> Report:
    """The report of cell(code, l, t), the CellStats of one cell, for every
    (L, t) cell of the config: the one loop over the cells of both
    studies."""
    code = config.code()
    return Report(cells=tuple(cell(code, l, t) for l in config.l_values for t in config.t_values))


def run_monte_carlo(config: ExperimentConfig) -> Report:
    """Estimate P_F, P_ML, P_e for every (L, t) cell of the config.

    Each trial encodes random messages, plants a weight-t column error,
    decodes, and classifies the outcome against the transmitted word:
    failure when the decoder gives up, undetected error when it returns a
    different word.  Deterministic for a fixed master seed.
    """
    fld = config.field

    def cell(code, l, t):
        failures = undetected = 0
        for word, outcome in _decoded(config, code, l, t):
            if not outcome.success:
                failures += 1
            elif not fld._agree(outcome.corrected, word, CLASSIFY_RTOL):
                undetected += 1
        return CellStats(t=t, l=l, trials=config.trials, failures=failures, undetected=undetected)

    return _grid(config, cell)


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

    def cell(code, l, t):
        conds = []
        for _, received in _batches(config, code, l, t):
            # Each word's stacked matrix S, L(N - K - t) x t, and its S^T S.
            s = _windows(_syndromes(code, received).values, t)[..., :t]
            s = s.reshape(len(received), -1, t)
            conds.extend(np.linalg.cond(s.swapaxes(1, 2) @ s).tolist())
        return CellStats(t=t, l=l, trials=config.trials, failures=0, undetected=0,
                         mean_cond=math.fsum(conds) / len(conds))

    return _grid(config, cell)


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
    rng = next(_trial_rngs(seed, l, t, range(1)))
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
