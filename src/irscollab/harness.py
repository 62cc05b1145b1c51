"""Monte Carlo experiment driver.

Estimates the failure rate P_F(t), undetected-error rate P_ML(t), and total
error rate P_e(t) = P_F + P_ML of collaborative decoding; evaluates the
analytic finite-field failure bound; measures condition numbers of the
stacked syndrome system; runs the end-to-end coded-matmul demo; and emits
deterministic CSV reports.

Every trial draws from its own counter-based RNG stream keyed by
(master seed, L, t, trial index), so runs are reproducible cell by cell and
independent of execution order.  A cell's trials are then stacked and
decoded together by the batch decoder (decoder._decode_batch, the one
decode path here, over either field), which gives each trial the outcome
of the single-word decoder: exactly over GF(p), and over the reals to
within rounding.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .decoder import (FailureReason, _batch_elements, _decode_batch, _stack, _syndromes,
                      cpda_decode, outcomes_equal, t_max)
from .errmodel import ErrorModelSpec, _check_model, model_for, sample_error
from .errors import DecoderMismatch, InvalidParameters, NotACodeword
from .field import Field, PrimeField, RealField, _is_int
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


def make_alphas(field: Field, n: int, rule: str):
    """Evaluation points from a rule string.

    pow:<base>   alpha_i = base**i for i = 1..n (an integer base over GF(p))
    linear       alpha_i = i for i = 1..n
    primitive    alpha_j = g**j for j = 0..n-1, g a primitive root (GF only,
                 n <= p - 1)

    A malformed rule, or one whose n points are not pairwise distinct and
    nonzero (the decoders invert them), raises InvalidParameters.
    """
    if n < 1:
        raise InvalidParameters(f"need n >= 1, got {n}")
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: a grid of (L, t) cells over a fixed code."""

    field: Field
    n: int
    k: int
    l_values: tuple
    t_values: tuple
    trials: int
    model: str
    alphas: str = "primitive"
    decoder: str = "cpda"
    seed: int = 0

    def __post_init__(self):
        l_values, t_values = tuple(self.l_values), tuple(self.t_values)
        if not all(map(_is_int, (self.n, self.k, self.trials, self.seed, *l_values, *t_values))):
            raise InvalidParameters("n, k, trials, seed and the l and t values must be integers")
        object.__setattr__(self, "l_values", tuple(map(int, l_values)))
        object.__setattr__(self, "t_values", tuple(map(int, t_values)))
        if not 1 <= self.k < self.n:
            raise InvalidParameters(f"need 1 <= k < n, got n={self.n}, k={self.k}")
        if not self.l_values or any(l < 1 for l in self.l_values):
            raise InvalidParameters("l_values must be positive and nonempty")
        if not self.t_values or any(not 0 <= t <= self.n for t in self.t_values):
            raise InvalidParameters(f"t_values must lie in [0, {self.n}]")
        if self.trials < 1:
            raise InvalidParameters("trials must be positive")
        _check_model(self.model, self.field)
        if self.decoder not in _DECODERS:
            raise InvalidParameters(f"decoder must be one of {_DECODERS}, got {self.decoder!r}")
        if self.seed < 0:
            raise InvalidParameters("seed must be nonnegative")

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


def _trial_rng(seed: int, l: int, t: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, l, t, trial))))


def _corrupted(fld: Field, word: np.ndarray, t: int, rng) -> np.ndarray:
    """A canonical L x N word plus a weight-t error of the field's model
    drawn from rng, by one raw sum; the word itself for t = 0."""
    if t == 0:
        return word
    spec = ErrorModelSpec(kind=model_for(fld), t=t)
    return fld._reduce(word + sample_error(spec, fld, *word.shape, rng).e)


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


def _trials(config: ExperimentConfig, code, l: int, t: int):
    """(word, received) for every trial of the (L, t) cell.

    Each trial draws random messages and then its error (_corrupted) from
    its own stream, so a cell's trials do not depend on what ran before.
    """
    fld = config.field
    enc = code.encoding_matrix().T  # k x n, word = messages @ enc
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, l, t, trial)
        word = fld._matmul(fld.rand_elements(rng, (l, config.k)), enc)
        yield word, _corrupted(fld, word, t, rng)


def _decoded(config: ExperimentConfig, code, l: int, t: int):
    """(word, outcome) for every trial of the (L, t) cell, in order.

    The trials go in batches whose largest decoder array holds at most
    _BATCH_ELEMENTS elements, and each batch is stacked and decoded by the
    batch decoder, over either field.
    """
    trials = _trials(config, code, l, t)
    size = max(1, _BATCH_ELEMENTS // _batch_elements(config.field, config.n, config.k, l))
    while batch := list(itertools.islice(trials, size)):
        words, received = zip(*batch)
        stack = np.stack(received)
        outcomes = _checked(config, lambda name: _decode_batch(code, stack, name))
        yield from zip(words, outcomes)


def _gram_cond(code, received: np.ndarray, t: int) -> float:
    """2-norm condition number of S^T S, S the stacked system at a checked t."""
    s = _stack(_syndromes(code, received).values, t, code.field).matrix
    return float(np.linalg.cond(s.T @ s))


def run_monte_carlo(config: ExperimentConfig) -> Report:
    """Estimate P_F, P_ML, P_e for every (L, t) cell of the config.

    Each trial encodes random messages, plants a weight-t column error,
    decodes, and classifies the outcome against the transmitted word:
    failure when the decoder gives up, undetected error when it returns a
    different word.  Deterministic for a fixed master seed.
    """
    fld = config.field
    code = config.code()
    cells = []
    for l in config.l_values:
        for t in config.t_values:
            failures = undetected = 0
            for word, outcome in _decoded(config, code, l, t):
                if not outcome.success:
                    failures += 1
                elif not fld._agree(outcome.corrected, word, CLASSIFY_RTOL):
                    undetected += 1
            cells.append(CellStats(t=t, l=l, trials=config.trials,
                                   failures=failures, undetected=undetected))
    return Report(cells=tuple(cells))


def condnum_study(config: ExperimentConfig) -> Report:
    """Mean 2-norm condition number of the stacked system's Gram matrix.

    For each (L, t) cell, plants weight-t errors on random codewords and
    averages cond(S^T S) of the stacked system built at the true t.  No
    decoding is performed.  Real field only.
    """
    if not isinstance(config.field, RealField):
        raise InvalidParameters("conditioning is only studied over the real field")
    if any(t < 1 for t in config.t_values):
        raise InvalidParameters("conditioning needs t >= 1")
    for l in config.l_values:
        tm = t_max(config.n, config.k, l)
        bad = [t for t in config.t_values if t > tm]
        if bad:
            raise InvalidParameters(f"t={bad[0]} exceeds t_max={tm} for L={l}")
    code = config.code()
    cells = []
    for l in config.l_values:
        for t in config.t_values:
            conds = [_gram_cond(code, received, t) for _, received in _trials(config, code, l, t)]
            cells.append(CellStats(t=t, l=l, trials=config.trials, failures=0,
                                   undetected=0,
                                   mean_cond=math.fsum(conds) / len(conds)))
    return Report(cells=tuple(cells))


def pf_bound(q: int, n: int, k: int, l: int, t: int) -> float:
    """Analytic upper bound on the failure rate under uniform errors.

    ((q^L - 1/q) / (q^L - 1)) * q^{-(L+1)(t_max - t)} / (q - 1), clamped to
    [0, 1]; valid for 0 <= t <= t_max.  Evaluated in exact rational
    arithmetic before conversion to float.
    """
    if q < 2:
        raise InvalidParameters(f"need q >= 2, got {q}")
    tm = t_max(n, k, l)
    if not 0 <= t <= tm:
        raise InvalidParameters(f"need 0 <= t <= t_max={tm}, got t={t}")
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
    tm = t_max(params.num_workers, params.k, l)
    if not 0 <= t <= tm:
        raise InvalidParameters(f"need 0 <= t <= t_max={tm}, got t={t}")
    rng = _trial_rng(seed, l, t, 0)
    a = fld.rand_elements(rng, (s, r))
    b = fld.rand_elements(rng, (s, rp))
    word = assemble_irs(params, [worker_compute(task) for task in encode_tasks(params, a, b)])
    word = replace(word, d=_corrupted(fld, word.d, t, rng))
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
    truth = fld.matmul(a.T, b)
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
