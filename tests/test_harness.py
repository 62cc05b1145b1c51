"""Tests for the Monte Carlo harness and the CLI."""

import dataclasses
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from irscollab import cli, harness
from irscollab.cli import main
from irscollab.decoder import DecodeOutcome, FailureReason, _batch_elements
from irscollab.errors import DecoderMismatch, InvalidParameters
from irscollab.field import PrimeField, RealField
from irscollab.harness import (
    CellStats,
    ExperimentConfig,
    Report,
    condnum_study,
    demo_matmul,
    emit_csv,
    load_csv,
    make_alphas,
    pf_bound,
    run_monte_carlo,
)
from irscollab.polycode import PolyCodeParams


# ---------------------------------------------------------------------------
# Alpha rules
# ---------------------------------------------------------------------------

def test_make_alphas_pow_real():
    got = make_alphas(RealField(), 4, "pow:0.9")
    assert np.allclose(got, [0.9, 0.81, 0.729, 0.6561])


def test_make_alphas_pow_gf():
    got = make_alphas(PrimeField(257), 4, "pow:3")
    assert got.tolist() == [3, 9, 27, 81]


def test_make_alphas_linear():
    assert make_alphas(RealField(), 5, "linear").tolist() == [1, 2, 3, 4, 5]
    assert make_alphas(PrimeField(257), 3, "linear").tolist() == [1, 2, 3]


def test_make_alphas_primitive():
    fld = PrimeField(7)
    got = make_alphas(fld, 6, "primitive")
    assert sorted(got.tolist()) == [1, 2, 3, 4, 5, 6]
    assert got[0] == 1
    with pytest.raises(InvalidParameters):
        make_alphas(RealField(), 4, "primitive")


def test_make_alphas_bad_rule():
    with pytest.raises(InvalidParameters):
        make_alphas(RealField(), 4, "geometric")


@pytest.mark.parametrize("field, rule", [
    (PrimeField(257), "pow:abc"),
    (PrimeField(257), "pow:2.5"),  # GF(p) bases are integers
    (RealField(), "pow:abc"),
    (RealField(), "pow:nan"),
    (RealField(), "pow:1e200"),  # base**2 overflows
])
def test_make_alphas_malformed_pow(field, rule):
    with pytest.raises(InvalidParameters, match="bad alpha rule"):
        make_alphas(field, 4, rule)


@pytest.mark.parametrize("field, n, rule", [
    (PrimeField(7), 8, "linear"),  # 1..6, 0, 1: a repeat and a zero
    (PrimeField(7), 7, "linear"),  # 1..6, 0: distinct, with a zero
    (PrimeField(7), 6, "pow:2"),  # 2 has order 3: 2, 4, 1, 2, 4, 1
    (RealField(), 4, "pow:1"),
])
def test_make_alphas_rejects_repeated_or_zero_points(field, n, rule):
    with pytest.raises(InvalidParameters):
        make_alphas(field, n, rule)


def test_make_alphas_primitive_needs_distinct_powers():
    # GF(5) has only p - 1 = 4 distinct powers of its generator.
    assert make_alphas(PrimeField(5), 4, "primitive").tolist() == [1, 2, 4, 3]
    with pytest.raises(InvalidParameters, match="p - 1 = 4"):
        make_alphas(PrimeField(5), 6, "primitive")


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def _config(**kw):
    base = dict(field=PrimeField(257), n=10, k=4, l_values=(2,), t_values=(0, 1, 2),
                trials=5, model="uref", alphas="primitive", seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    _config()  # valid
    with pytest.raises(InvalidParameters):
        _config(k=10)
    with pytest.raises(InvalidParameters):
        _config(l_values=())
    with pytest.raises(InvalidParameters):
        _config(t_values=(11,))
    with pytest.raises(InvalidParameters):
        _config(trials=0)
    with pytest.raises(InvalidParameters):
        _config(model="gre")  # gre needs the real field
    with pytest.raises(InvalidParameters):
        _config(field=RealField(), model="uref", alphas="pow:0.9")
    with pytest.raises(InvalidParameters):
        _config(field=None)
    with pytest.raises(InvalidParameters):
        _config(decoder="fastest")


@pytest.mark.parametrize("bad", [
    dict(t_values=(1.9,)), dict(t_values=(True,)), dict(l_values=(2.0,)),
    dict(l_values=(np.float64(2),)), dict(trials=2.5), dict(trials=True),
    dict(seed=1.5), dict(seed=False), dict(n=10.0), dict(k=4.0), dict(k=True),
])
def test_config_rejects_non_integers(bad):
    # The message names the parameter, and the first entry of a grid.
    ((name, value),) = bad.items()
    least = dict(n=2, k=1, trials=1, seed=0, l_values=1, t_values=0)[name]
    label = f"{name}[0]" if name.endswith("_values") else name
    got = repr(value[0] if name.endswith("_values") else value)
    message = rf"^{re.escape(label)} must be an integer >= {least}, got {re.escape(got)}$"
    with pytest.raises(InvalidParameters, match=message):
        _config(**bad)


@pytest.mark.parametrize("field, model, rule", [
    (PrimeField(257), "uref", "primitive"), (RealField(), "gre", "pow:0.9")], ids=["gf257", "real"])
def test_config_defaults_to_the_fields_point_rule(field, model, rule):
    # The config stores the resolved rule, so both configs are equal.
    grid = dict(field=field, n=10, k=4, l_values=(2,), t_values=(1, 3), trials=20, model=model,
                seed=4)
    default = ExperimentConfig(**grid)
    assert default.alphas == rule and default == ExperimentConfig(**grid, alphas=rule)
    assert run_monte_carlo(default) == run_monte_carlo(ExperimentConfig(**grid, alphas=rule))
    assert make_alphas(field, 10).tolist() == make_alphas(field, 10, rule).tolist()


@pytest.mark.parametrize("rule", ["geometric", "pow:abc", "linear"])
def test_config_checks_its_rule_at_construction(rule):
    # GF(7) has six nonzero points, so "linear" gives a zero among eight.
    with pytest.raises(InvalidParameters):
        _config(field=PrimeField(7), n=8, k=2, alphas=rule)


@pytest.mark.parametrize("field, model, rule", [
    (PrimeField(257), "uref", "primitive"), (RealField(), "gre", "pow:0.9")], ids=["gf257", "real"])
def test_config_derives_its_error_model(field, model, rule):
    # model is init-only: the field's model is accepted and not stored, so
    # the config equals one built without it; the other field's is refused.
    assert "model" not in [f.name for f in dataclasses.fields(ExperimentConfig)]
    grid = dict(field=field, n=10, k=4, l_values=(2,), t_values=(1,), trials=3, alphas=rule)
    given = ExperimentConfig(**grid, model=model)
    assert given == ExperimentConfig(**grid)
    assert dataclasses.replace(given, decoder="mssr").decoder == "mssr"
    other = "gre" if model == "uref" else "uref"
    with pytest.raises(InvalidParameters, match=f"the '{other}' error model is not defined"):
        ExperimentConfig(**grid, model=other)
    assert not hasattr(cli, "model_for")


def test_config_takes_numpy_integers():
    cfg = _config(n=np.int64(10), l_values=np.array([2, 3]), t_values=(np.int32(1),),
                  trials=np.uint8(5), seed=np.int64(7))
    assert cfg.l_values == (2, 3) and cfg.t_values == (1,)
    assert all(type(v) is int for v in cfg.l_values + cfg.t_values)
    assert all(type(v) is int for v in (cfg.n, cfg.k, cfg.trials, cfg.seed))


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3)])
def test_numpy_integer_seeds_give_the_report_of_the_equal_int(seed):
    cfg = _config(n=np.int64(10), k=np.uint16(4), trials=np.int32(6), seed=seed)
    assert run_monte_carlo(cfg) == run_monte_carlo(_config(trials=6, seed=3))


# ---------------------------------------------------------------------------
# Trial draws
# ---------------------------------------------------------------------------

# A one-word seed, the largest one, the least two-word seed, and a four-word
# seed, which takes SeedSequence's extra mixing loop.
_SEEDS = (0, 2**32 - 1, 2**32, 10**30)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("l, t, trials", [
    (1, 2, range(0, 40)),
    (6, 0, range(17, 29)),
    (2**32, 5, range(2**32 - 3, 2**32 + 3)),  # two-word L, and indices from 2**32 on
])
def test_trial_keys_are_the_seed_sequence_keys(seed, l, t, trials):
    want = np.array([np.random.SeedSequence((seed, l, t, i)).generate_state(2, np.uint64)
                     for i in trials])
    got = harness._trial_keys(seed, l, t, trials)
    assert got.dtype == np.uint64 and got.shape == (len(trials), 2)
    assert np.array_equal(got, want)


def test_trial_rngs_replay_a_fresh_generator_per_trial():
    # Three 32-bit draws leave half a 64-bit word buffered; the next trial
    # must not start from it.
    def draws(rng):
        return (rng.integers(0, 2**32, 3, dtype=np.uint32).tolist(),
                rng.standard_normal(2).tolist(), rng.choice(9, 4, replace=False).tolist())
    got = [draws(rng) for rng in harness._trial_rngs(5, 2, 3, range(3, 11))]
    want = [draws(np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 2, 3, i)))))
            for i in range(3, 11)]
    assert got == want


def _identical(a, b):
    """Same dtype and shape, and equal bit for bit (Python-int equal for
    object arrays)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return np.array_equal(a, b) if a.dtype == object else a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("field, l, k, n, t", [
    (RealField(), 6, 2, 8, 3),
    (RealField(), 1, 2, 8, 0),
    (PrimeField(2), 1, 1, 4, 2),  # half of all error columns are redrawn
    (PrimeField(3), 1, 2, 5, 5),  # t = N
    (PrimeField(257), 4, 4, 16, 9),
    (PrimeField(2**61 - 1), 2, 3, 10, 4),  # object elements
], ids=["real", "real-t0", "gf2-l1", "gf3-l1-tN", "gf257", "gf2^61-1"])
def test_batched_draws_match_the_per_trial_draws(oracle_trials, seed, field, l, k, n, t):
    enc = field.rand_elements(np.random.default_rng(n), (n, k)).T
    for trials in (range(0, 25), range(11, 30)):  # a cell's start and a batch mid-cell
        got = harness._draw(field, enc, seed, l, t, trials)
        want = oracle_trials(field, enc, seed, l, t, trials)
        assert all(map(_identical, got, want))


@pytest.mark.parametrize("config", [
    _config(t_values=(3,), trials=23, seed=10**30),
    ExperimentConfig(field=RealField(), n=8, k=2, l_values=(6,), t_values=(4,), trials=23,
                     model="gre", alphas="pow:0.9", seed=2**32),
], ids=["gf257", "real"])
def test_a_cell_is_drawn_in_decode_batches_of_the_per_trial_draws(monkeypatch, oracle_trials,
                                                                 config):
    fld, l, t = config.field, config.l_values[0], config.t_values[0]
    monkeypatch.setattr(harness, "_BATCH_ELEMENTS",
                        5 * _batch_elements(fld, config.n, config.k, l))
    code = config.code()
    batches = list(harness._batches(config, code, l, t))
    assert [len(words) for words, _ in batches] == [5, 5, 5, 5, 3]
    want = oracle_trials(fld, code.encoding_matrix().T, config.seed, l, t, range(23))
    assert _identical(np.concatenate([w for w, _ in batches]), want[0])
    assert _identical(np.concatenate([r for _, r in batches]), want[1])


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------

def test_run_monte_carlo_counts_and_rates():
    report = run_monte_carlo(_config(t_values=(0, 1, 2, 3), trials=20))
    assert len(report.cells) == 4
    for c in report.cells:
        assert c.trials == 20
        assert c.successes + c.failures + c.undetected == c.trials
        assert 0.0 <= c.p_f <= 1.0 and 0.0 <= c.p_ml <= 1.0
        assert c.p_e == pytest.approx(c.p_f + c.p_ml)
    # Weight-0 and low-weight cells decode perfectly over GF(257).
    assert report.cell(2, 0).p_e == 0.0
    assert report.cell(2, 1).p_e == 0.0


def test_run_monte_carlo_deterministic():
    a = run_monte_carlo(_config(trials=30))
    b = run_monte_carlo(_config(trials=30))
    assert a == b
    c = run_monte_carlo(_config(trials=30, seed=2))
    assert all(cell.t is not None for cell in c.cells)  # runs fine either way


def test_run_monte_carlo_decoders_agree_in_both_mode():
    # 'both' cross-checks every trial and raises on disagreement.
    report = run_monte_carlo(_config(decoder="both", trials=25, t_values=(0, 2, 4)))
    assert all(c.trials == 25 for c in report.cells)


def test_run_monte_carlo_both_mode_raises_on_a_disagreement(monkeypatch):
    decode_batch = harness._decode_batch

    def skewed(code, words, name):
        outcomes = decode_batch(code, words, name)
        if name == "mssr":
            outcomes[-1] = DecodeOutcome.fail(FailureReason.NOT_T_VALID)
        return outcomes

    monkeypatch.setattr(harness, "_decode_batch", skewed)
    with pytest.raises(DecoderMismatch):
        run_monte_carlo(_config(decoder="both", trials=5, t_values=(1,)))


def test_run_monte_carlo_both_mode_raises_on_a_real_disagreement(monkeypatch):
    # Real cpda and mssr give identical outcomes, so "both" holds the reals
    # to the rule it holds GF(p) to: any difference raises.
    decode_batch = harness._decode_batch

    def skewed(code, words, name):
        outcomes = decode_batch(code, words, name)
        if name == "mssr":
            outcomes[0] = DecodeOutcome.fail(FailureReason.NOT_T_VALID)
        return outcomes

    monkeypatch.setattr(harness, "_decode_batch", skewed)
    cfg = ExperimentConfig(field=RealField(), n=8, k=2, l_values=(2,), t_values=(1,),
                           trials=3, model="gre", alphas="pow:0.9", decoder="both")
    with pytest.raises(DecoderMismatch):
        run_monte_carlo(cfg)


@pytest.mark.parametrize("decoder", ["cpda", "mssr"])
def test_run_monte_carlo_does_not_depend_on_the_batch_size(monkeypatch, decoder):
    # Batches of one trial, of three and of a whole cell give the same report.
    cfg = _config(decoder=decoder, trials=10, t_values=(0, 2, 3))
    whole = run_monte_carlo(cfg)
    for elements in (1, 3 * _batch_elements(cfg.field, 10, 4, 2)):
        monkeypatch.setattr(harness, "_BATCH_ELEMENTS", elements)
        assert run_monte_carlo(cfg) == whole


def test_real_run_monte_carlo_does_not_depend_on_the_batch_size(monkeypatch):
    # The same over the reals, with cells inside and beyond the radius.
    cfg = ExperimentConfig(field=RealField(), n=8, k=2, l_values=(1, 6), t_values=(0, 3, 6),
                           trials=12, model="gre", alphas="pow:0.9", decoder="both", seed=2)
    whole = run_monte_carlo(cfg)
    for elements in (1, 5 * _batch_elements(cfg.field, 8, 2, 6)):
        monkeypatch.setattr(harness, "_BATCH_ELEMENTS", elements)
        assert run_monte_carlo(cfg) == whole


def test_run_monte_carlo_bounds_the_batch_arrays_of_long_codes(monkeypatch):
    # N - K = 60 with L = 1: a value solve holds 60 x 31 elements per trial,
    # a scan stack up to 930, and cpda's start 30 windows of width t_max + 1
    # = 31 and their 31 x 31 basis, where the received word holds 64, so
    # batches sized by received symbols would build arrays several times the
    # limit.
    limit = 2**14
    monkeypatch.setattr(harness, "_BATCH_ELEMENTS", limit)
    sizes = []
    reduce_batch = PrimeField._reduce_batch

    def recording(self, m, ncols):
        out = reduce_batch(self, m, ncols)
        sizes.append(max(m.size, out[0].size))
        return out

    monkeypatch.setattr(PrimeField, "_reduce_batch", recording)
    report = run_monte_carlo(_config(n=64, k=4, l_values=(1,), t_values=(29,), trials=40))
    assert report.cell(1, 29).failures < 40
    assert limit // 2 < max(sizes) <= limit


@pytest.mark.parametrize("decoder, batch", [("cpda", 6), ("mssr", 6)])
def test_run_monte_carlo_sizes_the_batch_by_the_arrays_of_its_decoder(monkeypatch, decoder,
                                                                      batch):
    # N - K = 60 with L = 2: with L <= N - K neither decoder builds the 60 x
    # 60 row basis, so under both the largest array is a value solve of 60 x
    # (t_max + L) = 60 x 42 per trial, and both batch 6 trials.  cpda's start
    # (2 x 20 windows of width 41, and their 41 x 41 basis) stays below it.
    limit = 2**14
    monkeypatch.setattr(harness, "_BATCH_ELEMENTS", limit)
    cfg = _config(n=64, k=4, l_values=(2,), t_values=(39,), trials=24, decoder=decoder)
    assert [len(w) for w, _ in harness._batches(cfg, cfg.code(), 2, 39)][0] == batch
    sizes = []
    reduce_batch = PrimeField._reduce_batch

    def recording(self, m, ncols):
        out = reduce_batch(self, m, ncols)
        sizes.append(max(m.size, out[0].size))
        return out

    monkeypatch.setattr(PrimeField, "_reduce_batch", recording)
    run_monte_carlo(cfg)
    assert 3 * limit // 4 < max(sizes) <= limit


def test_real_run_monte_carlo_bounds_the_batch_arrays_of_deep_words(monkeypatch):
    # Real words keep all L = 20 layers, more than N - K = 10: a scan stack
    # [A | -b] holds up to 20 x 30 elements per trial, where a basis of
    # min(L, N - K) rows would hold 10 x 30, and the received word 240.
    limit = 2**13
    monkeypatch.setattr(harness, "_BATCH_ELEMENTS", limit)
    sizes = []
    solve_batch = RealField._solve_batch

    def recording(self, aug, ncols):
        sizes.append(aug.size)
        return solve_batch(self, aug, ncols)

    monkeypatch.setattr(RealField, "_solve_batch", recording)
    cfg = ExperimentConfig(field=RealField(), n=12, k=2, l_values=(20,), t_values=(6,),
                           trials=30, model="gre", alphas="pow:0.9")
    assert run_monte_carlo(cfg).cell(20, 6).p_e == 0.0
    assert limit // 2 < max(sizes) <= limit


def test_run_monte_carlo_beyond_radius_always_errs():
    # t above the radius with L=1 over a tiny field: nothing decodes cleanly
    # back to the transmitted word with rate 1 - o(1); mostly failures.
    fld = PrimeField(257)
    cfg = ExperimentConfig(field=fld, n=8, k=2, l_values=(1,), t_values=(5,),
                           trials=40, model="uref", alphas="primitive", seed=3)
    report = run_monte_carlo(cfg)
    assert report.cell(1, 5).p_e == 1.0


def test_run_monte_carlo_real_field():
    cfg = ExperimentConfig(field=RealField(), n=8, k=2, l_values=(6,),
                           t_values=(0, 2, 5), trials=25, model="gre",
                           alphas="pow:0.9", seed=5)
    report = run_monte_carlo(cfg)
    for c in report.cells:
        assert c.p_e == 0.0  # all weights within the L=6 radius


def test_run_monte_carlo_real_field_calls_each_decoder_by_name(monkeypatch):
    # A real cell, like a GF(p) one, is one batch per decoder name through the
    # module's _decode_batch as it is bound when the cell runs, so a wrapper
    # installed later sees it.
    calls = []
    decode_batch = harness._decode_batch

    def counting(code, words, name):
        calls.append((name, len(words)))
        return decode_batch(code, words, name)

    monkeypatch.setattr(harness, "_decode_batch", counting)
    cfg = ExperimentConfig(field=RealField(), n=8, k=2, l_values=(6,), t_values=(2,),
                           trials=7, model="gre", alphas="pow:0.9", decoder="both")
    assert run_monte_carlo(cfg).cell(6, 2).p_e == 0.0
    assert calls == [("cpda", 7), ("mssr", 7)]


# ---------------------------------------------------------------------------
# Failure bound
# ---------------------------------------------------------------------------

def test_pf_bound_frozen_example():
    # q=2, L=1, t_max - t = 1: ((2 - 1/2)/(2 - 1)) * 2^{-2} / (2 - 1) = 0.375.
    assert t_max_of(4, 2, 1) == 1
    assert pf_bound(2, 4, 2, 1, 0) == pytest.approx(0.375)


def t_max_of(n, k, l):
    from irscollab.decoder import t_max
    return t_max(n, k, l)


def test_pf_bound_at_radius():
    # Exponent term is 1 at t = t_max; for large q^L this is about 1/(q-1).
    q, n, k, l = 257, 16, 4, 4
    tm = t_max_of(n, k, l)
    got = pf_bound(q, n, k, l, tm)
    exact = ((Fraction(q) ** l - Fraction(1, q)) / (Fraction(q) ** l - 1)) / (q - 1)
    assert got == pytest.approx(float(exact))
    assert abs(got - 1 / (q - 1)) < 1e-7


def test_pf_bound_monotone_and_clamped():
    q, n, k, l = 7, 12, 4, 3
    tm = t_max_of(n, k, l)
    vals = [pf_bound(q, n, k, l, t) for t in range(tm + 1)]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    assert all(0.0 <= v <= 1.0 for v in vals)
    # q=2, L=1, t=t_max gives 1.5 before clamping.
    assert pf_bound(2, 4, 2, 1, 1) == 1.0


def test_pf_bound_validation():
    with pytest.raises(InvalidParameters):
        pf_bound(1, 8, 2, 1, 0)
    with pytest.raises(InvalidParameters):
        pf_bound(7, 8, 2, 1, t_max_of(8, 2, 1) + 1)


# ---------------------------------------------------------------------------
# Conditioning study
# ---------------------------------------------------------------------------

def test_condnum_study_t1_is_exactly_one():
    cfg = ExperimentConfig(field=RealField(), n=8, k=2, l_values=(1, 3),
                           t_values=(1,), trials=10, model="gre",
                           alphas="pow:0.9", seed=0)
    report = condnum_study(cfg)
    for c in report.cells:
        assert c.mean_cond == pytest.approx(1.0)


def test_condnum_study_decreases_with_l():
    cfg = ExperimentConfig(field=RealField(), n=8, k=2, l_values=(1, 2, 3),
                           t_values=(2,), trials=50, model="gre",
                           alphas="pow:0.9", seed=0)
    report = condnum_study(cfg)
    conds = [report.cell(l, 2).mean_cond for l in (1, 2, 3)]
    assert conds[0] > conds[1] > conds[2]


def test_condnum_study_rejects_bad_configs():
    with pytest.raises(InvalidParameters):
        condnum_study(_config())  # finite field
    cfg = ExperimentConfig(field=RealField(), n=8, k=2, l_values=(1,),
                           t_values=(4,), trials=5, model="gre",
                           alphas="pow:0.9")
    with pytest.raises(InvalidParameters):
        condnum_study(cfg)  # t=4 > t_max(8,2,1)=3


# ---------------------------------------------------------------------------
# End-to-end demo
# ---------------------------------------------------------------------------

def _demo_params(fld, workers):
    xs = make_alphas(fld, workers, "primitive" if isinstance(fld, PrimeField) else "pow:0.9")
    return PolyCodeParams(field=fld, m=2, n=2, num_workers=workers, xs=xs)


@pytest.mark.parametrize("field, xs", [
    (PrimeField(7), [0, 1, 2, 3, 4, 5]),
    (RealField(), [0.0, 0.9, 0.81, 0.729, 0.6561, 0.59049]),
])
def test_demo_matmul_params_refuse_a_zero_point(field, xs):
    # The decoders invert every point, so a zero point is refused when the
    # parameters are built, not when a clean word reaches the decoder.
    with pytest.raises(InvalidParameters, match="points must be nonzero"):
        demo_matmul(PolyCodeParams(field=field, m=1, n=2, num_workers=6, xs=xs), 0)


def test_demo_matmul_no_errors_exact():
    report = demo_matmul(_demo_params(PrimeField(257), 8), t=0, seed=42)
    assert report.success and report.max_rel_error == 0.0


def test_demo_matmul_gf_with_errors():
    params = _demo_params(PrimeField(257), 12)
    for seed in range(5):
        report = demo_matmul(params, t=4, seed=seed)
        assert report.success and report.max_rel_error == 0.0


def test_demo_matmul_real_with_errors():
    fld = RealField()
    xs = make_alphas(fld, 8, "pow:0.9")
    params = PolyCodeParams(field=fld, m=2, n=1, num_workers=8, xs=xs)
    report = demo_matmul(params, t=3, seed=7)
    assert report.success
    assert report.max_rel_error <= 1e-6


def test_demo_matmul_reports_a_word_the_interpolation_rejects():
    # 24 real points on pow:0.9: the decoder certifies the word, but its
    # interpolation misses the residual tolerance (conditioning, not a
    # decoding impasse); the demo reports it instead of raising.
    fld = RealField()
    params = PolyCodeParams(field=fld, m=2, n=2, num_workers=24,
                            xs=make_alphas(fld, 24, "pow:0.9"))
    report = demo_matmul(params, t=2, seed=1)
    assert not report.success and report.reason == "not_a_codeword"
    assert report.max_rel_error is None and (report.t, report.num_workers) == (2, 24)


@pytest.mark.parametrize("seed", [-1, 2.0, True, "3"])
def test_demo_matmul_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    message = rf"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(InvalidParameters, match=message):
        demo_matmul(_demo_params(PrimeField(257), 12), t=1, seed=seed)


def test_demo_matmul_takes_numpy_integer_seeds():
    params = _demo_params(PrimeField(257), 12)
    assert demo_matmul(params, t=1, seed=np.uint64(3)) == demo_matmul(params, t=1, seed=3)


def test_cli_demo_matmul_refuses_a_negative_seed(capsys):
    rc = main(["demo-matmul", "--field", "gf:257", "--m", "2", "--nblocks", "2",
               "--workers", "12", "--t", "1", "--seed", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be an integer >= 0, got -1\n"


def test_demo_matmul_rejects_t_beyond_radius():
    params = _demo_params(PrimeField(257), 8)
    with pytest.raises(InvalidParameters):
        demo_matmul(params, t=4, seed=0)  # t_max(8, 4, 4) = 3


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_emit_csv_layout_and_roundtrip(tmp_path):
    cells = (CellStats(t=2, l=1, trials=100, failures=3, undetected=1),
             CellStats(t=1, l=1, trials=100, failures=0, undetected=0),
             CellStats(t=1, l=2, trials=100, failures=0, undetected=0,
                       mean_cond=123.5))
    report = Report(cells=cells)
    # Rows are ordered by (L, t) no matter the construction order.
    assert [(c.l, c.t) for c in report.cells] == [(1, 1), (1, 2), (2, 1)]
    path = tmp_path / "out.csv"
    emit_csv(report, path)
    text = path.read_text()
    assert text.startswith("#")  # cond comment present when measured
    header = text.splitlines()[1]
    assert header == "t,L,trials,failures,undetected,p_f,p_ml,p_e,mean_cond"
    again = load_csv(path)
    assert again == report


def test_emit_csv_empty_report(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(Report(cells=()), path)
    lines = path.read_text().splitlines()
    assert lines == ["t,L,trials,failures,undetected,p_f,p_ml,p_e,mean_cond"]
    assert load_csv(path) == Report(cells=())


@pytest.mark.parametrize("row", [
    "1,1,10,0",  # too few fields
    "1,1,10,0,0,0.0,0.0,0.0,,7",  # too many fields
    "1,1,ten,0,0,0.0,0.0,0.0,",  # a count that is not an integer
    "1,1,10,0.5,0,0.05,0.0,0.05,",
    "1,1,0,0,0,0.0,0.0,0.0,",  # no trials
    "1,1,10,-1,0,0.0,0.0,0.0,",
    "1,1,10,6,5,0.6,0.5,1.1,",  # more errors than trials
])
def test_load_csv_rejects_a_malformed_row_by_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text("# note\nt,L,trials,failures,undetected,p_f,p_ml,p_e,mean_cond\n"
                    f"1,1,10,0,0,0.0,0.0,0.0,\n{row}\n")
    with pytest.raises(InvalidParameters, match="line 4"):
        load_csv(path)


def test_csv_byte_identical_reproduction(tmp_path):
    cfg = _config(trials=40, t_values=(0, 1, 3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_monte_carlo(cfg), p1)
    emit_csv(run_monte_carlo(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--field", "gf:257", "--n", "10", "--k", "4",
               "--l", "2", "--t", "0:2", "--trials", "10",
               "--alphas", "primitive",
               "--decoder", "cpda", "--seed", "1", "--out", str(out)])
    assert rc == 0
    report = load_csv(out)
    assert [(c.l, c.t) for c in report.cells] == [(2, 0), (2, 1), (2, 2)]
    assert "p_f" in capsys.readouterr().out


GOLDEN = Path(__file__).parent / "data"
GOLDEN_RUNS = {
    "gf257_n16_k4_l4_t7-9_cpda_seed3.csv":
        ["--field", "gf:257", "--n", "16", "--k", "4", "--l", "4", "--t", "7:9",
         "--trials", "400", "--decoder", "cpda", "--seed", "3"],
    "gf257_n16_k4_l4_t7-9_mssr_seed3.csv":
        ["--field", "gf:257", "--n", "16", "--k", "4", "--l", "4", "--t", "7:9",
         "--trials", "400", "--decoder", "mssr", "--seed", "3"],
    "gf17_n16_k4_l64_t10-12_mssr_seed3.csv":
        ["--field", "gf:17", "--n", "16", "--k", "4", "--l", "64", "--t", "10:12",
         "--trials", "100", "--decoder", "mssr", "--seed", "3"],
    "real_n8_k2_l6_t3-6_pow0.9_mssr_seed3.csv":
        ["--field", "real", "--n", "8", "--k", "2", "--l", "6", "--t", "3:6",
         "--trials", "300", "--alphas", "pow:0.9", "--decoder", "mssr", "--seed", "3"],
}
GOLDEN_CONDNUM = ("real_n8_k2_l2-4_t1-4_pow0.9_condnum_seed3.csv",
                  ["--n", "8", "--k", "2", "--l", "2:4", "--t", "1:4", "--trials", "200",
                   "--alphas", "pow:0.9", "--seed", "3"])


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_simulate_reproduces_golden_csv(tmp_path, capsys, name):
    # The committed files were written by an earlier release; a seeded run
    # must reproduce them byte for byte.
    out = tmp_path / name
    assert main(["simulate", *GOLDEN_RUNS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_cli_condnum_reproduces_golden_csv(tmp_path, capsys):
    name, args = GOLDEN_CONDNUM
    out = tmp_path / name
    assert main(["condnum", *args, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv, rule", [
    (["simulate", "--field", "real", "--n", "8", "--k", "2", "--l", "2", "--t", "1:2",
      "--trials", "20"], "pow:0.9"),
    (["simulate", "--field", "gf:257", "--n", "8", "--k", "2", "--l", "2", "--t", "1:2",
      "--trials", "20"], "primitive"),
    (["condnum", "--n", "8", "--k", "2", "--l", "2", "--t", "1:2", "--trials", "20"], "pow:0.9"),
], ids=["simulate-real", "simulate-gf257", "condnum"])
def test_cli_default_points_are_the_fields_rule(capsys, argv, rule):
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--alphas", rule]) == 0
    assert capsys.readouterr().out == default


def test_cli_simulate_rejects_bad_params(capsys):
    rc = main(["simulate", "--field", "gf:10", "--n", "8", "--k", "2",
               "--l", "1", "--t", "1", "--trials", "5"])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    rc = main(["simulate", "--field", "gf:257", "--n", "8", "--k", "8",
               "--l", "1", "--t", "1", "--trials", "5"])
    assert rc == 2


@pytest.mark.parametrize("opts, message", [
    (["--field", "gf:abc"], "error: field must be 'real' or 'gf:<p>', got 'gf:abc'"),
    (["--field", "gf:257", "--alphas", "pow:abc"], "error: bad alpha rule 'pow:abc'"),
    (["--field", "real", "--alphas", "pow:abc"], "error: bad alpha rule 'pow:abc'"),
    (["--field", "gf:257", "--alphas", "pow:2.5"], "error: bad alpha rule 'pow:2.5'"),
    (["--field", "gf:7", "--alphas", "primitive"], "error: need n <= p - 1 = 6"),
])
def test_cli_simulate_rejects_malformed_rules(capsys, opts, message):
    rc = main(["simulate", *opts, "--n", "8", "--k", "2", "--l", "1", "--t", "1",
               "--trials", "5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)


def test_cli_bound(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    rc = main(["bound", "--q", "257", "--n", "16", "--k", "4", "--l", "4",
               "--t", "7:9", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,L,q,n,k,pf_bound"
    assert len(lines) == 4
    t7 = float(lines[1].split(",")[-1])
    assert t7 == pytest.approx(pf_bound(257, 16, 4, 4, 7))
    rc = main(["bound", "--q", "257", "--n", "16", "--k", "4", "--l", "4",
               "--t", "10"])
    assert rc == 2  # beyond t_max = 9


@pytest.mark.parametrize("argv", [
    ["simulate", "--field", "gf:257", "--n", "8", "--k", "2", "--l", "2", "--t", "1",
     "--trials", "3"],
    ["condnum", "--n", "8", "--k", "2", "--l", "1", "--t", "1", "--trials", "3"],
    ["bound", "--q", "257", "--n", "16", "--k", "4", "--l", "4", "--t", "7:9"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_out_path_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, study", [
    (["simulate", "--field", "gf:257", "--n", "16", "--k", "4", "--l", "4", "--t", "7:9",
      "--trials", "50"], "run_monte_carlo"),
    (["condnum", "--n", "8", "--k", "2", "--l", "1", "--t", "1", "--trials", "3"],
     "condnum_study"),
], ids=lambda v: v if isinstance(v, str) else v[0])
@pytest.mark.parametrize("where", ["missing dir", "a dir"])
def test_cli_unwritable_out_path_is_found_before_the_study(tmp_path, capsys, monkeypatch,
                                                           argv, study, where):
    def never(config):
        raise AssertionError("the study ran")

    monkeypatch.setattr(f"irscollab.cli.{study}", never)
    out = tmp_path / "missing" / "x.csv" if where == "missing dir" else tmp_path
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--field", "gf:257", "--n", "8", "--k", "2", "--l", "1", "--t", "1",
     "--trials", "3", "--alphas", "pow:abc"],  # the config checks the rule
    ["condnum", "--n", "8", "--k", "2", "--l", "1", "--t", "5", "--trials", "3"],  # t_max = 3
], ids=lambda argv: argv[0])
def test_cli_out_is_left_alone_when_the_study_refuses_a_parameter(tmp_path, capsys, argv):
    existing, fresh = tmp_path / "old.csv", tmp_path / "new.csv"
    existing.write_text("keep\n")
    for out in (existing, fresh):
        assert main([*argv, "--out", str(out)]) == 2
    assert existing.read_text() == "keep\n" and not fresh.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_condnum(tmp_path):
    out = tmp_path / "cond.csv"
    rc = main(["condnum", "--n", "8", "--k", "2", "--l", "1:2", "--t", "1:2",
               "--trials", "5", "--alphas", "pow:0.9", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    report = load_csv(out)
    assert [(c.l, c.t) for c in report.cells] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert report.cell(1, 1).mean_cond == pytest.approx(1.0)


def test_cli_demo_matmul_success(capsys):
    rc = main(["demo-matmul", "--field", "gf:257", "--m", "2", "--nblocks", "2",
               "--workers", "12", "--t", "4", "--seed", "0"])
    assert rc == 0
    assert "recovered" in capsys.readouterr().out


def test_cli_demo_matmul_invalid(capsys):
    rc = main(["demo-matmul", "--field", "gf:257", "--m", "2", "--nblocks", "2",
               "--workers", "12", "--t", "7", "--seed", "0"])
    assert rc == 2  # t beyond the decoding radius


def test_cli_demo_matmul_rejected_interpolation_exits_3(capsys):
    rc = main(["demo-matmul", "--field", "real", "--m", "2", "--nblocks", "2",
               "--workers", "24", "--t", "2", "--seed", "1"])
    assert rc == 3
    assert capsys.readouterr().out == (
        "decode failed with 2 faulty workers of 24: not_a_codeword\n")


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "irscollab.cli", "bound", "--q", "2", "--n", "4",
         "--k", "2", "--l", "1", "--t", "0:1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pf_bound" in proc.stdout
