"""Acceptance suite: one test per top-level acceptance criterion.

Each test drives the library end to end at the stated parameters and
tolerances; `pytest -v` then prints one pass/fail line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import classical_code
from irscollab.decoder import cpda_decode, layer_syndromes, mssr_decode, outcomes_equal, t_max
from irscollab.errmodel import ErrorModelSpec, inject, sample_error
from irscollab.field import PrimeField, RealField
from irscollab.grs import encode, make_grs
from irscollab.harness import (
    ExperimentConfig,
    condnum_study,
    demo_matmul,
    emit_csv,
    make_alphas,
    pf_bound,
    run_monte_carlo,
)
from irscollab.polycode import (
    PolyCodeParams,
    assemble_irs,
    encode_tasks,
    worker_compute,
)


def _report(name, detail):
    print(f"PASS {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. Hard 0/1 error-rate thresholds, N=8, K=2, alpha_i = 0.9^i
# ---------------------------------------------------------------------------

def test_criterion_1_hard_error_rate_thresholds_n8():
    start = time.monotonic()
    cfg = ExperimentConfig(field=RealField(), n=8, k=2, l_values=(1, 6),
                           t_values=(1, 2, 3, 4, 5, 6), trials=2000,
                           model="gre", alphas="pow:0.9", seed=0)
    rep = run_monte_carlo(cfg)
    for t in (1, 2, 3, 4, 5):
        assert rep.cell(6, t).p_e == 0.0, f"L=6, t={t}: expected P_e = 0"
    assert rep.cell(6, 6).p_e == 1.0, "L=6, t=6: expected P_e = 1"
    for t in (1, 2, 3):
        assert rep.cell(1, t).p_e == 0.0, f"L=1, t={t}: expected P_e = 0"
    for t in (4, 5, 6):
        assert rep.cell(1, t).p_e == 1.0, f"L=1, t={t}: expected P_e = 1"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"runtime target 2 min exceeded: {elapsed:.1f}s"
    _report("criterion 1", f"12 cells x 2000 trials, exact 0/1 pattern, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Error rates for N=20, K=12, alpha_i = i
# ---------------------------------------------------------------------------

def test_criterion_2_error_rates_n20():
    start = time.monotonic()
    common = dict(field=RealField(), n=20, k=12, trials=2000, model="gre",
                  alphas="linear", seed=0)
    rep20 = run_monte_carlo(ExperimentConfig(
        l_values=(20,), t_values=tuple(range(1, 8)), **common))
    for t in range(1, 8):
        assert rep20.cell(20, t).p_e == 0.0, f"L=20, t={t}: expected P_e = 0"
    rep2 = run_monte_carlo(ExperimentConfig(
        l_values=(2,), t_values=tuple(range(1, 6)), **common))
    for t in range(1, 6):
        assert rep2.cell(2, t).p_e == 0.0, f"L=2, t={t}: expected P_e = 0"
    rep1 = run_monte_carlo(ExperimentConfig(
        l_values=(1,), t_values=(4,), **common))
    p_e_14 = rep1.cell(1, 4).p_e
    assert p_e_14 <= 0.005, f"L=1, t=4: P_e = {p_e_14} > 0.005"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"runtime target 10 min exceeded: {elapsed:.1f}s"
    _report("criterion 2",
            f"L=20 zero through t=7, L=2 zero through t=5, "
            f"L=1 P_e(4)={p_e_14:.4f} <= 0.005, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Finite-field failure bound, GF(257), N=16, K=4, L=4
# ---------------------------------------------------------------------------

def test_criterion_3_failure_bound_gf257():
    q, n, k, l, trials = 257, 16, 4, 4, 5000
    assert t_max(n, k, l) == 9
    cfg = ExperimentConfig(field=PrimeField(q), n=n, k=k, l_values=(l,),
                           t_values=(7, 8, 9), trials=trials, model="uref",
                           alphas="primitive", seed=0)
    rep = run_monte_carlo(cfg)
    details = []
    for t in (7, 8, 9):
        cell = rep.cell(l, t)
        bound = pf_bound(q, n, k, l, t)
        limit = bound + 3 * math.sqrt(bound * (1 - bound) / trials) + 1 / trials
        assert cell.p_f <= limit, f"t={t}: P_F={cell.p_f} exceeds {limit}"
        assert cell.undetected == 0, f"t={t}: expected P_ML = 0"
        details.append(f"t={t} P_F={cell.p_f:.5f}<=bound+3s+1/M={limit:.5f}")
    _report("criterion 3", "; ".join(details) + "; P_ML = 0 throughout")


# ---------------------------------------------------------------------------
# 4. Exhaustive correction inside the classical radius
# ---------------------------------------------------------------------------

def test_criterion_4_classical_radius_exhaustive():
    fld = PrimeField(7)
    code = classical_code(fld, 6, 1)
    word = np.stack([encode(code, np.array([3])), encode(code, np.array([5]))])
    columns = [np.array([x, y]) for x in range(7) for y in range(7)
               if (x, y) != (0, 0)]
    decoded = 0

    def check(e, support):
        nonlocal decoded
        out = cpda_decode(code, fld.add(word, e))
        assert out.success and out.locations == support
        assert np.array_equal(out.corrected, word)
        decoded += 1

    check(fld.zeros((2, 6)), ())
    for j in range(6):
        for col in columns:
            e = fld.zeros((2, 6))
            e[:, j] = col
            check(e, (j,))
    for i, j in itertools.combinations(range(6), 2):
        for ci in columns:
            e_base = fld.zeros((2, 6))
            e_base[:, i] = ci
            for cj in columns:
                e = e_base.copy()
                e[:, j] = cj
                check(e, (i, j))
    assert decoded == 1 + 6 * 48 + 15 * 48 * 48
    _report("criterion 4", f"{decoded} exhaustive weight<=2 patterns, 100% corrected")


# ---------------------------------------------------------------------------
# 5. Decoder equivalence on random instances
# ---------------------------------------------------------------------------

def test_criterion_5_decoder_equivalence_gf257():
    fld = PrimeField(257)
    n, k = 12, 4
    code = make_grs(fld, n, k, make_alphas(fld, n, "primitive"))
    enc = code.encoding_matrix().T
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        l = int(rng.integers(1, 5))
        tm = t_max(n, k, l)
        t = int(rng.integers(0, tm + 1))
        word = fld.matmul(fld.rand_elements(rng, (l, k)), enc)
        received = word
        if t:
            err = sample_error(ErrorModelSpec(kind="uref", t=t), fld, l, n, rng)
            received = inject(word, err.e, fld)
        a = cpda_decode(code, received)
        b = mssr_decode(code, received)
        assert outcomes_equal(fld, a, b), f"trial {trial}: outcomes differ"
    _report("criterion 5", "1000 mixed-weight instances, cpda == mssr exactly")


# ---------------------------------------------------------------------------
# 6. Maximum-likelihood certificate against brute force
# ---------------------------------------------------------------------------

def test_criterion_6_ml_certificate_brute_force():
    fld = PrimeField(7)
    code = classical_code(fld, 6, 1)
    singles = [encode(code, np.array([m0])) for m0 in range(7)]
    table = [np.stack([singles[i], singles[j]])
             for i in range(7) for j in range(7)]
    rng = np.random.default_rng(99)
    enc = code.encoding_matrix().T
    successes = 0
    for trial in range(500):
        t = int(rng.integers(0, 4))
        word = fld.matmul(fld.rand_elements(rng, (2, 1)), enc)
        received = word
        if t:
            err = sample_error(ErrorModelSpec(kind="uref", t=t), fld, 2, 6, rng)
            received = inject(word, err.e, fld)
        out = cpda_decode(code, received)
        if out.success:
            successes += 1
            dists = np.array([int(np.sum(np.any(received != c, axis=0)))
                              for c in table])
            d_out = int(np.sum(np.any(received != out.corrected, axis=0)))
            assert d_out == dists.min(), f"trial {trial}: not nearest"
    assert successes > 0
    _report("criterion 6",
            f"{successes}/500 successes, every one at brute-force minimal distance")


# ---------------------------------------------------------------------------
# 7. Conditioning of the stacked system
# ---------------------------------------------------------------------------

def test_criterion_7_conditioning_trend():
    cfg = ExperimentConfig(field=RealField(), n=8, k=2,
                           l_values=(1, 2, 3, 4, 5), t_values=(2, 3),
                           trials=500, model="gre", alphas="pow:0.9",
                           seed=0)
    rep = condnum_study(cfg)
    anchors = {(1, 3): 4.06e13, (3, 3): 7.73e6}
    for (l, t), ref in anchors.items():
        got = rep.cell(l, t).mean_cond
        assert ref / 100 <= got <= ref * 100, \
            f"L={l}, t={t}: mean cond {got:.3e} not within x100 of {ref:.3e}"
    for t in (2, 3):
        conds = [rep.cell(l, t).mean_cond for l in (1, 2, 3, 4, 5)]
        assert all(conds[i] > conds[i + 1] for i in range(4)), \
            f"t={t}: means {conds} not strictly decreasing in L"
    c13, c33 = rep.cell(1, 3).mean_cond, rep.cell(3, 3).mean_cond
    _report("criterion 7",
            f"mean cond (L=1,t=3)={c13:.3e}, (L=3,t=3)={c33:.3e}, "
            "strictly decreasing in L at t=2,3")


# ---------------------------------------------------------------------------
# 8. End-to-end coded matmul
# ---------------------------------------------------------------------------

def test_criterion_8_end_to_end_matmul():
    fld = PrimeField(257)
    params = PolyCodeParams(field=fld, m=2, n=2, num_workers=12,
                            xs=make_alphas(fld, 12, "primitive"))
    tm = t_max(12, 4, 4)
    assert tm == 6
    exact = 0
    for seed in range(200):
        rep = demo_matmul(params, tm, seed)
        exact += rep.success and rep.max_rel_error == 0.0
    assert exact >= 198, f"only {exact}/200 exact recoveries at t=t_max"

    rfld = RealField()
    rparams = PolyCodeParams(field=rfld, m=2, n=1, num_workers=8,
                             xs=make_alphas(rfld, 8, "pow:0.9"))
    good = 0
    worst = 0.0
    for seed in range(200):
        rep = demo_matmul(rparams, 3, seed)
        if rep.success and rep.max_rel_error <= 1e-6:
            good += 1
            worst = max(worst, rep.max_rel_error)
    assert good >= 198, f"only {good}/200 real-field recoveries within 1e-6"
    _report("criterion 8",
            f"GF(257) {exact}/200 exact at t=6; real {good}/200 within 1e-6 "
            f"(worst {worst:.2e})")


# ---------------------------------------------------------------------------
# 9. Module property suites (compact re-run of the key invariants)
# ---------------------------------------------------------------------------

def test_criterion_9_module_property_suites(tmp_path):
    rng = np.random.default_rng(7)

    # Field axioms over GF(257).
    fld = PrimeField(257)
    a, b, c = (fld.rand_elements(rng, 500) for _ in range(3))
    assert np.array_equal(fld.add(fld.add(a, b), c), fld.add(a, fld.add(b, c)))
    assert np.array_equal(fld.mul(a, fld.add(b, c)),
                          fld.add(fld.mul(a, b), fld.mul(a, c)))
    nz = a[a != 0]
    assert np.all(fld.mul(nz, fld.inv(nz)) == 1)

    # GRS duality: syndromes of codewords vanish, both fields.
    code = classical_code(fld, 12, 5)
    for _ in range(50):
        c = encode(code, fld.rand_elements(rng, 5))
        assert not layer_syndromes(code, c[None]).values.any()
    rfld = RealField()
    rcode = make_grs(rfld, 8, 3, make_alphas(rfld, 8, "pow:0.9"))
    for _ in range(50):
        synd = layer_syndromes(rcode, encode(rcode, rng.standard_normal(3))[None])
        assert np.all(rfld.is_zero(synd.values, scale=synd.scale))

    # Exponent layout (1, m): degrees j + k*m sweep 0..mn-1 bijectively.
    for m, n in itertools.product(range(1, 5), range(1, 5)):
        degs = sorted(j + k * m for j in range(m) for k in range(n))
        assert degs == list(range(m * n))

    # Worker-output rows are codewords of the assembled interleaved word.
    params = PolyCodeParams(field=fld, m=2, n=2, num_workers=10,
                            xs=make_alphas(fld, 10, "primitive"))
    a_mat = fld.rand_elements(rng, (4, 4))
    b_mat = fld.rand_elements(rng, (4, 4))
    word = assemble_irs(params, [worker_compute(task)
                                 for task in encode_tasks(params, a_mat, b_mat)])
    assert not layer_syndromes(word.code, word.d).values.any()

    # Hamming weight of sampled errors equals the requested t.
    for t in (0, 1, 3, 6):
        err = sample_error(ErrorModelSpec(kind="uref", t=t), fld, 3, 10, rng)
        assert np.count_nonzero(err.e.any(axis=0)) == t

    # Seed determinism: identical config gives byte-identical CSV.
    cfg = ExperimentConfig(field=fld, n=10, k=4, l_values=(2,),
                           t_values=(0, 2, 4), trials=50, model="uref",
                           alphas="primitive", seed=11)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_csv(run_monte_carlo(cfg), p1)
    emit_csv(run_monte_carlo(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()

    _report("criterion 9", "field axioms, duality, exponent layout, row-codeword, "
                           "weight, and determinism properties hold")
