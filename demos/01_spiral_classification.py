# Classifying logarithmic spirals by contraction strength
# ========================================================
#
# The family gamma_lam(u) = e^{-lam u} (cos u, sin u) changes character at a
# critical decay rate lam0 solving lam = e^{-3 pi lam / 2}: below it the
# spiral re-approaches points it already passed (not self-contracted), at the
# threshold it is self-contracted but only weakly, and above it the inner
# product <gamma'(t), gamma(s) - gamma(t)> admits a uniform positive lower
# bound after normalizing by s - t.
#
# This demo computes lam0, then classifies truncated spirals on both sides.

import os

import numpy as np

import contractflow as cf

lam0 = cf.log_spiral_critical_lambda()
print(f"critical decay rate lam0 = {lam0:.6f}")
print(f"residual of lam - e^(-3 pi lam / 2): "
      f"{abs(lam0 - np.exp(-1.5 * np.pi * lam0)):.2e}")
print()

# Two full turns of each spiral, resampled to 400 arc-length samples.
# classify checks that the tangents are the points' derivative, then runs
# the pairwise scan, as the CLI does; it scores no metric triples.
T_MAX = 4 * np.pi
N = 400

print(f"{'lambda':>10} {'length':>8} {'worst pair value':>17} {'level':>22} {'c0':>7}")
for lam in (0.10, lam0 - 0.15, lam0, lam0 + 0.15, 0.50):
    spiral = cf.make_log_spiral(lam, T_MAX, N)
    report = cf.classify(spiral)
    print(f"{lam:>10.4f} {spiral.length:>8.4f} {report.worst_pair[2]:>17.6f} "
          f"{report.level.value:>22} {report.c0:>7.4f}")

# The worst normalized pair value grows monotonically with lambda: tighter
# spirals contract harder. Below lam0 it is negative, which is exactly a
# witness pair (t, s) where the tangent points away from the chord.
print()
below = cf.make_log_spiral(lam0 - 0.15, T_MAX, N)
rep = cf.check_strong(below)
t, s, val = rep.worst_pair
print(f"witness for lambda = {lam0 - 0.15:.4f}: t = {t:.4f}, s = {s:.4f}, "
      f"normalized inner product = {val:.4f}")

# The metric (triple) formulation agrees: some later point ends up farther
# from a reference point than an earlier one. The check visits every triple
# t1 < t2 < t3 of the 400 samples, and the witness is the worst of them.
metric = cf.check_self_contracted_metric(below)
t1, t2, t3, slack = metric.worst_triple
print(f"metric witness: t1 = {t1:.3f} < t2 = {t2:.3f} < t3 = {t3:.3f}, "
      f"distance slack = {slack:.4f} (negative = violation)")

# Export the two-sided examples for plotting.
os.makedirs("demo_output", exist_ok=True)
for lam, tag in ((lam0 - 0.15, "below"), (lam0 + 0.15, "above")):
    cf.curve.save_csv(cf.make_log_spiral(lam, T_MAX, N),
                      f"demo_output/spiral_{tag}.csv")
print("\nwrote demo_output/spiral_below.csv and demo_output/spiral_above.csv")
