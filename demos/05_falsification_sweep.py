# Randomized falsification sweep
# ==============================
#
# Every function here is a theorem-certified passer: f = a0 exp(h) has no
# zeros, so the minimum chain must hold at its located minimum, and the
# maximum chain must hold for 1/f.  A single failing trial would falsify
# the implementation (search accuracy, derivative formulas, or report
# plumbing), not the mathematics.  Randomness is derived per-trial from
# (seed, index).  Each trial takes one disk search, for the minimum of f;
# since |1/f| = 1/|f| that point is also the maximum of 1/f, so both
# chains are checked there, and the duality gap compares the two chains
# at one point.  The sweep runs those searches in batches, every trial's
# minimum in one vector search; a trial's result does not depend on its
# batch, so run_trial replays any trial of a sweep exactly, failures
# included.

from diskextrema import draw_trial, run_sweep, run_trial

summary = run_sweep(trials=50, seed=2026)
print(f"trials: {summary.trials}, failures: {summary.failures}")
print(f"max duality gap |m_min - m_max(1/f)|: {summary.max_duality_gap:.2e}")
print("worst link margins across all trials:")
for name, margin in summary.worst_margins.items():
    print(f"  {name:<16} {margin:.3e}")

# Replay one trial by hand.
params = draw_trial(2026, 17)
print(f"\ntrial 17 draws: a0 = {params.a0:.4f}, n = {params.n}, r = {params.r:.4f}, "
      f"exponent degree {params.exponent.order}")
outcome = run_trial(2026, 17)
print(f"min-chain m = {outcome.min_report.m:.12f}, "
      f"max-chain m = {outcome.max_report.m:.12f}")
print(f"duality gap = {outcome.duality_gap:.2e}, passed = {outcome.passed}")
