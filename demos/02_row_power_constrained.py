"""Row-power-constrained least squares: projected descent, the exact dual
solution, the optimality certificate, and the real-stacked mirror.

The feasible set caps every row of W at squared norm eta. Projected
gradient descent with a step inside (0, 1/L) converges to the constrained
optimum; the dual oracle provides an independent exact answer,
and the multiplier-recovery check certifies the iterate. The same
iteration carried out on stacked real/imaginary parts reproduces the
complex iterates to the last bits.
"""

import numpy as np

from cmop import (
    RowBall,
    SolverConfig,
    active_set_oracle,
    gen_instance,
    instance_from_document,
    kkt_check,
    pgd_solve,
    precompute,
    real_augmented_pgd,
    row_sq_norms,
)

inst = instance_from_document(gen_instance(seed=11, eta=2.0))
pre = precompute(inst)
ball = RowBall.for_power_budget(inst.eta)
w0 = np.zeros((inst.n, inst.k), dtype=complex)

cfg = SolverConfig(alpha=0.9 / pre.lipschitz, tau=1e-14, max_iter=200_000,
                   record_iterates=True)
res = pgd_solve(pre, inst, w0, ball, cfg)
print(f"projected descent: {res.iterations} iterations, objective {res.objective:.8f}")
print(f"row squared norms (budget {inst.eta}): {np.round(row_sq_norms(res.w_final), 6)}")

orc = active_set_oracle(pre, inst)
gap = abs(res.objective - orc.objective) / orc.objective
print(f"\ndual oracle ({orc.iterations} factorizations): objective {orc.objective:.8f} "
      f"(relative gap to the iterative run {gap:.1e})")

rep = kkt_check(pre, inst, res.w_final)
print("\noptimality certificate for the projected-descent iterate:")
print(f"  stationarity residual  {rep.stationarity_residual:.2e}")
print(f"  primal violation       {rep.primal_violation:.2e}")
print(f"  dual violation         {rep.dual_violation:.2e}")
print(f"  complementarity        {rep.complementarity:.2e}")
print(f"  recovered multipliers  {np.round(rep.lambda_hat, 6)}")
print(f"  passed: {rep.passed}")

mirror = real_augmented_pgd(pre, inst, w0, ball, cfg)
shared = min(len(res.iterates), len(mirror.iterates))
worst = max(
    float(np.max(np.abs(wa - wb)))
    for wa, wb in zip(res.iterates[:shared], mirror.iterates[:shared])
)
print(f"\nreal-stacked mirror of the same iteration: worst entrywise gap "
      f"over {shared - 1} shared iterations = {worst:.2e}")
