"""Unconstrained complex least squares: closed form vs. fixed-step descent.

Draws a random instance at the default experiment scale (H is 10x5, A is
10x8, components uniform in [-10, 10]), solves the normal equations
directly, then runs gradient descent at several fractions of the
guaranteed step interval (0, 2/L) and checks the per-iteration descent
bound along each trace.
"""

import numpy as np

from cmop import (
    SolverConfig,
    closed_form_unconstrained,
    evaluate,
    frob_norm,
    gd_solve,
    gen_instance,
    gradient,
    instance_from_document,
    monitor_thm2,
    precompute,
)

inst = instance_from_document(gen_instance(seed=7))
pre = precompute(inst)
print(f"instance: H {inst.m}x{inst.n}, A {inst.m}x{inst.k}")
print(f"smoothness constant L = lambda_max(H^H H) = {pre.lipschitz:.2f} "
      "(dense Hermitian eigensolve)")

w_star = closed_form_unconstrained(pre)
f_star = evaluate(pre, inst, w_star)
print(f"\nclosed form: objective {f_star:.6f}, "
      f"gradient norm {frob_norm(gradient(pre, w_star)):.2e}")

w0 = np.zeros((inst.n, inst.k), dtype=complex)
print("\nfixed-step descent, stopping when the per-step decrease falls below 1e-12:")
print(f"{'step':>12} {'iterations':>10} {'final objective':>18} {'dist to W*':>12} {'bound ok':>9}")
for frac in (0.25, 0.5, 0.95):
    alpha = frac * 2.0 / pre.lipschitz
    res = gd_solve(pre, inst, w0, SolverConfig(alpha=alpha, tau=1e-12))
    rel = frob_norm(res.w_final - w_star) / frob_norm(w_star)
    bound = monitor_thm2(res.trace, alpha, pre.lipschitz)
    print(f"{alpha:12.6f} {res.iterations:10d} {res.objective:18.10f} "
          f"{rel:12.2e} {'yes' if bound.passed else 'NO':>9}")

print("\nevery trace satisfies decrease >= alpha (1 - alpha L / 2) ||grad||^2, "
      "and larger steps inside the interval converge in fewer iterations.")
