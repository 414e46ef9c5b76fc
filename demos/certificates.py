"""Anatomy of a convergence certificate.

Under a Gaussian prior the stepsize recursion runs on its own, so its fixed
point can be computed before touching any data.  Freezing the stepsizes
there turns one solver sweep into a linear map whose eigenvalues come in
closed form: per squared singular value lam_i^2,

    beta_i = tau_x lam_i^2 / (tau_x lam_i^2 + sigma2),
    eta^2 - alpha eta + alpha beta_i = 0,      alpha = mean of padded betas.

This script walks through the pieces, cross-checks the closed form against
a dense eigendecomposition, and compares the predicted contraction rate
with what the solver actually does.
"""

import numpy as np

from utamp import (
    EnsembleSpec,
    GaussianPrior,
    certify,
    generate_matrix,
    initial_state,
    lmmse_solve,
    synthesize_instance,
    ut_amp_step,
)

prior = GaussianPrior()
A = generate_matrix(EnsembleSpec(kind="ill_conditioned", M=72, N=48, seed=11, condition_number=1e4))
model = synthesize_instance(A, prior, sigma2=0.05, seed=11)

cert = certify(model, prior, check_numeric=True)
print(cert.report())
print()

c = cert.coefficients
print(f"betas range over [{c.betas.min():.4f}, {c.betas.max():.4f}]; alpha is their")
print(f"zero-padded mean {c.alpha:.4f}. Each beta pairs with two eigenvalues;")
neg = np.sum(c.alpha**2 - 4 * c.alpha * c.betas < 0)
print(f"{neg} of {c.betas.size} pairs are complex conjugates (modulus sqrt(alpha*beta)).")
print()

# predicted rate vs measured rate
xstar = lmmse_solve(model, prior)
tm = model.transformed
state = initial_state("utamp", model.N, tm.r.size, prior)
errs = []
for _ in range(80):
    state, _ = ut_amp_step(state, tm, prior)
    errs.append(float(np.linalg.norm(state.x - xstar)))
errs = np.array(errs)
hi = int(np.argmax(errs < 1e-11 * errs[0])) or len(errs)
rate = float(np.exp(np.polyfit(np.arange(5, hi), np.log(errs[5:hi]), 1)[0]))
print(f"certified spectral radius: {cert.spectral_radius:.4f}")
print(f"measured contraction rate: {rate:.4f}  (log-linear fit over iterations 5..{hi})")
print()

# the guarantee holds even in corners: tiny noise, huge condition numbers,
# missing directions
print("stress corners:")
corners = [
    ("condition number 1e12", EnsembleSpec(kind="ill_conditioned", M=40, N=40, seed=0, condition_number=1e12), 1e-6),
    ("rank 4 of 40", EnsembleSpec(kind="rank_deficient", M=40, N=40, seed=0, rank=4), 1e-6),
    ("mean shift 100", EnsembleSpec(kind="nonzero_mean", M=40, N=30, seed=0, mean_shift=100.0), 1e-3),
    ("wide 20 x 200", EnsembleSpec(kind="iid_gaussian", M=20, N=200, seed=0), 1e-4),
]
for label, spec, sigma2 in corners:
    rho = certify(generate_matrix(spec), prior, sigma2=sigma2).spectral_radius
    print(f"  {label:<24} spectral radius {rho:.6f}  -> converges")
