"""Where the classic kernels break and the transform-domain one does not.

Per-element and scalar-stepsize message passing are calibrated for iid
(sub)Gaussian matrices.  Mean shifts, strong column correlation, wild
spectra: each violates that calibration and the iterates blow up.  Working
in the transformed coordinates r = U^H y = Lam V x + w repairs all of them,
and the convergence certificate quantifies how fast the repair contracts.
"""

import numpy as np

from utamp import (
    EnsembleSpec,
    GaussianPrior,
    certify,
    circulant_factorize,
    circulant_taps,
    generate_matrix,
    run,
    synthesize_instance,
)

prior = GaussianPrior()
M, N = 80, 60
SIGMA2 = 0.05

families = [
    ("iid_gaussian", {}, "iid N(0, 1/M): the friendly baseline"),
    ("nonzero_mean", {}, "entrywise mean 10: one giant singular value"),
    ("ill_conditioned", {"condition_number": 1e6}, "condition number 10^6"),
    ("rank_deficient", {}, "rank min(M,N)/2"),
    ("column_correlated", {"correlation": 0.9}, "columns correlated 0.9^|i-j|"),
    ("circulant", {}, "random circulant (solved via FFT)"),
]

print(f"{'family':<20} {'amp-vec':>10} {'amp-scalar':>11} {'utamp':>10} {'radius':>8}  note")
for kind, kw, note in families:
    if kind == "circulant":
        # held as its DFT factorization: utamp and the certificate use FFTs,
        # and the AMP kernels densify A from its first column
        A = circulant_factorize(circulant_taps(EnsembleSpec(kind=kind, M=64, N=64, seed=1, **kw)))
    else:
        A = generate_matrix(EnsembleSpec(kind=kind, M=M, N=N, seed=1, **kw))
    model = synthesize_instance(A, prior, sigma2=SIGMA2, seed=1)
    statuses = []
    for algorithm in ("vector", "scalar", "utamp"):
        _, trace = run(algorithm, model, prior, max_iters=500)
        statuses.append(trace.status)
    rho = certify(model, prior).spectral_radius
    print(f"{kind:<20} {statuses[0]:>10} {statuses[1]:>11} {statuses[2]:>10} {rho:>8.3f}  {note}")

print()
print("The certificate's spectral radius is below 1 for every family; that")
print("is not luck but a theorem: each iteration-matrix eigenvalue has")
print("modulus at most sqrt(alpha * beta_i) < 1 regardless of the matrix.")
print()

# zoom in on the mean-shifted case: watch the classic kernel blow up
A = generate_matrix(EnsembleSpec(kind="nonzero_mean", M=M, N=N, seed=1))
model = synthesize_instance(A, prior, sigma2=SIGMA2, seed=1)
_, trace = run("vector", model, prior, max_iters=12)
print("per-element kernel on the mean-shifted matrix, residual by iteration:")
print("  " + "  ".join(f"{rec['residual']:.2e}" for rec in trace.records[:9]))
_, trace = run("utamp", model, prior, max_iters=12, x_tol=1e-14)
print("transform-domain kernel on the same instance:")
print("  " + "  ".join(f"{rec['residual']:.2e}" for rec in trace.records[:9]))
