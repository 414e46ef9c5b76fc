"""Circulant matrices never need a dense factorization.

A circulant matrix is diagonalized by the DFT, so its unitary factors can
stay implicit: every solver step costs two FFTs instead of two dense
matvecs.  This script checks that the FFT route reproduces the dense-SVD
route iterate for iterate, then times both on a larger problem.
"""

import time

import numpy as np

from utamp import (
    EnsembleSpec,
    GaussianPrior,
    LinearModel,
    circulant_factorize,
    generate_matrix,
    initial_state,
    run,
    synthesize_instance,
    ut_amp_step,
)

prior = GaussianPrior()

# --- agreement ---------------------------------------------------------
A = generate_matrix(EnsembleSpec(kind="circulant", M=64, N=64, seed=5))
model = synthesize_instance(A, prior, sigma2=0.02, seed=5)

# the same y on the DFT factorization of A's first column
fft_model = LinearModel(circulant_factorize(A[:, 0]), model.y, model.sigma2)
tm_fft = fft_model.transformed
tm_svd = model.transformed
s_fft = initial_state("utamp", 64, 64, prior, dtype=complex)
s_svd = initial_state("utamp", 64, 64, prior)
worst = 0.0
for _ in range(50):
    s_fft, _ = ut_amp_step(s_fft, tm_fft, prior)
    s_svd, _ = ut_amp_step(s_svd, tm_svd, prior)
    worst = max(worst, float(np.max(np.abs(s_fft.x - s_svd.x))))
print(f"FFT route vs dense route, worst iterate difference over 50 steps: {worst:.2e}")
print(f"(the FFT iterates carry a vestigial imaginary part of {np.max(np.abs(s_fft.x.imag)):.2e})")
print()

# --- speed -------------------------------------------------------------
n = 4096
taps = np.zeros(n)
taps[:5] = [2.0, 1.0, 0.5, 0.25, 0.125]  # a short filter, wrapped around
A_big = generate_matrix(EnsembleSpec(kind="circulant", M=n, N=n, taps=taps))
model_big = synthesize_instance(A_big, prior, sigma2=0.01, seed=1)

# fixed budget: the timing compares per-step cost, not time to convergence
# (this instance contracts at rho = 0.967, full convergence takes ~700 steps)
BUDGET = 200

t0 = time.perf_counter()
fft_model_big = LinearModel(circulant_factorize(taps), model_big.y, model_big.sigma2)
state, trace = run("utamp", fft_model_big, prior, max_iters=BUDGET)
t_fft = time.perf_counter() - t0
print(f"N = {n} circulant, FFT factorization:   {BUDGET}-step budget in {t_fft:7.3f} s")

t0 = time.perf_counter()
state2, trace2 = run("utamp", model_big, prior, max_iters=BUDGET)  # thin SVD of A_big on first use
t_svd = time.perf_counter() - t0
print(f"N = {n} circulant, dense SVD route:     {BUDGET}-step budget in {t_svd:7.3f} s")
print(f"same answer to {np.max(np.abs(state.x - state2.x)):.2e}, speedup x{t_svd / t_fft:.0f}")
print()
print("The dense route pays an O(N^3) factorization plus O(N^2) per step;")
print("the FFT route is O(N log N) per step with no setup beyond one FFT.")
