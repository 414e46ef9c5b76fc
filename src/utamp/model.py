"""Measurement model and unitary factorizations.

A model is the triple (A, y, sigma2) for y = A x + n with n ~ N(0, sigma2 I).
A factorization A = U Lam V (U, V unitary, Lam diagonal of singular values,
rectangular when M != N) supports the transformed model r = U^H y = Lam V x + w,
which is what the transform-domain solver iterates on.  Dense factors are
stored thin; the DFT-backed factorization of a circulant matrix never
materializes U or V unless asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "LinearModel",
    "Factorization",
    "TransformedModel",
    "FactorizationError",
    "svd_factorize",
    "circulant_factorize",
    "unitary_transform",
    "scaled_gram_diagonal",
]


class FactorizationError(RuntimeError):
    """Raised when a requested factorization cannot be built."""


def _as_float_or_complex(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return a.astype(np.complex128)
    return a.astype(np.float64)


@dataclass(eq=False)
class LinearModel:
    """Immutable-by-convention container for one inverse problem instance.

    x_true is optional; when present it enables error tracking but is never
    read by the solver steps themselves.
    """

    A: np.ndarray
    y: np.ndarray
    sigma2: float
    x_true: np.ndarray | None = None

    def __post_init__(self):
        self.A = _as_float_or_complex(self.A)
        if self.A.ndim != 2:
            raise ValueError(f"A must be 2-D, got shape {self.A.shape}")
        self.y = _as_float_or_complex(self.y)
        if self.y.ndim != 1 or self.y.shape[0] != self.A.shape[0]:
            raise ValueError(f"y must be a length-{self.A.shape[0]} vector, got shape {self.y.shape}")
        self.sigma2 = float(self.sigma2)
        if not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.x_true is not None:
            self.x_true = _as_float_or_complex(self.x_true)
            if self.x_true.shape != (self.A.shape[1],):
                raise ValueError(
                    f"x_true must have shape ({self.A.shape[1]},), got {self.x_true.shape}"
                )

    @property
    def M(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]

    @cached_property
    def abs2(self) -> np.ndarray:
        """Entrywise squared magnitudes |A|^2 (the vector-stepsize coupling)."""
        return np.abs(self.A) ** 2

    @cached_property
    def frob2(self) -> float:
        """Squared Frobenius norm of A."""
        return float(np.sum(self.abs2))


@dataclass(eq=False)
class Factorization:
    """A = U Lam V with unitary U (M x M) and V (N x N), k = min(M, N).

    kind is "svd" (thin: U and V are U_k (M x k) and V_k (k x N), M*k + k*N
    entries instead of M^2 + N^2) or "dft" (circulant case; U = F^H, V = F
    for the normalized forward DFT F, applied via FFTs).  lam holds the k
    diagonal entries of Lam; for "svd" these are the singular values, for
    "dft" the eigenvalues of the circulant matrix (possibly complex, in
    arbitrary order).
    """

    kind: str
    lam: np.ndarray
    shape: tuple[int, int]
    _U: np.ndarray | None = field(default=None, repr=False)
    _V: np.ndarray | None = field(default=None, repr=False)

    @property
    def M(self) -> int:
        return self.shape[0]

    @property
    def N(self) -> int:
        return self.shape[1]

    @cached_property
    def _dft(self) -> np.ndarray:
        # normalized forward DFT matrix, built only on demand
        n = self.N
        return np.fft.fft(np.eye(n), axis=0) / np.sqrt(n)

    @property
    def U(self) -> np.ndarray:
        if self.kind == "dft":
            return self._dft.conj().T
        return self._U

    @property
    def V(self) -> np.ndarray:
        if self.kind == "dft":
            return self._dft
        return self._V

    def apply_av(self, x: np.ndarray) -> np.ndarray:
        """Return Lam V x (length M) without forming A."""
        k = min(self.shape)
        if self.kind == "dft":
            return self.lam * (np.fft.fft(x) / np.sqrt(self.N))
        z = self._V @ x
        out = np.zeros(self.M, dtype=np.result_type(self.lam, z))
        out[:k] = self.lam * z
        return out

    def apply_avh(self, s: np.ndarray) -> np.ndarray:
        """Return V^H Lam^H s (length N), the adjoint of apply_av."""
        k = min(self.shape)
        if self.kind == "dft":
            return np.fft.ifft(np.conj(self.lam) * s) * np.sqrt(self.N)
        return self._V.conj().T @ (np.conj(self.lam) * s[:k])

    def apply_uh(self, y: np.ndarray) -> np.ndarray:
        """Return U_k^H y, the first k entries of U^H y (all M for "dft")."""
        if self.kind == "dft":
            return np.fft.fft(y) / np.sqrt(self.N)
        return self._U.conj().T @ y

    def reconstruct(self) -> np.ndarray:
        """Densify U Lam V.  Round-trips the factorized matrix."""
        if self.kind == "dft":
            f = self._dft
            return f.conj().T @ (self.lam[:, None] * f)
        return (self._U * self.lam) @ self._V


def svd_factorize(A) -> Factorization:
    """Thin SVD of a dense matrix of any shape: U_k (M x k) and V_k (k x N)
    hold M*k + k*N entries where a full SVD holds M^2 + N^2."""
    A = _as_float_or_complex(A)
    if A.ndim != 2:
        raise FactorizationError(f"need a 2-D array, got shape {A.shape}")
    try:
        u, s, vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD failed to converge: {exc}") from exc
    return Factorization(kind="svd", lam=s, shape=A.shape, _U=u, _V=vh)


def circulant_factorize(first_column) -> Factorization:
    """Factorize the circulant matrix with the given first column.

    The eigenvalues are the unnormalized DFT of the first column; U and V
    stay implicit (FFT-applied) so the factorization is O(N log N) to use.
    """
    c = _as_float_or_complex(np.asarray(first_column))
    if c.ndim != 1 or c.size < 1:
        raise FactorizationError(f"first column must be a nonempty 1-D array, got shape {c.shape}")
    lam = np.fft.fft(c)
    n = c.size
    return Factorization(kind="dft", lam=lam, shape=(n, n))


@dataclass(eq=False)
class TransformedModel:
    """The problem after left-multiplying by U^H: r = Lam V x + w.

    lam_p and lam_s are the row and column sums of |Lam|^2, i.e. the squared
    singular values padded with zeros to lengths M and N.  The transformed
    noise w has the same covariance sigma2 I as the original noise.
    """

    fact: Factorization
    r: np.ndarray
    sigma2: float
    lam_p: np.ndarray
    lam_s: np.ndarray

    @property
    def M(self) -> int:
        return self.fact.M

    @property
    def N(self) -> int:
        return self.fact.N


def unitary_transform(model: LinearModel, fact: Factorization) -> TransformedModel:
    """Precompute everything the transform-domain solver needs.

    r = U^H y (length M) for U_k completed by the normalized part of y
    outside its range: r[:k] = U_k^H y, r[k] = ||y - U_k U_k^H y|| when
    M > k, zeros after.  So ||r - Lam V x|| = ||y - A x|| for every x.
    """
    if fact.shape != (model.M, model.N):
        raise ValueError(f"factorization shape {fact.shape} does not match model ({model.M}, {model.N})")
    k = min(fact.shape)
    r = np.pad(fact.apply_uh(model.y), (0, fact.M - k))
    if fact.M > k:
        r[k] = np.linalg.norm(model.y - fact.U @ r[:k])
    lam2 = np.abs(fact.lam) ** 2
    return TransformedModel(
        fact=fact,
        r=r,
        sigma2=model.sigma2,
        lam_p=np.pad(lam2, (0, fact.M - k)),
        lam_s=np.pad(lam2, (0, fact.N - k)),
    )


def scaled_gram_diagonal(C, d) -> np.ndarray:
    """diag(C Diag(d) C^H) computed as |C|^2 d, without forming the product.

    This is the variance-propagation primitive: row i of the result is
    sum_j |C_ij|^2 d_j, always real for real nonnegative d.
    """
    C = np.asarray(C)
    d = np.asarray(d)
    if C.ndim != 2 or d.ndim != 1 or C.shape[1] != d.shape[0]:
        raise ValueError(f"shape mismatch: C is {C.shape}, d is {d.shape}")
    return (np.abs(C) ** 2) @ d
