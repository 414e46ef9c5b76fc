"""Measurement model and unitary factorizations.

A model is the triple (A, y, sigma2) for y = A x + n with n ~ N(0, sigma2 I);
A is held densely or, matrix-free, as its factorization.
A factorization A = U Lam V (U, V unitary, Lam diagonal, rectangular when
M != N) supports the transformed model r = U_k^H y = Lam V x + w, which the
transform-domain solver iterates on, on the k = min(M, N) rows of Lam that
are not zero; its project(y) gives r and the squared norm of the part of
y outside the range of U_k.  One class per unitary transform:
SvdFactorization stores thin singular factors, a tall A's U_k only as the
Householder reflectors of a QR factorization and the k x k U_R of an SVD
of its triangle; DftFactorization applies the DFT of a circulant A by FFTs;
RealDftFactorization holds a real circulant A on the N//2 + 1 bins of the
half spectrum, for real x.  Their base, _CirculantFactorization, supplies
A's first column, project and reconstruct; each supplies _v, _vh and its
own matvec.  Every complex FFT goes through _threads._fft, in _fft's order
(the real transforms are pocketfft's rfft and irfft); it reads the vector
it transforms where it lies, with no complex copy.  The applies run their
elementwise passes (the Lam multiplies and a caller's chain, apply_av's
then) on blocks of the transform on its worker threads: inside the
four-step FFT's row pass on the DFT route, in one blocked pass after or
before the transform elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._threads import _blockwise, _fft

__all__ = [
    "LinearModel",
    "Factorization",
    "SvdFactorization",
    "DftFactorization",
    "RealDftFactorization",
    "TransformedModel",
    "FactorizationError",
    "svd_factorize",
    "circulant_factorize",
    "scaled_gram_diagonal",
]


class FactorizationError(RuntimeError):
    """Raised when a requested factorization cannot be built."""


def _as_float_or_complex(a):
    # copies only when the dtype changes: a float64 or complex128 A is held once
    return np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    # bad input is rejected where it enters, not reported later as a divergence
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries (NaN or inf)")
    return a


def _noise_variance(sigma2) -> float:
    """sigma2 as a float, rejected unless 0 < sigma2 < inf and normal: the
    solvers' 1 / sigma2 overflows for a subnormal one."""
    sigma2 = float(sigma2)
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    if sigma2 < np.finfo(float).tiny:
        raise ValueError(f"sigma2 must not be subnormal (below {np.finfo(float).tiny:.6g}), got {sigma2}")
    return sigma2


class LinearModel:
    """Immutable-by-convention container for one inverse problem instance.

    A is a dense matrix or a Factorization of it.  ``fact`` is the one
    factorization of the problem, read by the transform-domain solver, the
    LMMSE oracle and the certificate: the one the model was built on, or a
    thin SVD of a dense A on first read: factorize(A) when factorize is
    given (the CLI's reads a cached one), else svd_factorize(A).
    ``transformed`` holds r = U_k^H y on it, also computed once.  A model
    built on a factorization is matrix-free: the dense ``A`` (with ``abs2`` and ``frob2``) is built
    on first read, for the consumers that need it (the AMP baselines and the
    dense ``lmmse_solve``).

    x_true is optional; when present it enables error tracking but is never
    read by the solver steps themselves.  Non-finite entries are rejected.
    A, y and x_true are held, not copied, when they are already float64 or
    complex128; the model does not write to them, and neither may the caller.
    """

    def __init__(self, A, y, sigma2: float, x_true=None, factorize=None):
        self._factorize = factorize
        if isinstance(A, Factorization):
            self.fact = A
            _finite(A.lam, "A")
        else:
            A = _as_float_or_complex(A)
            if A.ndim != 2:
                raise ValueError(f"A must be 2-D, got shape {A.shape}")
            self.A = _finite(A, "A")
        self.shape = A.shape
        self.y = _as_float_or_complex(y)
        if self.y.ndim != 1 or self.y.shape[0] != self.M:
            raise ValueError(f"y must be a length-{self.M} vector, got shape {self.y.shape}")
        _finite(self.y, "y")
        self.sigma2 = _noise_variance(sigma2)
        self.x_true = None if x_true is None else _as_float_or_complex(x_true)
        if self.x_true is not None:
            if self.x_true.shape != (self.N,):
                raise ValueError(f"x_true must have shape ({self.N},), got {self.x_true.shape}")
            _finite(self.x_true, "x_true")

    @property
    def M(self) -> int:
        return self.shape[0]

    @property
    def N(self) -> int:
        return self.shape[1]

    @cached_property
    def fact(self) -> Factorization:
        """The factorization the model was built on, else a thin SVD of A,
        computed on first read."""
        return (self._factorize or svd_factorize)(self.A)

    @cached_property
    def A(self) -> np.ndarray:
        """Dense A, densified from the factorization on first read."""
        return self.fact.reconstruct()

    @cached_property
    def abs2(self) -> np.ndarray:
        """Entrywise squared magnitudes |A|^2 (the vector-stepsize coupling)."""
        a = np.abs(self.A)
        return np.square(a, out=a)

    @cached_property
    def frob2(self) -> float:
        """Squared Frobenius norm of A."""
        return float(np.sum(self.abs2))

    @cached_property
    def transformed(self) -> TransformedModel:
        """The model after left-multiplying by U^H, computed on first read, so
        that run and lmmse_transformed share one projection: (r, outside) =
        fact.project(y), so ||r - Lam V x||^2 + outside = ||y - A x||^2 for
        every x."""
        r, outside = self.fact.project(self.y)
        return TransformedModel(self.fact, r, self.sigma2, np.abs(self.fact.lam) ** 2, outside)


@dataclass(eq=False)
class Factorization:
    """A = U Lam V with unitary U (M x M) and V (N x N), k = min(M, N).

    lam holds the k diagonal entries of Lam.  The applies are written once
    here, on those k entries; a subclass supplies _v (x -> V_k x), _vh (its
    adjoint), project (y -> (U_k^H y, the squared norm of the part of y
    outside the range of U_k)), matvec (A x) and reconstruct (A, dense).
    On the circulant classes the base _CirculantFactorization supplies
    column, project and reconstruct, and each class its _v, _vh and matvec.
    V is an isometry on every class, so norms of the k entries are plain:
    ||r - Lam V x||^2 + outside = ||y - A x||^2, and apply_avh is the
    adjoint of apply_av.  _v and project return a fresh array of length k
    and leave their argument alone; _vh may overwrite its argument, which
    apply_avh hands it.  _v(x, each) and _vh(z, each) call each(b, zb) on
    consecutive blocks b of the length-k vector (zb its view there): _v
    once it has written a block, _vh before it reads one; the DFT class
    runs each inside its FFT's row pass, the others in one blocked pass
    (_blocked) after or before the transform."""

    lam: np.ndarray
    shape: tuple[int, int]

    @property
    def M(self) -> int:
        return self.shape[0]

    @property
    def N(self) -> int:
        return self.shape[1]

    def apply_av(self, x: np.ndarray, then=None) -> np.ndarray:
        """Return Lam V x (length k) without forming A.  then, when given, is
        called as then(b, zb) on each block zb = (Lam V x)[b] right after Lam
        scales it, in the same blocked pass; the blocks start at multiples
        of their length whatever the number of CPUs (_threads._fft's each),
        so a caller may sum per-block results in block order.  then runs on
        the worker threads and must touch only its block."""

        def scale(b, zb):
            np.multiply(self.lam[b], zb, out=zb)
            if then is not None:
                then(b, zb)

        return self._v(x, scale)

    def apply_avh(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return V^H Lam^H s (length N), the adjoint of apply_av.  Lam^H s is
        built in out when given, a length-k array of its dtype whose contents
        are dead (the DFT class returns V^H Lam^H s there), else in a new one."""
        z = np.empty(self.lam.size, np.result_type(self.lam, s)) if out is None else out
        return self._vh(z, lambda b, zb: np.multiply(np.conjugate(self.lam[b], out=zb), s[b], out=zb))

    def apply_uh(self, y: np.ndarray) -> np.ndarray:
        """Return U_k^H y, project(y) without the part outside."""
        return self.project(y)[0]


def _blocked(z: np.ndarray, each) -> np.ndarray:
    """z, after each(b, z[b]) has run on its blocks in one aligned blocked
    pass (_blockwise), or untouched when each is None."""
    if each is not None:
        _blockwise(lambda b: each(b, z[b]), z.size, aligned=True)
    return z


@dataclass(eq=False)
class SvdFactorization(Factorization):
    """Thin SVD A = U_k Lam V_k; lam holds the singular values and V_k
    (k x N) is held dense.  A tall A (M >= 2N, see svd_factorize) is
    factorized as A = Q R and its triangle as R = U_R Lam V_k, so
    U_k = Q_k U_R is held as the N Householder reflectors of Q (as
    np.linalg.qr's "raw" mode leaves them, M*N entries) and the k x k U_R;
    U_k itself is formed only by reconstruct, from a QR factorization of
    the held A.  Otherwise U_R is U_k."""

    _UR: np.ndarray = field(repr=False)
    _V: np.ndarray = field(repr=False)
    # (A, h, tau) of A's QR factorization on the tall route, else None
    _qr: tuple | None = field(default=None, repr=False)

    def _v(self, x: np.ndarray, each=None) -> np.ndarray:
        return _blocked(_matmul(self._V, x), each)

    def _vh(self, z: np.ndarray, each=None) -> np.ndarray:
        return _matmul_h(self._V, _blocked(z, each))

    def _qh(self, y: np.ndarray) -> np.ndarray:
        """Q^H y, by the reflectors H_j = I - tau_j v_j v_j^H in turn on a
        copy of y; a real reflector is cast to meet a complex y one at a
        time.  y itself when there is no Q."""
        if self._qr is None:
            return y
        _, h, tau = self._qr
        w = np.array(y, dtype=np.result_type(h, y))
        for j, t in enumerate(tau):
            v = h[j, j:].copy()  # v_j[j:]; its leading 1 is not stored
            v[0] = 1.0
            w[j:] -= (np.conj(t) * np.vdot(v, w[j:])) * v
        return w

    def _urh(self, w: np.ndarray) -> np.ndarray:
        """U_R^H w[:k] on the QR route (w = Q^H y), else U_k^H w (w = y)."""
        return _matmul_h(self._UR, w[: self._UR.shape[0]])

    def project(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Return (U_k^H y, the squared norm of the part of y outside the
        range of U_k), 0.0 for the latter when M = k."""
        k = self.lam.size
        w = self._qh(y)
        r = self._urh(w)
        if self.M == k:
            return r, 0.0
        # in Q's basis the part outside is (Q^H y)[k:]
        norm = np.linalg.norm(w[k:] if self._qr else y - _matmul(self._UR, r))
        return r, float(norm * norm)

    def reconstruct(self) -> np.ndarray:
        """Densify U_k Lam V_k.  Round-trips the factorized matrix."""
        U = self._UR if self._qr is None else np.linalg.qr(self._qr[0])[0] @ self._UR
        return (U * self.lam) @ self._V

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x: the held A's A @ x on the QR route, else U_k (Lam V_k x)."""
        return self._qr[0] @ x if self._qr else _matmul(self._UR, self.lam * _matmul(self._V, x))


def _matmul(F: np.ndarray, z: np.ndarray) -> np.ndarray:
    """F @ z.  A real F times a complex z is two real products, because
    numpy would otherwise cast all of F to complex128 on every call."""
    if np.iscomplexobj(z) and not np.iscomplexobj(F):
        return F @ z.real + 1j * (F @ z.imag)
    return F @ z


def _matmul_h(F: np.ndarray, z: np.ndarray) -> np.ndarray:
    """F^H z as conj(F^T conj(z)), without the copy that F.conj() makes of
    a complex F; for a real F it is _matmul(F.T, z), bit for bit."""
    return _matmul(F.T, z.conj()).conj()


@dataclass(eq=False)
class _CirculantFactorization(Factorization):
    """A circulant A, U = V^H for a V that each subclass applies by FFTs.
    column is A's first column as it was given, which A densifies from.
    U^H y is V y and has all of y's energy, so nothing of y lies outside."""

    column: np.ndarray = field(repr=False)

    def project(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        return self._v(y), 0.0

    def reconstruct(self) -> np.ndarray:
        """Densify A from its first column, without the DFT matrix."""
        return circulant_matrix(self.column)


@dataclass(eq=False)
class DftFactorization(_CirculantFactorization):
    """Circulant A: V the normalized DFT with rows in _fft's order (DFT
    order below 2^16 and for prime N), by FFTs; lam holds A's possibly
    complex eigenvalues in that order."""

    def _v(self, x: np.ndarray, each=None) -> np.ndarray:
        z = np.empty(self.lam.size, np.complex128)
        return _fft(z, src=x, each=None if each is None else lambda b: each(b, z[b]))

    def _vh(self, z: np.ndarray, each=None) -> np.ndarray:
        return _fft(z, inverse=True, each=None if each is None else lambda b: each(b, z[b]))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x by two FFTs, real exactly when A and x are, as for A @ x."""
        fx = np.empty(self.lam.size, np.complex128)
        _fft(fx, norm="backward", src=x, each=lambda b: np.multiply(self.lam[b], (fb := fx[b]), out=fb))
        ax = _fft(fx, inverse=True, norm="backward")
        return ax.real if np.isrealobj(x) and np.isrealobj(self.column) else ax

    def half_spectrum(self) -> RealDftFactorization:
        """The same real circulant A on real x, with N//2 + 1 bins."""
        if np.iscomplexobj(self.column):
            raise FactorizationError("the half spectrum needs a real first column")
        return RealDftFactorization(lam=np.fft.rfft(self.column, norm="backward"), shape=self.shape, column=self.column)


@dataclass(eq=False)
class RealDftFactorization(_CirculantFactorization):
    """A circulant A with a real first column, applied to real x only.

    The DFT of a real vector is Hermitian, so its bins 0..N//2 hold all of
    it: lam.size = N//2 + 1, in DFT order, and lam holds A's eigenvalues on
    them.  A paired bin stands for itself and its mirror N - i, so V x is
    the normalized np.fft.rfft with the paired bins scaled by sqrt 2, and
    ||V x|| = ||x||; _vh, its adjoint, scales them by 1/sqrt 2 in the same
    blocked pass and takes np.fft.irfft, so x stays real.  The transforms
    run on the calling thread.  DftFactorization.half_spectrum builds one;
    what reads lam as A's spectrum (certify) takes the complex class."""

    @property
    def paired(self) -> slice:
        """The bins i, 1 <= i < (N+1)//2, that stand for two entries of U^H y."""
        return slice(1, (self.N + 1) // 2)

    def _paired_times(self, c: float, before=None, after=None):
        """An each(b, zb) that scales the paired bins of zb = z[b] by c between before and after."""
        p = self.paired

        def each(b, zb):
            if before is not None:
                before(b, zb)
            zb[max(b.start, p.start) - b.start : min(b.stop, p.stop) - b.start] *= c
            if after is not None:
                after(b, zb)

        return each

    def _v(self, x: np.ndarray, each=None) -> np.ndarray:
        return _blocked(np.fft.rfft(x, norm="ortho"), self._paired_times(np.sqrt(2.0), after=each))

    def _vh(self, z: np.ndarray, each=None) -> np.ndarray:
        return np.fft.irfft(_blocked(z, self._paired_times(np.sqrt(0.5), before=each)), n=self.N, norm="ortho")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x of a real x by two real FFTs."""
        return np.fft.irfft(self.lam * np.fft.rfft(x), n=self.N)


# names what svd_factorize returns in matrixio's cache keys: bump it whenever
# svd_factorize changes, so that no cached factorization outlives it
_SVD_FORMAT = "utamp svd 1"


def svd_factorize(A) -> SvdFactorization:
    """Thin SVD of a dense matrix of any shape: U_k (M x k) and V_k (k x N)
    hold M*k + k*N entries where a full SVD holds M^2 + N^2.

    An A at least twice as tall as wide is factorized as Q R first (Chan's
    R-SVD), and U_k is never formed.  np.linalg.svd of a 4000 x 500 A,
    which forms it, grows the peak RSS by about 4 x A's bytes; the QR
    route, which holds a copy of A and LAPACK's work copy at its peak, by
    about 2.3 x, in about 0.65 of the time.  LAPACK's gesdd itself goes QR
    first from M = 11N/6 (17N/9 for complex A), so on these shapes lam and
    V_k are gesdd's bit for bit; less tall, the singular vectors would
    differ from gesdd's in sign, and the QR gains little time (and loses
    some near square).  A is held, not copied, when it is float64 or
    complex128; the caller must not write to it while the factorization
    is in use."""
    A = _as_float_or_complex(A)
    if A.ndim != 2:
        raise FactorizationError(f"need a 2-D array, got shape {A.shape}")
    # LAPACK does not always fail on them: gesdd of [[inf]] returns lam = [inf]
    if not np.all(np.isfinite(A)):
        raise FactorizationError("A has non-finite entries (NaN or inf)")
    m, n = A.shape
    qr = None
    try:
        if m >= 2 * n:
            h, tau = np.linalg.qr(A, mode="raw")
            qr = (A, h, tau)
            u, s, vh = np.linalg.svd(np.triu(h[:, :n].T))
        else:
            u, s, vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD failed to converge: {exc}") from exc
    return SvdFactorization(lam=s, shape=A.shape, _UR=u, _V=vh, _qr=qr)


def circulant_factorize(first_column) -> DftFactorization:
    """Factorize the circulant matrix with the given first column.

    The eigenvalues are the unnormalized DFT of the first column in V's order;
    U and V stay implicit (FFT-applied) so the factorization is O(N log N).
    The column is held, not copied, when it is a contiguous float64 or
    complex128 vector (a strided view, such as A[:, 0], is copied so that it
    does not keep A alive); the caller must not write to it.
    """
    c = _as_float_or_complex(first_column)
    if c.ndim != 1 or c.size < 1:
        raise FactorizationError(f"first column must be a nonempty 1-D array, got shape {c.shape}")
    c = np.ascontiguousarray(c)
    lam = _fft(np.empty(c.size, np.complex128), norm="backward", src=_finite(c, "first column"))
    return DftFactorization(lam=lam, shape=(c.size, c.size), column=c)


def circulant_matrix(first_column) -> np.ndarray:
    """Dense circulant matrix C[i, j] = c[(i - j) % n] with first column c."""
    n = len(first_column)
    return np.asarray(first_column)[np.subtract.outer(np.arange(n), np.arange(n)) % n]


@dataclass(eq=False)
class TransformedModel:
    """The problem after left-multiplying by U^H: r = Lam V x + w.

    r holds U_k^H y, the k entries of U^H y that Lam reaches, and lam_p the
    k values |lam|^2; the rest of U^H y meets zero rows of Lam, and outside
    holds its energy, the squared norm of the part of y outside the range
    of U_k (0.0 when k = M).  The transformed noise w has covariance sigma2 I.
    lam_w is lam_p counted once per entry of U^H y: the same array, but with
    the paired bins doubled on the half spectrum."""

    fact: Factorization
    r: np.ndarray
    sigma2: float
    lam_p: np.ndarray
    outside: float = 0.0

    @property
    def N(self) -> int:
        return self.fact.N

    @cached_property
    def lam_w(self) -> np.ndarray:
        if not isinstance(self.fact, RealDftFactorization):
            return self.lam_p
        w = self.lam_p.copy()
        w[self.fact.paired] *= 2.0
        return w


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
