"""In-memory span recording around the calls into each utamp module.

The tracer replaces functions at the places utamp code looks them up (the
importing module's namespace, or the class for methods), so every call a
layer makes into another layer opens a span.  Nothing in ``src/utamp`` is
edited; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

MB = 1e6


class Tracer:
    """Records spans as dicts: id, name, start, end, parent, op, and any
    computed attributes the wrapper adds (``bytes``, ``mb``, ...)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr, name, attrs_of=None):
        """Wrap owner.attr so each call records a span called name.

        attrs_of(args, result) returns computed attributes for the span; it
        runs after the span has closed, so its cost is not timed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if attrs_of is not None:
                record.update(attrs_of(args, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _factor_mb(args, fact):
    # computed: bytes of the stored dense factors
    arrays = (getattr(fact, name, None) for name in ("_U", "_V", "lam"))
    return {"mb": sum(a.nbytes for a in arrays if a is not None) / MB}


def _apply_mb(args, out):
    # computed: input vector, diagonal and output vector of one apply
    fact, vec = args[0], args[1]
    return {"mb": (vec.nbytes + fact.lam.nbytes + out.nbytes) / MB}


def _denoise_mb(args, out):
    # computed: pseudo-observation in, posterior mean and variance out
    return {"mb": (args[0].nbytes + out.mean.nbytes + out.var.nbytes) / MB}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _fixed_point(args, fp):
    return {"iterations": fp.iterations, "converged": bool(fp.converged)}


def install(tracer, utamp):
    """Wrap the public functions of each utamp module at their import sites.

    ``utamp`` is the imported package; its top-level names are the import
    site of the benchmark's own custom-loop op.  A site that does not exist
    at this commit is skipped, so a refactor leaves the benchmark running;
    returns the skipped sites, which the report lists.
    """
    cli, spectral, solvers, denoisers = utamp.cli, utamp.spectral, utamp.solvers, utamp.denoisers
    sites = [
        (cli, "load_matrix", "matrixio.load_matrix", _file_bytes),
        (cli, "generate_matrix", "ensembles.generate_matrix", None),
        (cli, "synthesize_instance", "ensembles.synthesize_instance", None),
        (cli, "svd_factorize", "model.svd_factorize", _factor_mb),
        (cli, "circulant_factorize", "model.circulant_factorize", None),
        (cli, "lmmse_solve", "solvers.lmmse_solve", None),
        (cli, "run", "solvers.run", None),
        (cli, "certify", "spectral.certify", None),
        (spectral, "svd_factorize", "model.svd_factorize", _factor_mb),
        (spectral, "variance_fixed_point", "spectral.variance_fixed_point", _fixed_point),
        (solvers, "svd_factorize", "model.svd_factorize", _factor_mb),
        (solvers, "unitary_transform", "model.transform", None),
        (solvers, "initial_state", "solvers.initial_state", None),
        (solvers, "ut_amp_step", "solvers.step.utamp", None),
        (solvers, "vector_amp_step", "solvers.step.vector", None),
        (solvers, "scalar_amp_step", "solvers.step.scalar", None),
        (denoisers, "gaussian_denoise", "denoisers.gaussian", _denoise_mb),
        (denoisers, "bg_denoise", "denoisers.bg", _denoise_mb),
        (utamp.Factorization, "apply_av", "model.apply_av", _apply_mb),
        (utamp.Factorization, "apply_avh", "model.apply_avh", _apply_mb),
        (utamp.Factorization, "apply_uh", "model.apply_uh", _apply_mb),
        (utamp, "circulant_factorize", "model.circulant_factorize", None),
        (utamp, "initial_state", "solvers.initial_state", None),
        (utamp, "ut_amp_step", "solvers.step.utamp", None),
    ]
    skipped = []
    for owner, attr, name, attrs_of in sites:
        if hasattr(owner, attr):
            tracer.patch(owner, attr, name, attrs_of)
        else:
            skipped.append(f"{owner.__name__}.{attr}")
    return skipped
