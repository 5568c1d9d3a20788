"""Shared fixtures of the core suites: the engine-level bound-QP check."""

import numpy as np
import pytest

import repro.core.bounds.tight as tight
from repro.optim import solve_bound_qp_batch


class KernelSpy:
    """Stands in for the tight bound's QP solver.

    Every call returns the real
    :func:`~repro.optim.solve_bound_qp_masked`'s output after checking
    its values and thetas ``==`` the per-pattern enumeration
    (:func:`~repro.optim.solve_bound_qp_batch`, one call per (fixed,
    lower) pattern) on the same rows, so a divergence on any row fails
    the run, not only one that changes an answer.  ``calls`` and
    ``rows`` count what went through it: a test that means to check the
    kernel asserts its run reached it.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = 0
        self.rows = 0

    def __call__(self, h, fixed_mask, fixed_vals, lower_mask, lower_vals):
        values, thetas, enumerated = self.kernel(
            h, fixed_mask, fixed_vals, lower_mask, lower_vals
        )
        n = h.shape[0]
        weights = 1 << np.arange(n)
        keys = (fixed_mask @ weights) << n | (lower_mask @ weights)
        for key in np.unique(keys).tolist():
            rows = np.flatnonzero(keys == key)
            fidx = np.flatnonzero(fixed_mask[rows[0]])
            lidx = np.flatnonzero(lower_mask[rows[0]])
            ref_values, ref_thetas = solve_bound_qp_batch(
                h, fidx.tolist(), fixed_vals[np.ix_(rows, fidx)],
                lidx.tolist(), lower_vals[np.ix_(rows, lidx)],
            )
            where = f"kernel call {self.calls}, pattern {key:#x}"
            assert (values[rows] == ref_values).all(), where
            assert (thetas[rows] == ref_thetas).all(), where
        self.calls += 1
        self.rows += len(values)
        return values, thetas, enumerated


@pytest.fixture
def kernel_spy(monkeypatch):
    """Route every tight-bound QP call of the test through a
    :class:`KernelSpy`."""
    spy = KernelSpy(tight.solve_bound_qp_masked)
    monkeypatch.setattr(tight, "solve_bound_qp_masked", spy)
    return spy
