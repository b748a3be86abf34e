"""Helpers shared by the test modules."""

import numpy as np

from cssp.linalg import MACHINE_EPS


def _projected(b, u):
    """P b P, P = I - u u^T / |u|^2, for each row u of u, stacked: b = E E^T
    after selecting the column whose direction is u."""
    nu2 = np.einsum("ij,ij->i", u, u)[:, None, None]
    p = np.eye(b.shape[0]) - u[:, :, None] * u[:, None, :] / nu2
    return p @ b @ p


def _count_spectra(rows, r, spread, zeros, cluster, seed):
    """Ascending spectra with top entry 1: entries log-uniform down to
    1/spread, the lowest zeros of each row 0, and the top cluster entries of
    some rows equal to the top, others within a few ulps of it."""
    rng = np.random.Generator(np.random.Philox(seed))
    mu = 10.0 ** rng.uniform(-np.log10(spread), 0.0, size=(rows, r))
    mu[:, -1] = 1.0
    mu.sort(axis=1)
    mu[:, :zeros] = 0.0
    if cluster:
        jitter = np.where(rng.random(rows) < 0.5, 0.0, 4.0 * MACHINE_EPS)[:, None]
        mu[:, -cluster:] = 1.0 - jitter * np.arange(cluster)[::-1]
    return mu
