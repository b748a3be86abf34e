"""The four benchmark workloads: each turns a seed into Matrix Market files
and a list of `cssp select` operations with their reference spectra.

Only set-up touches `cssp.instances`; the timed loop sees nothing but
the written files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cssp import instances, mmio

MACHINE_EPS = float(np.finfo(float).eps)

# Matrices in one pass of the small-cli-corpus workload.  Their shapes are
# the first CORPUS_SIZE shapes of the acceptance suite's Gaussian corpus, so
# every seed draws new entries over the same spread of sizes.
CORPUS_SIZE = 40


@dataclass(frozen=True)
class Op:
    """One `cssp select` call; repeats of an op share its key."""

    key: str
    path: str
    k: int
    matrix: np.ndarray
    sigma_sq: np.ndarray  # squared singular values from numpy SVD, descending
    rank: int

    @property
    def argv(self) -> list[str]:
        return ["select", "--input", self.path, "-k", str(self.k), "--format", "json"]


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def _anchor(seed, tiny):
    t = 8 if tiny else 64
    return [("power", instances.power_law(t, t, t, 2.0, 1.0, seed), [math.ceil(0.8 * t)])]


def _wide(seed, tiny):
    if tiny:
        return [("gauss", instances.random_gaussian(5, 10, seed), [1, 2, 3])]
    return [("gauss", instances.random_gaussian(40, 80, seed), [3, 6, 10, 20])]


def _hard(seed, tiny):
    d = 6 if tiny else 48
    perm = _philox(seed).permutation(d)
    return [("hard", instances.hard_instance(d, 1.0)[:, perm], [d // 2])]


def _corpus(seed, tiny):
    entries = []
    high = 6 if tiny else 13
    for i in range(3 if tiny else CORPUS_SIZE):
        dims = _philox(10_000 + i)
        n, d = int(dims.integers(2, high)), int(dims.integers(2, high))
        entries.append((f"gauss{i}", instances.random_gaussian(n, d, seed * 1_000 + i), None))
    return entries


# name -> build(seed, tiny) -> [(label, matrix, ks, or None for 1..rank)];
# BENCHMARK.json and README.md say why each was chosen.
WORKLOADS = {
    "anchor-power64": _anchor,
    "wide-gauss40x80": _wide,
    "hard-clustered48": _hard,
    "small-cli-corpus": _corpus,
}


def build_ops(name: str, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    """Write the workload's matrices under workdir and list its operations
    in loop order, with squared singular values from numpy SVD."""
    ops = []
    for label, matrix, ks in WORKLOADS[name](seed, tiny):
        path = workdir / f"{label}.mtx"
        mmio.save_matrix_market(path, matrix)
        sigma = np.linalg.svd(matrix, compute_uv=False)
        rank = int(np.count_nonzero(sigma > max(matrix.shape) * MACHINE_EPS * sigma[0]))
        for k in ks or range(1, rank + 1):
            ops.append(Op(f"{label}:k={k}", str(path), k, matrix, sigma * sigma, rank))
    return ops
