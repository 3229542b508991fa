"""Comparison graphs: heat-kernel k-NN affinity and LLE reconstruction weights."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import InputError, unit_scale, validate_data_matrix
from .graphio import CSR
from .llr import HyperParams, NeighbourTable, build_llr_graph, neighbour_prefix


@dataclass(frozen=True)
class HeatKernelParams:
    """Heat-kernel graph parameters; a value out of its own range raises
    InputError when they are made."""

    k_nn: int = 8
    sigma: float | str = "auto"  # 'auto' uses the median retained distance

    def __post_init__(self) -> None:
        if self.k_nn < 1:
            raise InputError(f"k_nn must be >= 1, got {self.k_nn}")
        if isinstance(self.sigma, str):
            if self.sigma != "auto":
                raise InputError(f"sigma must be a positive number or 'auto', got {self.sigma!r}")
        elif not math.isfinite(self.sigma):
            raise InputError(f"sigma must be finite, got {self.sigma}")
        elif not self.sigma > 0:
            raise InputError(f"sigma must be positive, got {self.sigma}")

    def validate(self, n: int) -> None:
        """Check k_nn <= n - 1, the bound a graph on n samples needs."""
        if self.k_nn > n - 1:
            raise InputError(f"k_nn ({self.k_nn}) must not exceed n - 1 ({n - 1})")


def _median(values: np.ndarray) -> float:
    """np.median of finite values, bit for bit, with no overflow: the mean of
    the two middle values (one when their count is odd) is taken on both scaled
    by unit_scale, then scaled back. Scaling is exact wherever it can change
    the sum's bits."""
    mid = [(values.size - 1) // 2, values.size // 2]
    e, a, b = unit_scale(*np.partition(values, mid)[mid])
    return float(np.ldexp((a + b) / 2.0, e))


def heat_kernel_graph(X: np.ndarray, params: HeatKernelParams, *, table: NeighbourTable | None = None) -> CSR:
    """Union-kNN graph with heat-kernel weights exp(-d^2 / (2 sigma^2)).

    An edge (i, j) is retained when j is among the k_nn nearest neighbors of
    i or vice versa, which makes the graph symmetric by construction. With
    sigma='auto', sigma is the median distance over retained edges. The
    neighbours are llr.neighbour_prefix(X, k_nn, table).
    """
    X = validate_data_matrix(X)
    n = X.shape[0]
    params.validate(n)

    # Union of the directed kNN pattern, keyed by (min, max) vertex pair. The
    # pattern is unioned rather than the distances, which are 0.0 between
    # duplicate points and would vanish from a sparse union.
    idx, dist = neighbour_prefix(X, params.k_nn, table)
    rows = np.repeat(np.arange(n), params.k_nn)
    cols = idx.ravel()
    keys, first = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols), return_index=True)
    iu, ju = np.divmod(keys, n)
    retained = dist.ravel()[first]
    if isinstance(params.sigma, str):
        sigma = _median(retained)
        if sigma <= 0:
            raise ValueError("auto sigma failed: median retained distance is zero")
    else:
        sigma = float(params.sigma)

    # Scale distances and sigma by the power of two that unit_scale picks for
    # sigma: the weights keep their bits on ordinary data, and sigma**2 no
    # longer overflows on data above about 1e154. A tiny sigma may still
    # square a scaled distance to inf, whose weight exp(-inf) = 0 is exact.
    e, sigma = unit_scale(sigma)
    with np.errstate(over="ignore"):
        weights = np.exp(-(np.ldexp(retained, -e) ** 2) / (2.0 * sigma**2))
    rows = np.concatenate([iu, ju])
    cols = np.concatenate([ju, iu])
    data = np.concatenate([weights, weights])
    return CSR.from_triplets(rows, cols, data, (n, n))


def lle_graph(X: np.ndarray, k_nn: int, epsilon: float = HyperParams.epsilon, *, table: NeighbourTable | None = None) -> CSR:
    """LLE reconstruction-weight graph: the lam = 0 special case of the
    locally linear representation graph with a k_nn-atom dictionary and all
    coefficients kept; table as in llr.coefficient_table."""
    return build_llr_graph(X, HyperParams(lam=0.0, k_keep=k_nn, d_dict=k_nn, epsilon=epsilon), table=table)
