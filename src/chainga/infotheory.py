"""Entropy, information gain, and the precomputed gain-ratio matrix."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .data import Dataset


def _codes(values) -> tuple[np.ndarray, int]:
    _, inverse = np.unique(np.asarray(values).ravel(), return_inverse=True)
    return inverse, int(inverse.max()) + 1


def _table_codes(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``_codes`` of a (d, n) table, from one sort of all rows."""
    order = np.argsort(table, axis=1)
    ranks = np.take_along_axis(table, order, axis=1)  # a value's code: the distinct values below it
    np.cumsum(ranks[:, 1:] != ranks[:, :-1], axis=1, out=ranks[:, 1:])
    ranks[:, 0] = 0
    codes = np.empty_like(ranks)
    np.put_along_axis(codes, order, ranks, axis=1)
    return codes, ranks[:, -1] + 1


@lru_cache(maxsize=16)
def _plogp(n: int) -> np.ndarray:
    plogp = np.arange(n + 1) / n
    plogp[1:] *= np.log2(plogp[1:])
    plogp.setflags(write=False)
    return plogp


def _segment_entropies(counts: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """Entropy in bits of each segment, from ``starts``, of cell counts over
    n rows: one segmented sum of the p*log2(p) table over the nonzero cells."""
    cells = np.flatnonzero(counts > 0)
    return -np.add.reduceat(_plogp(n)[counts[cells]], np.searchsorted(cells, starts))


def _entropies(codes: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row t of an (m, n) code matrix, its codes in
    [0, sizes[t]): one bincount over the codes shifted by row offsets."""
    offsets = np.cumsum(sizes) - sizes
    counts = np.bincount((codes + offsets[:, None]).ravel(), minlength=int(sizes.sum()))
    return _segment_entropies(counts, offsets, codes.shape[1])


def entropy(values) -> float:
    """Shannon entropy in bits of the empirical symbol distribution."""
    if np.size(values) == 0:
        raise ValueError("entropy of an empty vector is undefined")
    codes, k = _codes(values)
    return float(_entropies(codes[None], np.array([k]))[0])


def information_gain(target, feature) -> float:
    """Information gain IG(target, feature) = H(target) - H(target | feature).

    Symmetric in its arguments (both equal the mutual information).
    """
    target = np.asarray(target)
    feature = np.asarray(feature)
    if target.size != feature.size:
        raise ValueError(f"length mismatch: {target.size} vs {feature.size}")
    if target.size == 0:
        raise ValueError("information gain of empty vectors is undefined")
    t, kt = _codes(target)
    f, kf = _codes(feature)
    h_t, h_f, h_tf = _entropies(np.stack([t, f, t * kf + f]), np.array([kt, kf, kt * kf]))
    return max(0.0, float(h_t + h_f - h_tf))


@dataclass
class GainRatioMatrix:
    """Precomputed gain-ratio tables driving the subset criterion.

    fc[i] is the feature-to-class gain ratio IG(y, F_i)/H(F_i); ff[i, j] is
    the feature-to-feature gain ratio IG(F_j, F_i)/H(F_i) normalized by the
    row feature's entropy (asymmetric), with a zero diagonal. Features with
    zero entropy get all-zero entries by convention.
    """

    fc: np.ndarray
    ff: np.ndarray

    def __post_init__(self):
        self.fc.setflags(write=False)
        self.ff.setflags(write=False)

    @property
    def d(self) -> int:
        return len(self.fc)

    @cached_property
    def pair_weights(self) -> np.ndarray:
        """ff + ff.T: the symmetric weight of each feature pair in sum_ff."""
        weights = self.ff + self.ff.T
        weights.setflags(write=False)
        return weights

    @cached_property
    def upper_weights(self) -> np.ndarray:
        """pair_weights above the (zero) diagonal: column j weighs j with each i < j."""
        upper = np.triu(self.pair_weights)
        upper.setflags(write=False)
        return upper


def build_omega(dataset: Dataset, rows: np.ndarray | None = None) -> GainRatioMatrix:
    """Compute the gain-ratio matrix over the discretized view.

    ``rows`` selects the rows to use (defaults to the training partition).
    Every feature's codes come from one sort. Cost is quadratic in the
    feature count and linear in the row count: one bincount per feature
    column j covers its joint codes with every earlier feature i < j.
    """
    if rows is None:
        rows = dataset.train_idx
    rows = np.asarray(rows)
    if rows.size < 2:
        raise ValueError("gain-ratio matrix needs at least 2 rows")

    n, d = rows.size, dataset.X_disc.shape[1]
    codes, k = _table_codes(dataset.X_disc[rows].T)  # feature-major
    yc, ky = _codes(dataset.y[rows])

    h = _entropies(codes, k)
    h_y = _entropies(yc[None], np.array([ky]))[0]
    h_iy = _entropies(codes * ky + yc, k * ky)
    informative = h > 0.0
    fc = np.divide(h + h_y - h_iy, h, out=np.zeros(d), where=informative)
    # pair (i, j) counts in cell k_j*(P_i + c_i) + c_j: a block of k_i*k_j cells
    P, cells = np.cumsum(k) - k, np.empty_like(codes)
    codes += P[:, None]
    ff = np.zeros((d, d))  # each pair's mutual information, then divided in place
    for j in range(1, d):
        np.multiply(codes[:j], k[j], out=cells[:j])
        cells[:j] += codes[j] - P[j]
        counts = np.bincount(cells[:j].ravel(), minlength=k[j] * P[j])
        ff[:j, j] = ff[j, :j] = h[:j] + h[j] - _segment_entropies(counts, k[j] * P[:j], n)
    np.divide(ff, h[:, None], out=ff, where=informative[:, None])
    ff[~informative] = 0.0

    np.clip(fc, 0.0, 1.0, out=fc)
    np.clip(ff, 0.0, 1.0, out=ff)
    return GainRatioMatrix(fc, ff)
