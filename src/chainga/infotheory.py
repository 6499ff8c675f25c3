"""Entropy, information gain, and the precomputed gain-ratio matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset


def _codes(values) -> tuple[np.ndarray, int]:
    _, inverse = np.unique(np.asarray(values).ravel(), return_inverse=True)
    return inverse, int(inverse.max()) + 1


def _entropies(codes: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Entropy in bits of every column of an (n, m) code matrix whose
    column t holds codes in [0, sizes[t]): one bincount over the codes
    shifted by each column's offset, then one segmented sum of p*log2(p)
    over the nonzero cells."""
    offsets = np.cumsum(sizes) - sizes
    counts = np.bincount((codes + offsets).ravel(), minlength=int(sizes.sum()))
    cells = np.flatnonzero(counts)
    p = counts[cells] / codes.shape[0]
    return -np.add.reduceat(p * np.log2(p), np.searchsorted(cells, offsets))


def entropy(values) -> float:
    """Shannon entropy in bits of the empirical symbol distribution."""
    if np.size(values) == 0:
        raise ValueError("entropy of an empty vector is undefined")
    codes, k = _codes(values)
    return float(_entropies(codes[:, None], np.array([k]))[0])


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
    h_t, h_f, h_tf = _entropies(np.stack([t, f, t * kf + f], axis=1), np.array([kt, kf, kt * kf]))
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


def build_omega(dataset: Dataset, rows: np.ndarray | None = None) -> GainRatioMatrix:
    """Compute the gain-ratio matrix over the discretized view.

    ``rows`` selects the rows to use (defaults to the training partition).
    Cost is quadratic in the feature count and linear in the row count:
    one ``_entropies`` call per feature row i covers its joint codes with
    every later feature j > i.
    """
    if rows is None:
        rows = dataset.train_idx
    rows = np.asarray(rows)
    if rows.size < 2:
        raise ValueError("gain-ratio matrix needs at least 2 rows")

    X = dataset.X_disc[rows]
    d = X.shape[1]
    codes, k = np.empty_like(X), np.empty(d, dtype=np.int64)
    for i in range(d):
        codes[:, i], k[i] = _codes(X[:, i])
    yc, ky = _codes(dataset.y[rows])

    h = _entropies(codes, k)
    h_y = _entropies(yc[:, None], np.array([ky]))[0]
    h_iy = _entropies(codes * ky + yc[:, None], k * ky)
    informative = h > 0.0
    fc = np.divide(h + h_y - h_iy, h, out=np.zeros(d), where=informative)
    ff = np.zeros((d, d))  # each pair's mutual information, then divided in place
    for i in range(d - 1):
        h_ij = _entropies(codes[:, i, None] * k[i + 1 :] + codes[:, i + 1 :], k[i] * k[i + 1 :])
        ff[i, i + 1 :] = ff[i + 1 :, i] = h[i] + h[i + 1 :] - h_ij
    np.divide(ff, h[:, None], out=ff, where=informative[:, None])
    ff[~informative] = 0.0

    np.clip(fc, 0.0, 1.0, out=fc)
    np.clip(ff, 0.0, 1.0, out=ff)
    return GainRatioMatrix(fc, ff)


_DUMP_MAGIC = b"chainga-omega-2\n"


def save_omega(path, omega: GainRatioMatrix, key: str) -> None:
    """Dump the matrix keyed by its dataset digest.

    Flat little-endian layout (magic, JSON header, fc, ff) so identical
    matrices always produce identical bytes.
    """
    header = json.dumps({"key": key, "d": omega.d}).encode() + b"\n"
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(omega.fc, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(omega.ff, dtype="<f8").tobytes())


def load_omega(path) -> tuple[GainRatioMatrix, str]:
    """Load a dumped matrix; callers compare the returned key against the
    current dataset digest before trusting it.

    Raises ValueError when the file is not a complete, well-formed dump.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_DUMP_MAGIC)) != _DUMP_MAGIC:
            raise ValueError(f"{path} is not a gain-ratio matrix dump")
        try:
            header = json.loads(fh.readline())
            d, key = int(header["d"]), str(header["key"])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"{path} has a malformed header") from exc
        body = fh.read()
    if d < 0 or len(body) != 8 * (d + d * d):
        raise ValueError(f"{path} holds {len(body)} matrix bytes, not {8 * (d + d * d)} for d={d}")
    values = np.frombuffer(body, dtype="<f8")
    fc, ff = values[:d].copy(), values[d:].reshape(d, d).copy()
    if not ((values >= 0.0) & (values <= 1.0)).all() or ff.diagonal().any():
        raise ValueError(f"{path} holds values that are not gain ratios")
    return GainRatioMatrix(fc, ff), key
