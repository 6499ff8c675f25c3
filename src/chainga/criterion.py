"""Subset merit J(S) and fast sweeps over crossover points and bit flips.

The merit of a feature subset S combines average feature-class relevance
and average feature-feature redundancy:

    J(S) = sum_fc / sqrt(n_s + sum_ff)

where sum_fc is the sum of fc over S and sum_ff the sum of ff over ordered
pairs of distinct members. The sweeps evaluate J for every candidate in
a few numpy passes: every single-bit flip from matrix-vector products,
every single-point crossover cut (both children) from prefix sums over
the positions where the parents differ. Candidates within a near-tie of
the best are then re-scored from scratch, so that results match naive
enumeration bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmv

from .infotheory import GainRatioMatrix

# prefix-sum and from-scratch sums agree far below this; used only to
# collect re-score candidates, never to decide the final argmax
_NEAR_TIE = 1e-9


@dataclass
class SubsetScore:
    j_value: float
    n_s: int
    sum_fc: float
    sum_ff: float


def _as_mask(mask, d: int) -> np.ndarray:
    m = np.asarray(mask)
    if m.size != d:
        raise ValueError(f"mask length {m.size} does not match feature count {d}")
    return m.astype(bool)


def score(mask, omega: GainRatioMatrix) -> SubsetScore:
    """Merit of the masked subset; the empty subset scores 0 by convention."""
    m = _as_mask(mask, omega.d)
    idx = np.flatnonzero(m)
    n_s = len(idx)
    if n_s == 0:
        return SubsetScore(0.0, 0, 0.0, 0.0)
    sum_fc = float(omega.fc[idx].sum())
    sum_ff = float(omega.ff[np.ix_(idx, idx)].sum())  # diagonal is zero
    return SubsetScore(sum_fc / math.sqrt(n_s + sum_ff), n_s, sum_fc, sum_ff)


def _crossed_sums(a: np.ndarray, b: np.ndarray, omega: GainRatioMatrix) -> np.ndarray:
    """(n_s, sum_fc, sum_ff) of both crossover children, shape (3, 2, m + 1).

    Cuts that cross the same number c of the m differing positions give the
    same children, so column c stands for all of them; row 0 is
    a[:k] + b[k:], row 1 is b[:k] + a[k:]. Crossing differing position t
    toggles it in both children and moves each child's sum_ff by t's pair
    weight with the child's members at that moment: its start parent (b for
    row 0, a for row 1) with the earlier differing positions swapped to the
    other parent.
    """
    fc, ff = omega.fc, omega.ff
    diff = np.flatnonzero(a != b)
    start = np.stack([b, a]).astype(np.float64)
    pair = start @ ff + start @ ff.T  # weight of each feature with each start, both orders
    turn = start[1] - start[0]  # +1 where a alone has the bit, -1 where b alone has it
    # tril(ff + ff.T) @ turn: the swap of the earlier positions (the diagonal is
    # zero); BLAS reads ff.T as ff's own buffer in Fortran order, without a copy
    earlier = dtrmv(ff.T, turn, trans=1) + dtrmv(ff.T, turn, lower=1)
    sign = np.stack([turn, -turn])
    steps = np.stack([sign, sign * fc, sign * pair + turn * earlier])
    base = np.stack([start.sum(axis=1), start @ fc, 0.5 * (start * pair).sum(axis=1)])
    return np.cumsum(np.concatenate([base[..., None], steps[..., diff]], axis=-1), axis=-1)


def sweep_crossover(parent_a, parent_b, omega: GainRatioMatrix) -> tuple[int, float]:
    """Best single-point crossover cut for two parents.

    The cut k in [1, d-1] splits both parents into prefix a[:k] + suffix
    b[k:] (and vice versa); returns the smallest k maximizing the better
    child's merit, together with that merit.
    """
    d = omega.d
    if d < 2:
        raise ValueError("crossover sweep needs at least 2 features")
    a = _as_mask(parent_a, d)
    b = _as_mask(parent_b, d)
    if np.array_equal(a, b):
        return 1, score(a, omega).j_value

    n, sum_fc, sum_ff = _crossed_sums(a, b, omega)
    # n_s + sum_ff >= 1 for a non-empty child; the floor only guards empty ones
    merit = np.where(n > 0, sum_fc / np.sqrt(np.maximum(n + sum_ff, 1.0)), 0.0)
    # the children at cut k are column crossed[k - 1]: differing positions before k
    crossed = np.searchsorted(np.flatnonzero(a != b), np.arange(1, d))
    approx = merit[:, crossed]
    near = approx >= approx.max() - _NEAR_TIE
    cuts = np.flatnonzero(near.any(axis=0))
    _, first = np.unique(crossed[cuts], return_index=True)  # smallest cut per pair of children

    k_star, best_j = 1, -math.inf
    for i in cuts[first].tolist():
        k = i + 1
        children = (np.concatenate([a[:k], b[k:]]), np.concatenate([b[:k], a[k:]]))
        value = max(score(c, omega).j_value for c, keep in zip(children, near[:, i]) if keep)
        if value > best_j:
            k_star, best_j = k, value
    return k_star, best_j


def sweep_mutation(mask, omega: GainRatioMatrix) -> tuple[int, float]:
    """Best single-bit flip for a mask.

    Returns the smallest flip index maximizing the flipped mask's merit.
    A flip that would empty the mask is only considered when it is the sole
    candidate (d == 1); otherwise the best non-emptying flip wins.
    """
    d = omega.d
    m = _as_mask(mask, d)
    base = score(m, omega)
    n = base.n_s
    if d == 1:
        flipped = ~m
        return 0, score(flipped, omega).j_value

    ind = m.astype(np.float64)
    rowcol = omega.ff @ ind + omega.ff.T @ ind
    with np.errstate(invalid="ignore", divide="ignore"):
        j_add = (base.sum_fc + omega.fc) / np.sqrt(n + 1 + base.sum_ff + rowcol)
        if n > 1:
            j_rem = (base.sum_fc - omega.fc) / np.sqrt(
                np.maximum(n - 1 + base.sum_ff - rowcol, 0.0)
            )
        else:
            j_rem = np.zeros(d)
    cand = np.where(m, j_rem, j_add)
    if n == 1:
        cand[m] = -np.inf  # emptying flip excluded while alternatives exist

    r_star, best_j = -1, -math.inf
    for r in np.flatnonzero(cand >= cand.max() - _NEAR_TIE).tolist():
        flipped = m.copy()
        flipped[r] = not flipped[r]
        value = score(flipped, omega).j_value
        if value > best_j:
            r_star, best_j = r, value
    return r_star, best_j
