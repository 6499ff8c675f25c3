"""Subset merit J(S) and fast sweeps over crossover points and bit flips.

The merit of a feature subset S combines average feature-class relevance
and average feature-feature redundancy:

    J(S) = sum_fc / sqrt(n_s + sum_ff)

where sum_fc is the sum of fc over S and sum_ff the sum of ff over ordered
pairs of distinct members. The sweeps evaluate J for every candidate in
a few numpy passes: every single-bit flip from one matrix-vector product,
every single-point crossover cut (both children) from prefix sums that
step only where the parents differ. One crossover sweep takes a whole
batch of parent pairs, so a generation phase reads Omega in one matrix
product. Candidates within a near-tie of a pair's best are then re-scored
from scratch, so that results match naive enumeration bit for bit; a lone
candidate needs no re-score. The sweeps return only the chosen cut or site.
"""

from __future__ import annotations

import math

import numpy as np

from .infotheory import GainRatioMatrix

# prefix-sum and from-scratch sums agree far below this, so the exact best
# is always among the candidates within it of the approximate best
_NEAR_TIE = 1e-9


def score(mask, omega: GainRatioMatrix) -> float:
    """Merit of the masked subset; the empty subset scores 0 by convention."""
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        return 0.0
    sum_fc = float(omega.fc[idx].sum())
    sum_ff = float(omega.ff[np.ix_(idx, idx)].sum())  # diagonal is zero
    return sum_fc / math.sqrt(idx.size + sum_ff)


def _break_tie(candidates: list[np.ndarray], omega: GainRatioMatrix) -> int:
    """Index of the first candidate mask with the top exact merit.

    Each distinct mask is scored from scratch once, and only when there are
    two or more of them; a lone mask wins unscored.
    """
    first: dict[bytes, int] = {}
    for i, c in enumerate(candidates):
        first.setdefault(c.tobytes(), i)
    if len(first) == 1:
        return 0
    merits = {i: score(candidates[i], omega) for i in first.values()}
    return max(merits, key=merits.__getitem__)


def _crossed_sums(a: np.ndarray, b: np.ndarray, omega: GainRatioMatrix) -> np.ndarray:
    """(n_s, sum_fc, sum_ff) of both children of each (P, d) parent pair, shape (3, 2, P, d).

    Column k holds the children of cut k; row 0 is a[:k] + b[k:], row 1 is
    b[:k] + a[k:]. Crossing differing position t toggles it in both
    children and moves each child's sum_ff by t's pair weight with the
    child's members at that moment: its start parent (b for row 0, a for
    row 1) with the earlier differing positions swapped to the other parent.
    The steps are zero where the parents agree, and adding 0.0 leaves a
    float unchanged, so every cut of a run of equal children gets the same
    sums bit for bit.
    """
    fc, weights = omega.fc, omega.pair_weights
    start = np.stack([b, a]).astype(np.float64)
    # weight of each feature with each start, both orders: one GEMM for all pairs
    pair = (start.reshape(-1, omega.d) @ weights).reshape(start.shape)
    turn = start[1] - start[0]  # +1 where a alone has the bit, -1 where b alone has it
    earlier = turn @ omega.upper_weights  # the swap of the earlier positions
    sign = np.stack([turn, -turn])
    steps = np.stack([sign, sign * fc, sign * pair + turn * earlier])
    base = np.stack([start.sum(axis=-1), start @ fc, 0.5 * (start * pair).sum(axis=-1)])
    sums = np.concatenate([base[..., None], steps[..., :-1]], axis=-1)
    return np.cumsum(sums, axis=-1, out=sums)


def sweep_crossover(parent_a, parent_b, omega: GainRatioMatrix) -> int | np.ndarray:
    """Best single-point crossover cut for each pair of parents.

    The cut k in [1, d-1] splits both parents into prefix a[:k] + suffix
    b[k:] (and vice versa); each pair gets the smallest k maximizing the
    better child's merit. Parents of shape (..., d) give cuts of shape
    (...), so one pair gives an int.
    """
    d = omega.d
    a, b = np.asarray(parent_a, dtype=bool), np.asarray(parent_b, dtype=bool)
    shape = a.shape[:-1]
    a, b = a.reshape(-1, d), b.reshape(-1, d)
    cuts = np.ones(len(a), dtype=np.int64)  # equal parents: every cut gives them back
    differ = np.flatnonzero((a != b).any(axis=1))
    if not differ.size:
        return int(cuts[0]) if not shape else cuts.reshape(shape)
    a, b = a[differ], b[differ]
    n, sum_fc, sum_ff = _crossed_sums(a, b, omega)[..., 1:]
    # n_s + sum_ff >= 1 for a non-empty child; the floor only guards empty ones
    root = np.sqrt(np.maximum(np.add(n, sum_ff, out=sum_ff), 1.0, out=sum_ff), out=sum_ff)
    merit = np.divide(sum_fc, root, out=sum_fc)
    merit[n == 0] = 0.0
    near = merit >= merit.max(axis=(0, 2), keepdims=True) - _NEAR_TIE
    # cut k starts a run of equal children when k = 1 or position k - 1 differs
    first = a[:, :-1] != b[:, :-1]
    first[:, 0] = True
    # (pair, cut, row) of each near child, in cut order within a pair
    pair, cut, row = np.nonzero((near & first).transpose(1, 2, 0))
    cut += 1
    counts = np.bincount(pair, minlength=len(a))
    heads = np.cumsum(counts) - counts
    cuts[differ] = cut[heads]  # each pair's first near child; a lone one wins unscored
    for p in np.flatnonzero(counts > 1).tolist():
        picks = slice(heads[p], heads[p] + counts[p])
        children = [np.concatenate([(a, b)[r][p, :k], (a, b)[1 - r][p, k:]])
                    for k, r in zip(cut[picks], row[picks])]
        cuts[differ[p]] = cut[picks][_break_tie(children, omega)]
    return int(cuts[0]) if not shape else cuts.reshape(shape)


def sweep_mutation(mask, omega: GainRatioMatrix) -> int:
    """Best single-bit flip for a mask.

    Returns the smallest flip index maximizing the flipped mask's merit.
    A flip that would empty the mask is only considered when it is the sole
    candidate (d == 1); otherwise the best non-emptying flip wins.
    """
    m = np.asarray(mask, dtype=bool)
    ind = m.astype(np.float64)
    rowcol = omega.pair_weights @ ind
    n, sum_fc, sum_ff = m.sum(), omega.fc @ ind, 0.5 * (ind @ rowcol)
    with np.errstate(invalid="ignore", divide="ignore"):
        j_add = (sum_fc + omega.fc) / np.sqrt(n + 1 + sum_ff + rowcol)
        j_rem = (sum_fc - omega.fc) / np.sqrt(np.maximum(n - 1 + sum_ff - rowcol, 0.0))
    cand = np.where(m, j_rem, j_add)
    if n == 1:
        cand[m] = -np.inf  # emptying flip excluded while alternatives exist

    sites = np.flatnonzero(cand >= cand.max() - _NEAR_TIE)
    flipped = m != (sites[:, None] == np.arange(m.size))  # row t flips site sites[t]
    return int(sites[_break_tie(list(flipped), omega)])
