"""Hand-rolled reference implementations the tests check the library against.

Everything here is deliberately naive (Counter-based entropies, double
loops, per-candidate enumeration) or is the loop-based predecessor of an
optimised kernel. Nothing shares code with the package beyond ``score``
and its near-tie tolerance, except ``serial_generation``, which replays
the GA's own operators on its fitness records one chain step at a time,
and ``loop_crossover``, which keeps the GA's best-of-three selection,
and the data-layer predecessors, which build the package's own tables
with its missing tokens and its stratified split, and the one-pair
crossover sweep, which breaks near-ties with the package's
``_break_tie``. The sweep oracles return (index, merit), except that
one-pair predecessor; the sweeps themselves return only the index.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter

import numpy as np
from scipy.linalg.blas import dtrmv
from scipy.spatial.distance import cdist

from chainga.criterion import _NEAR_TIE, _break_tie, score, sweep_crossover
from chainga.data import MISSING_TOKENS, TRAIN, DataError, Dataset, RawTable, _stratified_split
from chainga.evolution import _first_best, _repair, _stream, mutation_step
from chainga.infotheory import GainRatioMatrix

GRAM_BLOCK = 2**20  # entries of one query block's key matrix in gram_knn_predict


def ref_entropy(values) -> float:
    values = list(values)
    n = len(values)
    return -sum((c / n) * math.log2(c / n) for c in Counter(values).values())


def ref_information_gain(target, feature) -> float:
    target, feature = list(target), list(feature)
    n = len(target)
    conditional = 0.0
    for value, count in Counter(feature).items():
        subset = [t for t, f in zip(target, feature) if f == value]
        conditional += (count / n) * ref_entropy(subset)
    return ref_entropy(target) - conditional


def ref_gain_ratio_tables(columns, labels):
    """fc[i] = IG(labels, col_i)/H(col_i), ff[i][j] = IG(col_j, col_i)/H(col_i)."""
    d = len(columns)
    h = [ref_entropy(col) for col in columns]
    fc = [
        ref_information_gain(labels, col) / h[i] if h[i] > 0 else 0.0
        for i, col in enumerate(columns)
    ]
    ff = [[0.0] * d for _ in range(d)]
    for i in range(d):
        if h[i] <= 0:
            continue
        for j in range(d):
            if i != j:
                ff[i][j] = ref_information_gain(columns[j], columns[i]) / h[i]
    return fc, ff


def ref_subset_merit(selected, fc, ff) -> float:
    """Plain transcription of the subset criterion from its definition."""
    n_s = len(selected)
    if n_s == 0:
        return 0.0
    r_fc = sum(fc[i] for i in selected) / n_s
    if n_s == 1:
        return n_s * r_fc / math.sqrt(n_s)
    r_ff = sum(ff[i][j] for i in selected for j in selected if j != i) / (n_s * (n_s - 1))
    return n_s * r_fc / math.sqrt(n_s + n_s * (n_s - 1) * r_ff)


def subset_sums(mask, omega) -> tuple[int, float, float]:
    """(n_s, sum_fc, sum_ff) of the masked subset, summed from scratch in
    the order ``score`` uses."""
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    return len(idx), float(omega.fc[idx].sum()), float(omega.ff[np.ix_(idx, idx)].sum())


def oracle_crossover(a, b, omega):
    """Exhaustive enumeration of every cut, smallest-k tie-break."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    d = a.size
    best_k, best_j = None, -math.inf
    for k in range(1, d):
        child1 = np.concatenate([a[:k], b[k:]])
        child2 = np.concatenate([b[:k], a[k:]])
        j = max(score(child1, omega), score(child2, omega))
        if j > best_j:
            best_k, best_j = k, j
    return best_k, best_j


class _RunningScore:
    """Subset score maintained under add/remove-one-feature updates."""

    __slots__ = ("fc", "ff", "ind", "n", "sum_fc", "sum_ff")

    def __init__(self, mask: np.ndarray, omega):
        self.fc = omega.fc
        self.ff = omega.ff
        self.ind = mask.astype(np.float64)
        self.n, self.sum_fc, self.sum_ff = subset_sums(mask, omega)

    def set_bit(self, t: int, value: bool) -> None:
        if bool(self.ind[t]) == value:
            return
        # zero diagonal makes the pair delta safe to compute with t included
        delta = float(self.ff[t] @ self.ind + self.ff[:, t] @ self.ind)
        if value:
            self.n += 1
            self.sum_fc += self.fc[t]
            self.sum_ff += delta
            self.ind[t] = 1.0
        else:
            self.n -= 1
            self.sum_fc -= self.fc[t]
            self.sum_ff -= delta
            self.ind[t] = 0.0

    def j(self) -> float:
        if self.n == 0:
            return 0.0
        return self.sum_fc / math.sqrt(self.n + self.sum_ff)


def loop_sweep_crossover(parent_a, parent_b, omega) -> tuple[int, float]:
    """Predecessor of ``sweep_crossover``: walks the cuts in a Python loop,
    updating both children one differing bit at a time, then re-scores the
    near-ties from scratch."""
    d = omega.d
    if d < 2:
        raise ValueError("crossover sweep needs at least 2 features")
    a = np.asarray(parent_a, dtype=bool)
    b = np.asarray(parent_b, dtype=bool)
    if np.array_equal(a, b):
        return 1, score(a, omega)

    # child1(k) = a[:k] + b[k:], child2(k) = b[:k] + a[k:]
    child1 = _RunningScore(b, omega)
    child2 = _RunningScore(a, omega)
    j1 = np.empty(d - 1)
    j2 = np.empty(d - 1)
    flips = np.empty(d - 1, dtype=np.int64)  # differing positions crossed so far
    crossed = 0
    for k in range(1, d):
        t = k - 1
        if a[t] != b[t]:
            child1.set_bit(t, bool(a[t]))
            child2.set_bit(t, bool(b[t]))
            crossed += 1
        j1[k - 1] = child1.j()
        j2[k - 1] = child2.j()
        flips[k - 1] = crossed

    best = float(np.maximum(j1, j2).max())
    exact: dict[tuple[int, int], float] = {}

    def exact_j(which: int, k: int) -> float:
        key = (which, flips[k - 1])
        if key not in exact:
            mask = np.concatenate([a[:k], b[k:]]) if which == 1 else np.concatenate([b[:k], a[k:]])
            exact[key] = score(mask, omega)
        return exact[key]

    k_star, best_j = 1, -math.inf
    for k in range(1, d):
        approx = max(j1[k - 1], j2[k - 1])
        if approx < best - _NEAR_TIE:
            continue
        value = max(exact_j(1, k), exact_j(2, k))
        if value > best_j:
            k_star, best_j = k, value
    return k_star, best_j


def pairwise_crossed_sums(a: np.ndarray, b: np.ndarray, omega: GainRatioMatrix) -> np.ndarray:
    """Predecessor of ``criterion._crossed_sums``, one parent pair at a time:
    (n_s, sum_fc, sum_ff) of both crossover children, shape (3, 2, d).

    Column k holds the children of cut k; row 0 is a[:k] + b[k:], row 1 is
    b[:k] + a[k:]. Crossing differing position t toggles it in both
    children and moves each child's sum_ff by t's pair weight with the
    child's members at that moment: its start parent (b for row 0, a for
    row 1) with the earlier differing positions swapped to the other parent.
    The steps are zero where the parents agree, and adding 0.0 leaves a
    float unchanged, so every cut of a run of equal children gets the same
    sums bit for bit.
    """
    fc, ff = omega.fc, omega.ff
    start = np.stack([b, a]).astype(np.float64)
    pair = start @ ff + start @ ff.T  # weight of each feature with each start, both orders
    turn = start[1] - start[0]  # +1 where a alone has the bit, -1 where b alone has it
    # tril(ff + ff.T) @ turn: the swap of the earlier positions (the diagonal is
    # zero); BLAS reads ff.T as ff's own buffer in Fortran order, without a copy
    earlier = dtrmv(ff.T, turn, trans=1) + dtrmv(ff.T, turn, lower=1)
    sign = np.stack([turn, -turn])
    steps = np.stack([sign, sign * fc, sign * pair + turn * earlier])
    base = np.stack([start.sum(axis=1), start @ fc, 0.5 * (start * pair).sum(axis=1)])
    return np.cumsum(np.concatenate([base[..., None], steps[..., :-1]], axis=-1), axis=-1)


def pairwise_sweep_crossover(parent_a, parent_b, omega: GainRatioMatrix) -> int:
    """Predecessor of ``sweep_crossover``, one parent pair per call: the
    best single-point crossover cut for two parents.

    The cut k in [1, d-1] splits both parents into prefix a[:k] + suffix
    b[k:] (and vice versa); returns the smallest k maximizing the better
    child's merit.
    """
    d = omega.d
    if d < 2:
        raise ValueError("crossover sweep needs at least 2 features")
    a = np.asarray(parent_a, dtype=bool)
    b = np.asarray(parent_b, dtype=bool)
    if np.array_equal(a, b):
        return 1

    n, sum_fc, sum_ff = pairwise_crossed_sums(a, b, omega)[..., 1:]
    # n_s + sum_ff >= 1 for a non-empty child; the floor only guards empty ones
    merit = np.where(n > 0, sum_fc / np.sqrt(np.maximum(n + sum_ff, 1.0)), 0.0)
    near = merit >= merit.max() - _NEAR_TIE
    # cut k starts a run of equal children when k = 1 or position k - 1 differs
    first = a[:-1] != b[:-1]
    first[0] = True
    cuts = np.flatnonzero(near.any(axis=0) & first)
    # (cut, row) of each near child in cut order; row 0 is a[:k] + b[k:]
    picks = [(i + 1, row) for i in cuts.tolist() for row in np.flatnonzero(near[:, i]).tolist()]
    parents = (a, b)
    children = [np.concatenate([parents[row][:k], parents[1 - row][k:]]) for k, row in picks]
    return picks[_break_tie(children, omega)][0]


def oracle_mutation(mask, omega):
    """Exhaustive flip enumeration, smallest-index tie-break, never
    emptying the mask unless it is the only option."""
    mask = np.asarray(mask, dtype=bool)
    d = mask.size
    best_r, best_j = None, -math.inf
    for r in range(d):
        flipped = mask.copy()
        flipped[r] = not flipped[r]
        if d > 1 and not flipped.any():
            continue
        j = score(flipped, omega)
        if j > best_j:
            best_r, best_j = r, j
    return best_r, best_j


def random_omega(rng, d):
    """Random but structurally valid gain-ratio tables."""
    fc = rng.uniform(0.0, 1.0, size=d)
    ff = rng.uniform(0.0, 1.0, size=(d, d))
    np.fill_diagonal(ff, 0.0)
    return GainRatioMatrix(fc, ff)


def loop_build_omega(dataset, rows=None):
    """The predecessor of ``rowwise_build_omega``: one bincount and one pairwise
    ``.sum()`` entropy per feature, per (feature, class) pair and per
    feature pair, in a double loop over the pairs."""
    def codes(values):
        _, inverse = np.unique(values, return_inverse=True)
        return inverse, int(inverse.max()) + 1

    def entropy_from_counts(counts):
        p = counts[counts > 0] / counts.sum()
        return float(-(p * np.log2(p)).sum())

    if rows is None:
        rows = dataset.train_idx
    rows = np.asarray(rows)
    if rows.size < 2:
        raise ValueError("gain-ratio matrix needs at least 2 rows")

    X = dataset.X_disc[rows]
    d = X.shape[1]
    columns = [codes(X[:, i]) for i in range(d)]
    h = np.array([entropy_from_counts(np.bincount(c, minlength=k)) for c, k in columns])
    yc, ky = codes(dataset.y[rows])
    h_y = entropy_from_counts(np.bincount(yc, minlength=ky))

    fc = np.zeros(d)
    ff = np.zeros((d, d))
    for i in range(d):
        ci, ki = columns[i]
        if h[i] <= 0.0:
            continue
        h_iy = entropy_from_counts(np.bincount(ci * ky + yc, minlength=ki * ky))
        fc[i] = (h[i] + h_y - h_iy) / h[i]
    for i in range(d):
        ci, ki = columns[i]
        for j in range(i + 1, d):
            cj, kj = columns[j]
            h_ij = entropy_from_counts(np.bincount(ci * kj + cj, minlength=ki * kj))
            mi = h[i] + h[j] - h_ij
            if h[i] > 0.0:
                ff[i, j] = mi / h[i]
            if h[j] > 0.0:
                ff[j, i] = mi / h[j]

    np.clip(fc, 0.0, 1.0, out=fc)
    np.clip(ff, 0.0, 1.0, out=ff)
    return GainRatioMatrix(fc, ff)


def _rowwise_codes(values) -> tuple[np.ndarray, int]:
    _, inverse = np.unique(np.asarray(values).ravel(), return_inverse=True)
    return inverse, int(inverse.max()) + 1


def _rowwise_entropies(codes: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Entropy in bits of every column of an (n, m) code matrix whose
    column t holds codes in [0, sizes[t]): one bincount over the codes
    shifted by each column's offset, then one segmented sum of p*log2(p)
    over the nonzero cells."""
    offsets = np.cumsum(sizes) - sizes
    counts = np.bincount((codes + offsets).ravel(), minlength=int(sizes.sum()))
    cells = np.flatnonzero(counts)
    p = counts[cells] / codes.shape[0]
    return -np.add.reduceat(p * np.log2(p), np.searchsorted(cells, offsets))


def rowwise_build_omega(dataset, rows=None) -> GainRatioMatrix:
    """The predecessor of ``build_omega``: one ``_rowwise_entropies`` call
    per feature row i covers its joint codes with every later feature
    j > i, over n×(d−1−i) int64 temporaries."""
    if rows is None:
        rows = dataset.train_idx
    rows = np.asarray(rows)
    if rows.size < 2:
        raise ValueError("gain-ratio matrix needs at least 2 rows")

    X = dataset.X_disc[rows]
    d = X.shape[1]
    codes, k = np.empty_like(X), np.empty(d, dtype=np.int64)
    for i in range(d):
        codes[:, i], k[i] = _rowwise_codes(X[:, i])
    yc, ky = _rowwise_codes(dataset.y[rows])

    h = _rowwise_entropies(codes, k)
    h_y = _rowwise_entropies(yc[:, None], np.array([ky]))[0]
    h_iy = _rowwise_entropies(codes * ky + yc[:, None], k * ky)
    informative = h > 0.0
    fc = np.divide(h + h_y - h_iy, h, out=np.zeros(d), where=informative)
    ff = np.zeros((d, d))  # each pair's mutual information, then divided in place
    for i in range(d - 1):
        h_ij = _rowwise_entropies(codes[:, i, None] * k[i + 1 :] + codes[:, i + 1 :], k[i] * k[i + 1 :])
        ff[i, i + 1 :] = ff[i + 1 :, i] = h[i] + h[i + 1 :] - h_ij
    np.divide(ff, h[:, None], out=ff, where=informative[:, None])
    ff[~informative] = 0.0

    np.clip(fc, 0.0, 1.0, out=fc)
    np.clip(ff, 0.0, 1.0, out=ff)
    return GainRatioMatrix(fc, ff)


def argsort_knn_predict(train_X, train_y, query_X, k):
    """The predecessor of ``cdist_knn_predict``: a stable argsort of every row of
    the distance matrix, then ``np.add.at`` votes and ``np.minimum.at``
    first ranks."""
    if train_X.shape[0] == 0:
        raise ValueError("empty training set")
    if train_X.ndim != 2 or train_X.shape[1] == 0:
        raise ValueError("training matrix must select at least one feature")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    k = min(k, train_X.shape[0])
    dists = cdist(query_X, train_X)
    # stable argsort keeps lower training-row index first on equal distance
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    labels = train_y[order]  # (n_query, k) in distance order

    n_query = labels.shape[0]
    n_classes = int(train_y.max()) + 1
    rows = np.repeat(np.arange(n_query), k)
    cols = labels.ravel()
    votes = np.zeros((n_query, n_classes), dtype=np.int64)
    np.add.at(votes, (rows, cols), 1)
    first_rank = np.full((n_query, n_classes), k, dtype=np.int64)
    np.minimum.at(first_rank, (rows, cols), np.tile(np.arange(k), n_query))

    tied = votes == votes.max(axis=1, keepdims=True)
    rank_among_tied = np.where(tied, first_rank, k + 1)
    return np.argmin(rank_among_tied, axis=1)


def cdist_knn_predict(train_X, train_y, query_X, k):
    """The predecessor of ``gram_knn_predict``: the full ``cdist`` matrix,
    ``np.partition`` at each row's k-th distance, a stable sort of only the
    entries at or below it, and one ``np.bincount`` vote."""
    if train_X.shape[0] == 0:
        raise ValueError("empty training set")
    if train_X.ndim != 2 or train_X.shape[1] == 0:
        raise ValueError("training matrix must select at least one feature")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    dists = cdist(query_X, train_X)
    n_query, n_train = dists.shape
    k = min(k, n_train)
    kth = np.partition(dists, k - 1, axis=1)[:, [k - 1]]
    # every entry <= the k-th value is a candidate; columns ascend within a row
    rows, cols = np.nonzero(dists <= kth)
    order = np.lexsort((dists[rows, cols], rows))  # stable: ties keep column order
    counts = np.bincount(rows, minlength=n_query)
    starts = np.cumsum(counts) - counts
    labels = train_y[cols[order][starts[:, None] + np.arange(k)]]  # (n_query, k) in distance order

    n_classes = int(train_y.max()) + 1
    rows = np.arange(len(labels))[:, None]
    votes = np.bincount((rows * n_classes + labels).ravel(), minlength=rows.size * n_classes)
    votes = votes.reshape(rows.size, n_classes)
    top = votes[rows, labels] == votes.max(axis=1, keepdims=True)
    return labels[rows[:, 0], np.argmax(top, axis=1)]


def gram_knn_predict(train_X: np.ndarray, train_y: np.ndarray, query_X: np.ndarray, k: int) -> np.ndarray:
    """The predecessor of ``knn_predict``: every query block ranks its
    Gram-filtered candidates with exact distances, whether or not their
    order can change the vote.

    Distance ties prefer the lower training-row index; vote ties among
    classes prefer the class whose nearest member ranks first.
    """
    if train_X.shape[0] == 0:
        raise ValueError("empty training set")
    if train_X.ndim != 2 or train_X.shape[1] == 0:
        raise ValueError("training matrix must select at least one feature")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if query_X.ndim != 2 or query_X.shape[1] != train_X.shape[1]:
        raise ValueError(f"query matrix must be 2-D with {train_X.shape[1]} columns, got shape {query_X.shape}")

    step = max(1, GRAM_BLOCK // train_X.shape[0])
    blocks = range(0, max(len(query_X), 1), step)
    labels = train_y[np.concatenate([gram_nearest(query_X[i:i + step], train_X, k) for i in blocks])]

    n_classes = int(train_y.max()) + 1
    rows = np.arange(len(labels))[:, None]
    votes = np.bincount((rows * n_classes + labels).ravel(), minlength=rows.size * n_classes)
    votes = votes.reshape(rows.size, n_classes)
    # the first rank holding a top-voted class holds the tied class whose
    # nearest member ranks first
    top = votes[rows, labels] == votes.max(axis=1, keepdims=True)
    return labels[rows[:, 0], np.argmax(top, axis=1)]


def gram_nearest(query_X: np.ndarray, train_X: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each query's k nearest training rows, ordered by
    (distance, column): the first k columns of a stable argsort of
    ``cdist(query_X, train_X)``, without computing or sorting that matrix."""
    (n_query, d), n_train = query_X.shape, train_X.shape[0]
    k = min(k, n_train)
    t_sq = np.einsum("ij,ij->i", train_X, train_X)
    key = query_X @ train_X.T
    key *= -2.0
    key += t_sq  # |q - t|^2 - |q|^2: the same order within a row
    kth = np.partition(key, k - 1, axis=1)[:, [k - 1]]
    # With u = eps/2 and S = |q|^2 + max|t|^2 >= |q - t|^2 / 2: a key is off by
    # <= (2d + 2)uS (GEMM, |t|^2), cdist's in-order sum by <= (d + 2)u|q - t|^2,
    # and sqrt merges squares <= 4u apart. So a column cdist ranks at or before
    # one keyed <= kth is keyed <= kth + (8d + 20)uS; the slack is (16d + 64)uS.
    q_sq = np.einsum("ij,ij->i", query_X, query_X)[:, None]
    slack = 8 * (d + 4) * np.finfo(float).eps * (q_sq + t_sq.max())
    rows, cols = np.divmod(np.flatnonzero(key <= kth + slack), n_train)  # columns ascend within a row
    dists = np.empty(rows.size)
    chunk = max(1, GRAM_BLOCK // d)
    for s in range(0, rows.size, chunk):  # summed in feature order as cdist sums: bit-identical
        r, c = rows[s:s + chunk], cols[s:s + chunk]
        dists[s:s + chunk] = np.sqrt(np.add.accumulate((query_X[r] - train_X[c]) ** 2, axis=1)[:, -1])
    order = np.lexsort((dists, rows))  # stable: ties keep column order
    counts = np.bincount(rows, minlength=n_query)
    starts = np.cumsum(counts) - counts
    return cols[order][starts[:, None] + np.arange(k)]


def loop_crossover(subpops, steps, omega, config, rngs, evaluate_many):
    """The predecessor of ``evolution._crossover``: builds each step's two
    children one at a time with ``np.concatenate`` and ``_repair``, drawing
    the uniform cut, then child A's repair, then child B's, step by step.
    Scores every child in one batch and keeps the best of three per slot.
    Returns each step's two children."""
    parents = np.array([(subpops[i][j].genes, subpops[i][(j + 1) % len(subpops[i])].genes)
                        for i, j in steps]).reshape(len(steps), 2, omega.d)
    if config.diversity_crossover:
        guided = sweep_crossover(parents[:, 0], parents[:, 1], omega).tolist()
    masks = []
    for t, (i, _) in enumerate(steps):
        (a, b), rng = parents[t], rngs[i]
        k = guided[t] if config.diversity_crossover else int(rng.integers(1, omega.d))
        masks.append(_repair(np.concatenate([a[:k], b[k:]]), rng))
        masks.append(_repair(np.concatenate([b[:k], a[k:]]), rng))
    children = evaluate_many(masks)
    pairs = [children[t : t + 2] for t in range(0, len(children), 2)]
    for (i, j), pair in zip(steps, pairs):
        subpops[i][j] = _first_best([subpops[i][j], *pair])
    return pairs


def _serial_chain_step(subpop, j, omega, config, rng, evaluate, evaluated):
    """Cross position j with its chain successor and keep the best of three
    (ties keep the incumbent, then child A), written back at once."""
    size = len(subpop)
    partner_idx = (j + 1) % size
    if partner_idx == j or omega.d < 2:
        return
    incumbent, partner = subpop[j], subpop[partner_idx]
    if config.diversity_crossover:
        k = sweep_crossover(incumbent.genes, partner.genes, omega)
    else:
        k = int(rng.integers(1, omega.d))
    genes_a = _repair(np.concatenate([incumbent.genes[:k], partner.genes[k:]]), rng)
    genes_b = _repair(np.concatenate([partner.genes[:k], incumbent.genes[k:]]), rng)
    child_a, child_b = evaluate(genes_a), evaluate(genes_b)
    evaluated += [child_a, child_b]
    best = incumbent
    if child_a.fitness > best.fitness:
        best = child_a
    if child_b.fitness > best.fitness:
        best = child_b
    subpop[j] = best


def serial_generation(subpops, generation, omega, config, evaluate):
    """The predecessor of ``evolution._generation``: each subpopulation in
    turn walks its chain of fitness records one crossover step at a time
    (each step sees the slots the earlier steps wrote), then mutates each
    slot and scores the mutant at once, one ``evaluate`` call per mask.
    Returns every record evaluated, in that order."""
    evaluated = []
    for i, subpop in enumerate(subpops):
        rng = _stream(config.seed, 1, generation, i)
        for j in range(len(subpop)):
            _serial_chain_step(subpop, j, omega, config, rng, evaluate, evaluated)
        for j in range(len(subpop)):
            genes = mutation_step(subpop[j].genes, omega, config, rng)
            if genes is not None:
                subpop[j] = evaluate(genes)
                evaluated.append(subpop[j])
    return evaluated


def _parse_number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def two_pass_load_csv(path, label_column: str, header: bool = True) -> RawTable:
    """The predecessor of ``load_csv``: a transposed copy of the stripped
    cells, each present cell float-parsed once to type its column and again
    to build it, and the missing tokens matched by lower-casing each cell
    up to three times. It reads the file as plain UTF-8, so a byte-order
    mark stays in the first name, and it accepts NULs and repeated names.
    Like ``load_csv``, it counts label classes through ``label_values``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except FileNotFoundError as exc:
        raise DataError(f"dataset file not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset file is not UTF-8 text: {path}") from exc
    except csv.Error as exc:
        raise DataError(f"malformed CSV in {path}: {exc}") from exc

    if not rows:
        raise DataError(f"empty table: {path}")

    if header:
        names = [c.strip() for c in rows[0]]
        body = rows[1:]
    else:
        names = [f"f{i}" for i in range(len(rows[0]))]
        body = rows
    if not body:
        raise DataError(f"table has a header but no data rows: {path}")

    width = len(names)
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataError(
                f"ragged row {i + (2 if header else 1)} in {path}: "
                f"expected {width} fields, got {len(row)}"
            )
    if label_column not in names:
        raise DataError(f"label column {label_column!r} not present in {path}")

    cells = [[row[j].strip() for row in body] for j in range(width)]
    columns: list[np.ndarray] = []
    for name, col in zip(names, cells):
        present = [v for v in col if v.lower() not in MISSING_TOKENS]
        n_missing = len(col) - len(present)
        numeric = bool(present) and all(_parse_number(v) is not None for v in present)
        if numeric:
            values = np.array(
                [_parse_number(v) if v.lower() not in MISSING_TOKENS else np.nan for v in col],
                dtype=np.float64,
            )
            if np.count_nonzero(np.isfinite(values)) != len(present):  # inf, 1e999, -nan
                raise DataError(f"column {name!r} in {path} holds a non-finite number")
            if n_missing:
                values[np.isnan(values)] = float(np.median(values[~np.isnan(values)]))
        else:
            if not present:
                raise DataError(f"column {name!r} in {path} is entirely missing")
            uniq, counts = np.unique(np.array(present, dtype=object), return_counts=True)
            mode = uniq[np.argmax(counts)]
            values = np.array(
                [v if v.lower() not in MISSING_TOKENS else mode for v in col], dtype=object
            )
        columns.append(values)

    raw = RawTable(names, columns, label_column)
    if len(np.unique(raw.label_values().astype(str))) < 2:
        raise DataError(f"label column {label_column!r} has fewer than 2 distinct values")
    return raw


def columnwise_load_csv(path, label_column: str, header: bool = True) -> RawTable:
    """The predecessor of ``load_csv``: every row of the file held as a
    list of cells at once, then a stripped copy of each column, each column
    typed by float-parsing its present cells. Its errors and their order
    are the ones ``load_csv`` keeps."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
        if "\x00" in text:  # numpy strings drop trailing NULs, merging categories
            raise DataError(f"dataset file holds a NUL character: {path}")
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    except FileNotFoundError as exc:
        raise DataError(f"dataset file not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset file is not UTF-8 text: {path}") from exc
    except csv.Error as exc:
        raise DataError(f"malformed CSV in {path}: {exc}") from exc

    if not rows:
        raise DataError(f"empty table: {path}")

    if header:
        names = [c.strip() for c in rows[0]]
        body = rows[1:]
    else:
        names = [f"f{i}" for i in range(len(rows[0]))]
        body = rows
    if not body:
        raise DataError(f"table has a header but no data rows: {path}")

    width = len(names)
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataError(
                f"ragged row {i + (2 if header else 1)} in {path}: "
                f"expected {width} fields, got {len(row)}"
            )
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise DataError(f"header of {path} repeats column name(s) {', '.join(map(repr, repeated))}")
    if label_column not in names:
        raise DataError(f"label column {label_column!r} not present in {path}")

    columns: list[np.ndarray] = []
    for name, col in zip(names, zip(*body)):
        cells = [v.strip() for v in col]
        missing = [v.lower() in MISSING_TOKENS for v in cells]
        n_missing = sum(missing)
        present = [v for v, m in zip(cells, missing) if not m] if n_missing else cells
        if not present:
            raise DataError(f"column {name!r} in {path} is entirely missing")
        try:
            values = np.array([float(v) for v in present])
        except ValueError:  # a text cell: the column is categorical
            values = np.array(present, dtype=object)
        numeric = values.dtype != object
        if numeric and not np.isfinite(values).all():  # inf, 1e999, -nan
            raise DataError(f"column {name!r} in {path} holds a non-finite number")
        if n_missing:
            if numeric:
                fill = np.median(values)
            else:
                uniq, counts = np.unique(values, return_counts=True)
                fill = uniq[np.argmax(counts)]  # the smallest of the most frequent
            full = np.full(len(cells), fill, dtype=values.dtype)
            full[~np.array(missing)] = values
            values = full
        columns.append(values)

    raw = RawTable(names, columns, label_column)
    if len(np.unique(raw.label_values().astype(str))) < 2:
        raise DataError(f"label column {label_column!r} has fewer than 2 distinct values")
    return raw


def dict_prepare(raw: RawTable, bins: int = 10, split_seed=0) -> Dataset:
    """The predecessor of ``prepare``: class and category codes from a
    sorted list of the distinct strings, a dict and a per-row lookup."""
    if bins < 2:
        raise DataError(f"bins must be >= 2, got {bins}")

    label_raw = raw.label_values()
    class_names = sorted(str(v) for v in np.unique(label_raw.astype(str)))
    class_code = {name: i for i, name in enumerate(class_names)}
    y = np.array([class_code[str(v)] for v in label_raw], dtype=np.int64)

    split = _stratified_split(y, len(class_names), split_seed)
    train = split == TRAIN

    feat_cols = [(name, col) for name, col in zip(raw.names, raw.columns) if name != raw.label_column]
    n, d = raw.n_rows, len(feat_cols)
    X_cont = np.zeros((n, d), dtype=np.float64)
    X_disc = np.zeros((n, d), dtype=np.int64)

    for j, (_, col) in enumerate(feat_cols):
        numeric = col.dtype != object
        if numeric:
            values = col.astype(np.float64)
        else:
            cats = sorted(str(v) for v in np.unique(col.astype(str)))
            code = {c: i for i, c in enumerate(cats)}
            values = np.array([code[str(v)] for v in col], dtype=np.float64)
            X_disc[:, j] = values.astype(np.int64)

        ref = values[train] if train.any() else values
        lo, hi = float(ref.min()), float(ref.max())
        span = hi - lo
        if span > 0:
            X_cont[:, j] = np.clip((values - lo) / span, 0.0, 1.0)
            if numeric:
                idx = np.floor((values - lo) / (span / bins)).astype(np.int64)
                X_disc[:, j] = np.clip(idx, 0, bins - 1)
        # constant training column: X_cont stays 0, and X_disc too if numeric

    return Dataset(X_cont, X_disc, y, split, [f[0] for f in feat_cols], class_names, bins)


def columnwise_prepare(raw: RawTable, bins: int = 10, split_seed=0) -> Dataset:
    """The predecessor of ``prepare``: one pass per feature column, with
    the range check in Python floats and each column's training minimum
    and maximum from its own 1-D reduction."""
    if bins < 2:
        raise DataError(f"bins must be >= 2, got {bins}")

    feat_cols = [(name, col) for name, col in zip(raw.names, raw.columns) if name != raw.label_column]
    if not feat_cols:
        raise DataError(f"table has no feature column besides the label {raw.label_column!r}")
    class_names, y = np.unique(raw.label_values().astype(str), return_inverse=True)
    split = _stratified_split(y, len(class_names), split_seed)
    train = split == TRAIN

    n, d = raw.n_rows, len(feat_cols)
    X_cont = np.zeros((n, d), dtype=np.float64)
    X_disc = np.zeros((n, d), dtype=np.int64)

    for j, (name, col) in enumerate(feat_cols):
        numeric = col.dtype != object
        if numeric:
            values = col.astype(np.float64)
        else:
            codes = np.unique(col.astype(str), return_inverse=True)[1]
            values = codes.astype(np.float64)
            X_disc[:, j] = codes

        ref = values[train] if train.any() else values
        lo, hi = float(ref.min()), float(ref.max())
        span = hi - lo
        # in Python floats a range past float64 is inf, without numpy's overflow warning
        if not np.isfinite(float(values.max()) - float(values.min())) or (span > 0 and span / bins == 0):
            raise DataError(f"column {name!r} spans a range that float64 cannot scale into {bins} bins")
        if span > 0:
            with np.errstate(over="ignore"):  # a subnormal span scales held-out values to inf
                X_cont[:, j] = np.clip((values - lo) / span, 0.0, 1.0)
                if numeric:  # clipped before the cast, which inf would not survive
                    X_disc[:, j] = np.clip(np.floor((values - lo) / (span / bins)), 0, bins - 1)
        # constant training column: X_cont stays 0, and X_disc too if numeric

    return Dataset(X_cont, X_disc, y, split, [f[0] for f in feat_cols], class_names.tolist(), bins)
