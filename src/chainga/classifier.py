"""KNN wrapper classifier, classification metrics, and the fitness function."""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset

_BLOCK = 2**20  # entries of one query block's n_query x n_train key matrix (8 MiB)


def cdist(XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of XA to each row of XB, each summed in
    feature order as scipy's ``cdist`` sums, so bit-identical to it. Blocks of
    XA's rows bound the (rows, len(XB), d) differences to _BLOCK entries."""
    out = np.empty((len(XA), len(XB)))
    step = max(1, _BLOCK // max(XB.size, 1))
    for i in range(0, len(XA), step):
        diff = XA[i:i + step, None] - XB
        diff *= diff  # sum and add.reduce may add pairwise; accumulate adds in order
        out[i:i + step] = np.add.accumulate(diff, axis=-1, out=diff)[..., -1]
        del diff  # before the next block's differences are made
    return np.sqrt(out, out=out)


def knn_predict(train_X: np.ndarray, train_y: np.ndarray, query_X: np.ndarray, k: int) -> np.ndarray:
    """Euclidean k-nearest-neighbour vote of the first k columns of a stable
    argsort of ``cdist``: distance ties prefer the lower training-row index,
    and vote ties the class whose nearest member ranks first.

    One GEMM keys each training row by ``|t|^2 - 2 q.t``; rows keyed within a rounding slack of the
    k-th key include the k nearest. Float32 keys halve the GEMM, partition and filter work, which
    pays from 480 training rows; but their slack grows with d, and past 80 features it refines more
    queries than they save. A query with exactly k candidates, one class topping their vote, is
    settled: its k nearest in any order give that vote. The rest stably argsort their candidates' ``cdist``."""
    (n_train, d), k, n_classes = train_X.shape, min(k, train_X.shape[0]), int(train_y.max()) + 1
    t_sq = np.einsum("ij,ij->i", train_X, train_X)
    s = np.einsum("ij,ij->i", query_X, query_X)[:, None] + t_sq.max()  # S below, one per query
    f32 = n_train >= 480 and d <= 80 and s.max(initial=0) < 2.0**120
    keys_X, keys_sq = (train_X.astype(np.float32), t_sq.astype(np.float32)) if f32 else (train_X, t_sq)
    # With u = eps/2 and S = |q|^2 + max|t|^2 >= |q - t|^2 / 2: a key is off by
    # <= (2d + 2)uS (GEMM, |t|^2), cdist's in-order sum by <= (d + 2)u|q - t|^2,
    # and sqrt merges squares <= 4u apart. So a column cdist ranks at or before
    # one keyed <= kth is keyed <= kth + (8d + 20)uS; the slack is (16d + 64)uS.
    # float32 keys, u = 2^-24 and m = 2^-126: rounding q and t to float32, the GEMM
    # in any summation order, |t|^2 and the add put a key <= (d + 6)uS + (4d + 1)m
    # off, as a result that underflows (or is flushed) is < m off. cdist adds < uS,
    # rounding kth + slack (|kth| <= 2S) 2uS + m: the slack is over twice the
    # (2d + 15)uS + (8d + 3)m this needs. S < 2^120 keeps each float32 value finite.
    slack = (4 * d + 32) * 2.0**-24 * s + (16 * d + 16) * 2.0**-126 if f32 else 8 * (d + 4) * np.finfo(float).eps * s
    pred = np.empty(len(query_X), dtype=np.intp)
    step = max(1, _BLOCK // n_train)
    for i in range(0, len(query_X), step):  # query blocks bound the key matrix
        query, out = query_X[i:i + step], pred[i:i + step]
        key = (-2.0 * query).astype(keys_X.dtype, copy=False) @ keys_X.T
        key += keys_sq  # |q - t|^2 - |q|^2: the same order within a row
        limit = (np.partition(key, k - 1, axis=1)[:, [k - 1]] + slack[i:i + step]).astype(key.dtype, copy=False)
        rows, cols = np.divmod(np.flatnonzero(key <= limit), n_train)  # columns ascend within a row
        votes = np.bincount(rows * n_classes + train_y[cols], minlength=out.size * n_classes).reshape(-1, n_classes)
        top = votes == votes.max(axis=1, keepdims=True)
        out[:] = np.argmax(top, axis=1)  # a settled query's class
        refine = (np.bincount(rows, minlength=out.size) > k) | (np.count_nonzero(top, axis=1) > 1)
        if not refine.any():
            continue
        cand = np.unique(cols[refine[rows]])  # ascending: holds each refined query's k nearest
        labels = train_y[cand[np.argsort(cdist(query[refine], train_X[cand]), axis=1, kind="stable")[:, :k]]]
        ranks = np.arange(len(labels))[:, None]
        votes = np.bincount((ranks * n_classes + labels).ravel(), minlength=ranks.size * n_classes)
        votes = votes.reshape(-1, n_classes)
        # the first rank holding a top-voted class holds the tied class whose nearest member ranks first
        top = votes[ranks, labels] == votes.max(axis=1, keepdims=True)
        out[refine] = labels[ranks[:, 0], np.argmax(top, axis=1)]
    return pred


@dataclass
class MetricBundle:
    """Accuracy and class-support-weighted precision, recall and F1."""

    accuracy: float
    precision: float
    recall: float
    f1: float


def evaluate_metrics(y_true, y_pred, n_classes: int) -> MetricBundle:
    """Per-class one-vs-rest counts aggregated by class-support weights.

    Per-class precision/recall default to 0 when undefined, and F1 is 0
    when precision + recall is 0.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = np.bincount(y_true[y_true == y_pred], minlength=n_classes)
    predicted = np.bincount(y_pred, minlength=n_classes)
    support = np.bincount(y_true, minlength=n_classes)

    with np.errstate(invalid="ignore", divide="ignore"):
        prec = np.where(predicted > 0, tp / np.maximum(predicted, 1), 0.0)
        rec = np.where(support > 0, tp / np.maximum(support, 1), 0.0)
        f1 = np.where(prec + rec > 0, 2 * prec * rec / np.maximum(prec + rec, 1e-300), 0.0)

    weights = support / y_true.size
    return MetricBundle(
        accuracy=float(tp.sum() / y_true.size),
        precision=float((weights * prec).sum()),
        recall=float((weights * rec).sum()),
        f1=float((weights * f1).sum()),
    )


def combine_fitness(acc: float, n_selected: int, n_features: int, alpha: float) -> float:
    """Trade accuracy against subset size: (1-alpha)*acc + alpha*(1 - n_s/n_f)."""
    return (1.0 - alpha) * acc + alpha * (1.0 - n_selected / n_features)


@dataclass(frozen=True)
class FitnessRecord:
    """A scored mask: the GA's chromosome. Equal records have equal scores,
    whatever their genes."""

    genes: np.ndarray = field(compare=False)  # read-only
    fitness: float
    n_selected: int


def mask_key(mask: np.ndarray) -> bytes:
    return np.asarray(mask, dtype=bool).tobytes()


@dataclass
class FitnessEvaluator:
    """Wrapper fitness: train KNN on the training partition, measure
    accuracy on the validation partition, combine with the compression
    reward. Results are cached by mask digest, so re-evaluating a mask
    never re-runs the classifier. The partitions are stored feature-major,
    so a mask gathers contiguous rows.
    """

    dataset: Dataset
    alpha: float
    k: int
    cache: dict[bytes, FitnessRecord]

    def __post_init__(self):
        ds = self.dataset
        self._train_T = np.ascontiguousarray(ds.X_cont[ds.train_idx].T)
        self._train_y = ds.y[ds.train_idx]
        self._val_T = np.ascontiguousarray(ds.X_cont[ds.val_idx].T)
        self._val_y = ds.y[ds.val_idx]
        self._test_T = np.ascontiguousarray(ds.X_cont[ds.test_idx].T)
        self._test_y = ds.y[ds.test_idx]

    def evaluate(self, mask: np.ndarray) -> FitnessRecord:
        mask = np.asarray(mask, dtype=bool)
        key = mask_key(mask)
        record = self.cache.get(key)
        if record is not None:
            return record
        genes = mask.copy()
        genes.setflags(write=False)
        n_selected = int(mask.sum())  # >= 1: the GA repairs every mask it scores
        pred = knn_predict(self._train_T[mask].T, self._train_y, self._val_T[mask].T, self.k)
        acc = np.count_nonzero(pred == self._val_y) / self._val_y.size
        fitness = combine_fitness(acc, n_selected, self.dataset.d, self.alpha)
        record = FitnessRecord(genes, fitness, n_selected)
        self.cache[key] = record
        return record

    def evaluate_many(self, masks: list[np.ndarray], pool: Executor | None = None) -> list[FitnessRecord]:
        """``evaluate`` each mask in order. A pool first scores the batch's
        distinct uncached masks, one task each, so no mask runs KNN twice
        and the cache ends the same whatever the pool's size."""
        if pool is not None:
            distinct = {mask_key(m): m for m in masks}
            list(pool.map(self.evaluate, [m for key, m in distinct.items() if key not in self.cache]))
        return [self.evaluate(m) for m in masks]

    def test_metrics(self, mask: np.ndarray) -> MetricBundle:
        """Final report: retrain on the training partition and score the
        held-out test partition."""
        mask = np.asarray(mask, dtype=bool)
        pred = knn_predict(self._train_T[mask].T, self._train_y, self._test_T[mask].T, self.k)
        return evaluate_metrics(self._test_y, pred, self.dataset.n_classes)
