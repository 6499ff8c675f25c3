"""KNN wrapper classifier, classification metrics, and the fitness function."""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist  # noqa: F401 (perfbench/tracer.py times classifier.cdist by name)

from .data import Dataset

_BLOCK = 2**20  # entries of one query block's n_query x n_train key matrix (8 MiB)


def knn_predict(train_X: np.ndarray, train_y: np.ndarray, query_X: np.ndarray, k: int) -> np.ndarray:
    """Euclidean k-nearest-neighbour prediction with deterministic ties.

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

    step = max(1, _BLOCK // train_X.shape[0])
    blocks = range(0, max(len(query_X), 1), step)
    labels = train_y[np.concatenate([_nearest(query_X[i:i + step], train_X, k) for i in blocks])]

    n_classes = int(train_y.max()) + 1
    rows = np.arange(len(labels))[:, None]
    votes = np.bincount((rows * n_classes + labels).ravel(), minlength=rows.size * n_classes)
    votes = votes.reshape(rows.size, n_classes)
    # the first rank holding a top-voted class holds the tied class whose
    # nearest member ranks first
    top = votes[rows, labels] == votes.max(axis=1, keepdims=True)
    return labels[rows[:, 0], np.argmax(top, axis=1)]


def _nearest(query_X: np.ndarray, train_X: np.ndarray, k: int) -> np.ndarray:
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
    chunk = max(1, _BLOCK // d)
    for s in range(0, rows.size, chunk):  # summed in feature order as cdist sums: bit-identical
        r, c = rows[s:s + chunk], cols[s:s + chunk]
        dists[s:s + chunk] = np.sqrt(np.add.accumulate((query_X[r] - train_X[c]) ** 2, axis=1)[:, -1])
    order = np.lexsort((dists, rows))  # stable: ties keep column order
    counts = np.bincount(rows, minlength=n_query)
    starts = np.cumsum(counts) - counts
    return cols[order][starts[:, None] + np.arange(k)]


@dataclass
class MetricBundle:
    """Accuracy and class-support-weighted precision, recall and F1."""

    accuracy: float
    precision: float
    recall: float
    f1: float


def evaluate_metrics(y_true, y_pred, n_classes: int | None = None) -> MetricBundle:
    """Per-class one-vs-rest counts aggregated by class-support weights.

    Per-class precision/recall default to 0 when undefined, and F1 is 0
    when precision + recall is 0.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size != y_pred.size:
        raise ValueError(f"length mismatch: {y_true.size} vs {y_pred.size}")
    if y_true.size == 0:
        raise ValueError("cannot score empty label vectors")
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1

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
    acc: float
    n_selected: int


def mask_key(mask: np.ndarray) -> bytes:
    return np.packbits(np.asarray(mask, dtype=bool)).tobytes()


@dataclass
class FitnessEvaluator:
    """Wrapper fitness: train KNN on the training partition, measure
    accuracy on the validation partition, combine with the compression
    reward. Results are cached by mask digest, so re-evaluating a mask
    never re-runs the classifier.
    """

    dataset: Dataset
    alpha: float = 0.01
    k: int = 5
    cache: dict[bytes, FitnessRecord] = field(default_factory=dict)

    def __post_init__(self):
        ds = self.dataset
        self._train_X = ds.X_cont[ds.train_idx]
        self._train_y = ds.y[ds.train_idx]
        self._val_X = ds.X_cont[ds.val_idx]
        self._val_y = ds.y[ds.val_idx]
        self._test_X = ds.X_cont[ds.test_idx]
        self._test_y = ds.y[ds.test_idx]

    def evaluate(self, mask: np.ndarray) -> FitnessRecord:
        mask = np.asarray(mask, dtype=bool)
        key = mask_key(mask)
        record = self.cache.get(key)
        if record is not None:
            return record
        genes = mask.copy()
        genes.setflags(write=False)
        n_selected = int(mask.sum())
        if n_selected == 0:
            # sentinel: never wins a comparison against a real subset
            record = FitnessRecord(genes, 0.0, 0.0, 0)
        else:
            pred = knn_predict(self._train_X[:, mask], self._train_y, self._val_X[:, mask], self.k)
            acc = float(np.mean(pred == self._val_y))
            record = FitnessRecord(
                genes, combine_fitness(acc, n_selected, self.dataset.d, self.alpha), acc, n_selected
            )
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
        if not mask.any():
            raise ValueError("cannot score an empty feature subset")
        pred = knn_predict(self._train_X[:, mask], self._train_y, self._test_X[:, mask], self.k)
        return evaluate_metrics(self._test_y, pred, self.dataset.n_classes)
