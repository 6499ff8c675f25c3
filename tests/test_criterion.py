import itertools
import math

import numpy as np
import pytest

from chainga import criterion
from chainga.criterion import _NEAR_TIE, _crossed_sums, score, sweep_crossover, sweep_mutation
from chainga.infotheory import GainRatioMatrix
from oracles import (
    loop_sweep_crossover,
    oracle_crossover,
    oracle_mutation,
    random_omega,
    ref_subset_merit,
    subset_sums,
)


def flip(mask, r):
    flipped = np.array(mask, dtype=bool)
    flipped[r] = not flipped[r]
    return flipped


def test_score_empty_mask(toy_omega):
    assert score([0, 0, 0], toy_omega) == 0.0


def test_score_singleton_equals_fc(toy_omega):
    for i in range(3):
        mask = np.zeros(3, dtype=bool)
        mask[i] = True
        assert score(mask, toy_omega) == pytest.approx(toy_omega.fc[i], abs=1e-12)


def test_score_pair_hand_value(toy_omega):
    # 2 * 0.7 / sqrt(2 + 2*0.5)
    result = score([1, 1, 0], toy_omega)
    assert result == pytest.approx(0.8083, abs=1e-4)
    assert result == pytest.approx(1.4 / math.sqrt(3.0), abs=1e-12)


def test_score_identity_invariant():
    rng = np.random.default_rng(7)
    omega = random_omega(rng, 20)
    for _ in range(100):
        mask = rng.random(20) < 0.4
        n_s, sum_fc, sum_ff = subset_sums(mask, omega)
        if n_s:
            expected = n_s * (sum_fc / n_s) / math.sqrt(n_s + sum_ff)
            assert score(mask, omega) == pytest.approx(expected, rel=1e-12)


def test_score_all_subsets_match_reference_d10():
    rng = np.random.default_rng(11)
    omega = random_omega(rng, 10)
    fc = omega.fc.tolist()
    ff = omega.ff.tolist()
    worst = 0.0
    for bits in itertools.product([0, 1], repeat=10):
        mask = np.array(bits, dtype=bool)
        selected = [i for i, b in enumerate(bits) if b]
        worst = max(worst, abs(score(mask, omega) - ref_subset_merit(selected, fc, ff)))
    assert worst < 1e-9


def test_crossed_sums_match_scratch_at_every_cut():
    rng = np.random.default_rng(13)
    for d in (2, 3, 25, 60):
        omega = random_omega(rng, d)
        for pairs in (1, 1, 2, 5, 7):
            a = rng.random((pairs, d)) < 0.5
            b = rng.random((pairs, d)) < 0.5
            b[:, 0] = ~a[:, 0]  # at least one differing position
            n, sum_fc, sum_ff = _crossed_sums(a, b, omega)
            assert n.shape == (2, pairs, d)
            for p, k in itertools.product(range(pairs), range(1, d)):
                children = (np.concatenate([a[p, :k], b[p, k:]]), np.concatenate([b[p, :k], a[p, k:]]))
                for row, child in enumerate(children):
                    fresh_n, fresh_fc, fresh_ff = subset_sums(child, omega)
                    assert n[row, p, k] == fresh_n
                    assert abs(sum_fc[row, p, k] - fresh_fc) < 1e-9
                    assert abs(sum_ff[row, p, k] - fresh_ff) < 1e-9


def test_sweep_crossover_matches_loop_predecessor():
    rng = np.random.default_rng(41)
    for _ in range(150):
        d = int(rng.integers(2, 61))
        omega = random_omega(rng, d)
        a = rng.random(d) < rng.uniform(0.1, 0.9)
        b = rng.random(d) < rng.uniform(0.1, 0.9)
        assert sweep_crossover(a, b, omega) == loop_sweep_crossover(a, b, omega)[0]


def test_sweep_crossover_identical_parents(toy_omega):
    mask = np.array([1, 0, 1], dtype=bool)
    assert sweep_crossover(mask, mask, toy_omega) == 1


def test_sweep_crossover_equal_parents_skip_the_sums(toy_omega, monkeypatch):
    def unreachable(*args):
        raise AssertionError("_crossed_sums ran on pairs whose parents are all equal")

    monkeypatch.setattr(criterion, "_crossed_sums", unreachable)
    mask = np.array([1, 0, 1], dtype=bool)
    one = sweep_crossover(mask, mask, toy_omega)
    assert type(one) is int and one == 1
    batch = np.stack([mask, ~mask, np.ones(3, dtype=bool), mask]).reshape(2, 2, 3)
    cuts = sweep_crossover(batch, batch, toy_omega)
    assert isinstance(cuts, np.ndarray) and cuts.shape == (2, 2) and (cuts == 1).all()


def test_sweep_crossover_d4_exhaustive():
    rng = np.random.default_rng(17)
    a = np.array([1, 1, 0, 0], dtype=bool)
    b = np.array([0, 0, 1, 1], dtype=bool)
    for _ in range(50):
        omega = random_omega(rng, 4)
        assert sweep_crossover(a, b, omega) == oracle_crossover(a, b, omega)[0]


def test_sweep_crossover_single_differing_bit_ties_to_k1():
    # children sets are always {a-set, b-set}: every cut ties, smallest wins
    rng = np.random.default_rng(19)
    for _ in range(20):
        omega = random_omega(rng, 12)
        a = rng.random(12) < 0.5
        a[0] = True
        b = a.copy()
        b[7] = not b[7]
        k = sweep_crossover(a, b, omega)
        assert k == oracle_crossover(a, b, omega)[0]
        assert k == 1


def test_sweep_crossover_matches_oracle_random_trials():
    rng = np.random.default_rng(23)
    for _ in range(200):
        omega = random_omega(rng, 30)
        a = rng.random(30) < rng.uniform(0.1, 0.9)
        b = rng.random(30) < rng.uniform(0.1, 0.9)
        assert sweep_crossover(a, b, omega) == oracle_crossover(a, b, omega)[0]


def test_sweep_crossover_swap_parents_invariance():
    rng = np.random.default_rng(29)
    for _ in range(50):
        omega = random_omega(rng, 15)
        a = rng.random(15) < 0.5
        b = rng.random(15) < 0.5
        assert sweep_crossover(a, b, omega) == sweep_crossover(b, a, omega)


def test_sweep_mutation_single_feature_turns_on():
    omega = GainRatioMatrix(np.array([0.7]), np.zeros((1, 1)))
    r = sweep_mutation([0], omega)
    assert r == 0
    assert score(flip([0], r), omega) == pytest.approx(0.7, abs=1e-12)


def test_sweep_mutation_single_feature_may_empty():
    # with d == 1 the emptying flip is the only candidate
    omega = GainRatioMatrix(np.array([0.7]), np.zeros((1, 1)))
    r = sweep_mutation([1], omega)
    assert r == 0 and score(flip([1], r), omega) == 0.0


def test_sweep_mutation_adds_relevant_feature():
    # noise feature on, strong feature off: flipping the strong one wins
    omega = GainRatioMatrix(np.array([0.0, 0.9]), np.zeros((2, 2)))
    r = sweep_mutation([1, 0], omega)
    assert r == 1
    assert score(flip([1, 0], r), omega) == pytest.approx(0.9 / math.sqrt(2.0), abs=1e-12)


def test_sweep_mutation_never_empties_when_alternatives_exist():
    # all candidates score zero; the emptying flip must still be avoided
    omega = GainRatioMatrix(np.zeros(3), np.zeros((3, 3)))
    mask = np.array([0, 1, 0], dtype=bool)
    r = sweep_mutation(mask, omega)
    assert r == 0  # smallest non-emptying flip
    assert score(flip(mask, r), omega) == 0.0


def test_sweep_mutation_matches_oracle_random_trials():
    rng = np.random.default_rng(31)
    for _ in range(200):
        omega = random_omega(rng, 30)
        mask = rng.random(30) < rng.uniform(0.1, 0.9)
        assert sweep_mutation(mask, omega) == oracle_mutation(mask, omega)[0]


@pytest.fixture
def score_calls(monkeypatch) -> list:
    """Masks passed to ``chainga.criterion.score`` as the sweeps see it; this
    module's own ``score`` is the unwrapped function."""
    calls = []

    def counting(mask, omega):
        calls.append(mask)
        return score(mask, omega)

    monkeypatch.setattr(criterion, "score", counting)
    return calls


def _contenders(masks, omega) -> int:
    """Distinct masks whose exact merit is within the near-tie of the best."""
    merits = {m.tobytes(): score(m, omega) for m in masks}
    best = max(merits.values())
    return sum(j >= best - _NEAR_TIE for j in merits.values())


def test_sweeps_score_nothing_without_a_tie(score_calls):
    mask = np.array([1, 0, 1], dtype=bool)
    assert sweep_crossover(mask, mask, GainRatioMatrix(np.full(3, 0.5), np.zeros((3, 3)))) == 1
    one = GainRatioMatrix(np.array([0.7]), np.zeros((1, 1)))
    assert sweep_mutation([0], one) == 0 and sweep_mutation([1], one) == 0
    assert score_calls == []

    rng = np.random.default_rng(43)
    for _ in range(50):
        omega = random_omega(rng, 20)
        a, b, mask = (rng.random((3, 20)) < 0.5)
        children = [np.concatenate(p) for k in range(1, 20) for p in ((a[:k], b[k:]), (b[:k], a[k:]))]
        assert _contenders(children, omega) == 1  # a unique best cut
        assert _contenders([flip(mask, r) for r in range(20)], omega) == 1  # a unique best site
        assert sweep_crossover(a, b, omega) == oracle_crossover(a, b, omega)[0]
        assert sweep_mutation(mask, omega) == oracle_mutation(mask, omega)[0]
        # one differing bit: every cut gives {a, b}, the better one at two cuts
        b = flip(a, 7)
        assert abs(score(a, omega) - score(b, omega)) > _NEAR_TIE
        assert sweep_crossover(a, b, omega) == 1
    assert score_calls == []


def test_sweeps_score_each_exactly_tied_candidate(score_calls):
    # grid omega: the two tied merits are the same sums in the same order
    omega = GainRatioMatrix(np.full(3, 0.5), np.zeros((3, 3)))
    a = np.array([1, 0, 1], dtype=bool)
    b = np.array([0, 1, 0], dtype=bool)
    # cut 1 gives {0, 1}, cut 2 gives {1, 2}: both 1 / sqrt(2)
    assert sweep_crossover(a, b, omega) == 1
    assert [m.tolist() for m in score_calls] == [[True, True, False], [False, True, True]]

    score_calls.clear()
    omega = GainRatioMatrix(np.array([0.5, 0.5, 0.0]), np.zeros((3, 3)))
    # adding site 0 or site 1 to {2} ties at 0.5 / sqrt(2); emptying is excluded
    assert sweep_mutation([0, 0, 1], omega) == 0
    assert [m.tolist() for m in score_calls] == [[True, False, True], [False, True, True]]


def test_scale_consistency_fc_only():
    rng = np.random.default_rng(37)
    omega = random_omega(rng, 12)
    for c in (0.25, 2.0, 7.5):
        scaled = GainRatioMatrix(c * omega.fc, omega.ff.copy())
        for _ in range(20):
            mask = rng.random(12) < 0.5
            assert score(mask, scaled) == pytest.approx(c * score(mask, omega), rel=1e-12)
