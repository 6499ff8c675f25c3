"""Property tests: the criterion sweeps against exhaustive enumeration.

Omegas are drawn either from the unit interval or from a small grid. The
grid's repeated values tie many merits: exactly through its binary
fractions, and up to rounding through its tenths, whose sums depend on
their order. Both exercise the near-tie re-score and the smallest-index
tie-break.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from chainga.criterion import sweep_crossover, sweep_mutation
from chainga.infotheory import GainRatioMatrix
from oracles import oracle_crossover, oracle_mutation, pairwise_sweep_crossover

GRID = (0.0, 0.1, 0.2, 0.25, 0.5, 1.0)


@st.composite
def omegas(draw, min_d=2, max_d=12):
    d = draw(st.integers(min_d, max_d))
    values = st.sampled_from(GRID) if draw(st.booleans()) else st.floats(0.0, 1.0)
    fc = np.array(draw(st.lists(values, min_size=d, max_size=d)))
    ff = np.array(draw(st.lists(values, min_size=d * d, max_size=d * d))).reshape(d, d)
    np.fill_diagonal(ff, 0.0)
    return GainRatioMatrix(fc, ff)


def masks(d):
    return st.lists(st.booleans(), min_size=d, max_size=d).map(lambda bits: np.array(bits, dtype=bool))


@st.composite
def crossover_cases(draw, omega_cases=omegas()):
    omega = draw(omega_cases)
    d = omega.d
    a = draw(masks(d))
    kind = draw(st.sampled_from(["random", "one-bit", "complement", "zero"]))
    if kind == "random":
        b = draw(masks(d))
    elif kind == "one-bit":
        b = a.copy()
        t = draw(st.integers(0, d - 1))
        b[t] = not b[t]
    elif kind == "complement":
        b = ~a
    else:
        b = np.zeros(d, dtype=bool)
    if draw(st.booleans()):
        a, b = b, a
    return a, b, omega


@given(crossover_cases())
def test_sweep_crossover_equals_exhaustive_oracle(case):
    a, b, omega = case
    assert sweep_crossover(a, b, omega) == oracle_crossover(a, b, omega)[0]


@st.composite
def crossover_batches(draw):
    """(P, d) parents over one omega: each row a crossover case or two equal parents."""
    omega = draw(omegas())
    case = crossover_cases(st.just(omega)).map(lambda c: c[:2])
    equal = masks(omega.d).map(lambda m: (m, m))
    a, b = np.array(draw(st.lists(st.one_of(case, equal), min_size=1, max_size=6))).transpose(1, 0, 2)
    return a, b, omega


@given(crossover_batches())
def test_sweep_crossover_batch_equals_pairwise_predecessor(batch):
    a, b, omega = batch
    cuts = sweep_crossover(a, b, omega)
    assert cuts.shape == (len(a),)
    assert cuts.tolist() == [pairwise_sweep_crossover(ra, rb, omega) for ra, rb in zip(a, b)]


@st.composite
def mutation_cases(draw):
    omega = draw(omegas(min_d=1))
    d = omega.d
    kind = draw(st.sampled_from(["random", "single", "zero", "full"]))
    if kind == "random":
        mask = draw(masks(d))
    elif kind == "single":
        mask = np.zeros(d, dtype=bool)
        mask[draw(st.integers(0, d - 1))] = True
    else:
        mask = np.full(d, kind == "full")
    return mask, omega


@given(mutation_cases())
def test_sweep_mutation_equals_exhaustive_oracle(case):
    mask, omega = case
    assert sweep_mutation(mask, omega) == oracle_mutation(mask, omega)[0]
