import csv
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from chainga import evolution
from chainga.data import SyntheticSpec, generate_synthetic
from chainga.infotheory import GainRatioMatrix

try:
    from hypothesis import settings
except ImportError:  # the property-test modules skip themselves
    pass
else:
    # fixed examples and no example database: every run checks the same cases
    settings.register_profile(
        "chainga", derandomize=True, deadline=None, max_examples=150, database=None
    )
    # the same cases and more of them: pytest --hypothesis-profile ci
    settings.register_profile("ci", settings.get_profile("chainga"), max_examples=1000)
    settings.load_profile("chainga")

# real benchmark CSVs are looked up here when present (see scripts/fetch_datasets.py)
DATA_DIR = Path(__file__).resolve().parent.parent / "data"

_ACCEPTANCE_LINES: list[str] = []


def dataset_path(stem: str) -> Path | None:
    path = DATA_DIR / f"{stem}.csv"
    return path if path.exists() else None


def read_table(path) -> list[dict]:
    """A harness CSV table as a list of rows of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def record_criterion(number, status: str, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion; printed in the
    terminal summary regardless of output capturing."""
    _ACCEPTANCE_LINES.append(f"[criterion {number}] {status}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def toy_omega():
    """3-feature tables with one strong pairwise redundancy."""
    fc = np.array([0.8, 0.6, 0.1])
    ff = np.zeros((3, 3))
    ff[0, 1] = ff[1, 0] = 0.5
    return GainRatioMatrix(fc, ff)


@pytest.fixture(scope="session")
def small_dataset():
    return generate_synthetic(
        SyntheticSpec(n_rows=120, n_informative=3, n_redundant=2, n_noise=4, n_classes=2, seed=3)
    )


@pytest.fixture
def migration_events(monkeypatch) -> list:
    """(before, after) of every elite migration, each subpopulation as a
    list of (genes, fitness) pairs, recorded from outside the library."""
    events = []
    migrate = evolution.migrate_elites

    def snapshot(subpops):
        return [[(record.genes, record.fitness) for record in sp] for sp in subpops]

    def recording(subpops, s):
        before = snapshot(subpops)
        migrate(subpops, s)
        events.append((before, snapshot(subpops)))

    monkeypatch.setattr(evolution, "migrate_elites", recording)
    return events
