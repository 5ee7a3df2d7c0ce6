"""Property: ``ChatVerifier.enroll`` rewinds its landmark detector per
session, so a bank enrolled from any order of its sessions holds the
same feature rows as the bank enrolled from the sessions in seed order."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import ChatVerifier
from repro.experiments.profiles import Environment
from repro.experiments.simulate import simulate_genuine_session

SEEDS = (730, 731, 732)


@pytest.fixture(scope="module")
def sessions():
    env = Environment(frame_size=(64, 64), verifier_frame_size=(40, 40))
    return [simulate_genuine_session(duration_s=15.0, seed=seed, env=env) for seed in SEEDS]


def _bank_rows(records) -> np.ndarray:
    """The enrolled bank, rows sorted so that it compares as a multiset."""
    verifier = ChatVerifier()
    banks = []
    fit = verifier.detector.fit
    verifier.detector.fit = lambda bank: banks.append(bank) or fit(bank)
    verifier.enroll(records)
    rows = np.array([fv.as_array() for fv in banks[0]])
    return rows[np.lexsort(rows.T[::-1])]


@pytest.fixture(scope="module")
def sorted_bank(sessions):
    return _bank_rows(sessions)


@pytest.mark.filterwarnings("ignore::repro.core.lof.SmallBankWarning")
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(range(len(SEEDS))))
def test_bank_does_not_depend_on_session_order(sessions, sorted_bank, order):
    np.testing.assert_array_equal(_bank_rows([sessions[i] for i in order]), sorted_bank)
