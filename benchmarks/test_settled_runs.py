"""Seeds 0-19 of the settled-horizon proof (tier-1 runs seeds 0-1).

Every run that ends a settle window after its last stimulus must give the
same result record as at its old fixed horizon; the cases and the check are
in ``tests/experiments/test_settled_runs.py``.
"""

import pytest

from tests.experiments.test_settled_runs import SETTLED_RUNS, assert_settled


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("case", sorted(SETTLED_RUNS))
def test_settled_run_matches_its_old_horizon(case, seed):
    assert_settled(case, seed)
