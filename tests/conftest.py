import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def probe_above_sup_G(monkeypatch):
    """Lift the best ascent value of every maximize_G search by 1.0, far
    above any sup_G + MARGIN, so the search must raise NonConvergenceError.
    Returns the list of the (probe_max, probe_best) pairs it reported."""
    from blockpotts import equilibria

    search = equilibria._numerical_candidates
    reported = []

    def lifted(*args):
        candidates, probe_max, probe_best, stats = search(*args)
        reported.append((probe_max + 1.0, probe_best))
        return candidates, probe_max + 1.0, probe_best, stats

    monkeypatch.setattr(equilibria, "_numerical_candidates", lifted)
    return reported
