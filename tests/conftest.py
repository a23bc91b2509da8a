"""Suite-wide fixtures."""

import pytest

from repro.experiments import get_experiment


@pytest.fixture(scope="session")
def results():
    """``results(name, fidelity="quick")``: each experiment runs once per
    (name, fidelity) for the whole session.  Every module shares the
    returned result, so treat it as read-only."""
    cache = {}

    def run(name, fidelity="quick"):
        key = (name, fidelity)
        if key not in cache:
            cache[key] = get_experiment(name).run(fidelity=fidelity)
        return cache[key]

    return run
