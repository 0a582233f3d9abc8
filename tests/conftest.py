from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

from cbrchain import (
    CbrParameters,
    SimulationConfig,
    cbr_transition_matrix,
    iter_trajectories,
    run_simulation,
)

FIXTURES = Path(__file__).parent / "fixtures"

# More examples for the byte-identity property tests in CI:
#     pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def simulated():
    """``simulated(p31, p33, seed, walks)``: that many walks from R1, drawn
    once per session, so that the acceptance criterion and the sampler's
    distributional tests read the same 100 000 draws.

    Gives the parameters, the ``run_simulation`` report with phase 4's
    frequencies, and the ``iter_trajectories`` paths.
    """
    drawn = {}

    def draw(p31, p33, seed, walks):
        key = (p31, p33, seed, walks)
        if key not in drawn:
            params = CbrParameters.from_p31_p33(p31, p33)
            matrix = cbr_transition_matrix(params)
            cfg = SimulationConfig(seed=seed, num_trajectories=walks)
            drawn[key] = SimpleNamespace(
                params=params,
                report=run_simulation(matrix, "R1", cfg, (4,)),
                paths=list(iter_trajectories(matrix, "R1", cfg)),
            )
        return drawn[key]

    return draw
