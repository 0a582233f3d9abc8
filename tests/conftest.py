from pathlib import Path

import pytest
from hypothesis import settings

FIXTURES = Path(__file__).parent / "fixtures"

# More examples for the byte-identity property tests in CI:
#     pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
