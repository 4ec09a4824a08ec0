import pytest

import spinbath.engine as engine


@pytest.fixture(autouse=True)
def _empty_free_table_slot():
    """Empty the engine's eigensystem slot (the free halves' eigenpairs and
    mixings) after each test, so that no test's eigh count depends on which
    model an earlier test diagonalized last."""
    yield
    engine._free_eigs = None
