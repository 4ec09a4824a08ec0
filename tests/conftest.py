import pytest

import spinbath.frame as frame


@pytest.fixture(autouse=True)
def _empty_frame_cache():
    """Empty the frame cache (the free halves' eigensystems and the
    layouts on them) after each test, so that no test's eigh count depends
    on which models earlier tests diagonalized."""
    yield
    frame._frames = ()
