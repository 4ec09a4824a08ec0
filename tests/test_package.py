"""The package's documented API."""

import spinbath


def test_every_documented_name_resolves():
    missing = [name for name in spinbath.__all__ if not hasattr(spinbath, name)]
    assert missing == []
    assert len(set(spinbath.__all__)) == len(spinbath.__all__)
