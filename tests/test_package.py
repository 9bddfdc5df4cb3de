"""The package's public surface."""
import partialner


def test_every_public_name_resolves():
    missing = [name for name in partialner.__all__ if not hasattr(partialner, name)]
    assert missing == []
    assert len(set(partialner.__all__)) == len(partialner.__all__)
