"""The public API: every exported name resolves, and none is exported twice."""

import castelpoly


def test_all_names_resolve():
    missing = [name for name in castelpoly.__all__ if not hasattr(castelpoly, name)]
    assert missing == []


def test_no_name_exported_twice():
    assert len(set(castelpoly.__all__)) == len(castelpoly.__all__)

