"""The package's public names: `from rac import *` works and every entry of
`__all__` resolves, so a name deleted from a module cannot linger there."""

import rac


def test_star_import():
    namespace = {}
    exec("from rac import *", namespace)
    assert set(rac.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(rac.__all__) == len(set(rac.__all__))


def test_every_name_resolves():
    missing = [name for name in rac.__all__ if not hasattr(rac, name)]
    assert missing == []
