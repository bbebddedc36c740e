"""The package's public surface: every exported name resolves."""

import dualgc


def test_every_exported_name_is_an_attribute():
    missing = [name for name in dualgc.__all__ if not hasattr(dualgc, name)]
    assert not missing
    assert len(set(dualgc.__all__)) == len(dualgc.__all__)


def test_star_import_works_in_a_fresh_namespace():
    namespace = {}
    exec("from dualgc import *", namespace)
    assert set(dualgc.__all__) <= set(namespace)
