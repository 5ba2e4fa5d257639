"""The package's public names: ``codedscan.__all__`` is what a star import binds.

A name deleted from its module but left in ``__init__.py`` fails at import;
one left only in ``__all__`` fails only at a star import. This checks both.
"""

import codedscan


def test_every_exported_name_resolves_once():
    names = codedscan.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(codedscan, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from codedscan import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(codedscan.__all__)
