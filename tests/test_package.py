import types

import chemolab as cl


def test_all_lists_every_public_name_and_no_module():
    exported = set(cl.__all__)
    assert len(exported) == len(cl.__all__)
    assert all(hasattr(cl, name) for name in cl.__all__)
    assert not [name for name in cl.__all__ if isinstance(getattr(cl, name), types.ModuleType)]
    public = {
        name for name in dir(cl)
        if not name.startswith("_") and not isinstance(getattr(cl, name), types.ModuleType)
    }
    assert exported == public
