"""The package's export list."""

import types

import irscollab


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(irscollab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(irscollab.__all__) == len(set(irscollab.__all__))
    assert set(irscollab.__all__) == public
