"""The package's export list."""

import types

import pytest

import irscollab
from irscollab import errmodel, field, grs, polycode


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(irscollab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(irscollab.__all__) == len(set(irscollab.__all__)) == 50
    assert set(irscollab.__all__) == public


@pytest.mark.parametrize("owner, name", [
    (errmodel, "hamming_weight"),
    (grs, "syndromes"),
    (grs, "interpolate"),
    (grs, "classical_code"),
    (polycode, "choose_exponents"),
    (field, "is_prime"),
    (irscollab, "hamming_weight"),
    (irscollab, "is_prime"),
    (grs.GrsCode, "d_min"),
    (field.PrimeField(7), "sub"),
    (field.RealField(), "neg"),
    (polycode.PolyCodeParams(field=field.PrimeField(7), m=1, n=2, num_workers=3,
                             xs=[1, 2, 3]), "exp_a"),
    (polycode.PolyCodeParams(field=field.PrimeField(7), m=1, n=2, num_workers=3,
                             xs=[1, 2, 3]), "exp_b"),
], ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", type(v).__name__))
def test_removed_names_are_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(owner, name)
