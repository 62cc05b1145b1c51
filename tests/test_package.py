"""The package's export list and the equality of its records."""

import types

import numpy as np
import pytest

import irscollab
from irscollab import decoder, errmodel, field, grs, polycode


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


def _grid():
    return np.arange(6).reshape(2, 3)


# Records that hold arrays, each made twice from equal values.
_RECORDS = {
    "WorkerTask": lambda: polycode.WorkerTask(0, _grid(), _grid(), field.PrimeField(7)),
    "IrsWord": lambda: polycode.IrsWord(
        _grid(), grs.make_grs(field.PrimeField(7), 3, 1, [1, 2, 3]), 1, 1),
    "ErrorMatrix": lambda: errmodel.ErrorMatrix(_grid(), (0, 1, 2)),
    "ErrorLocator": lambda: decoder.ErrorLocator([1, 2]),
    "SyndromeSet": lambda: decoder.SyndromeSet(_grid()),
    "StackedSystem": lambda: decoder.StackedSystem(1, _grid().T, np.arange(3)),
    "DecodeOutcome.ok": lambda: decoder.DecodeOutcome.ok(_grid(), decoder.ErrorLocator([1]),
                                                         (0,), _grid()[:, :1]),
    "DecodeOutcome.fail": lambda: decoder.DecodeOutcome.fail(decoder.FailureReason.NOT_T_VALID),
}


@pytest.mark.parametrize("make", _RECORDS.values(), ids=_RECORDS.keys())
def test_records_holding_arrays_compare_by_identity(make):
    # A generated == over array fields raises ValueError and hash raises
    # TypeError; these records compare and hash by identity instead
    # (outcomes_equal compares outcomes by value).
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
