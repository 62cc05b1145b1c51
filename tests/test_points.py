"""The point rule: one check of the evaluation points, wherever they enter.

The GrsCode constructor (and so make_grs), PolyCodeParams and make_alphas
all apply grs._check_points, so a point vector with a defect is refused by
each with the same message, and every code that can be built can also be
decoded: its candidate roots 1/alpha_j exist.  make_alphas is fed a drawn
vector by standing it in for the points its "primitive" rule computes.
"""

from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irscollab import harness
from irscollab.decoder import (_decode_batch, build_stacked, cpda_decode, layer_syndromes,
                               mssr_decode)
from irscollab.errors import InvalidParameters
from irscollab.field import PrimeField, RealField
from irscollab.grs import GrsCode, make_grs
from irscollab.harness import make_alphas
from irscollab.polycode import PolyCodeParams

FIELDS = [PrimeField(7), PrimeField(257), PrimeField(2**61 - 1), RealField()]

# Each defect and the words of the message it must raise.
DEFECTS = {
    "zero": "must be nonzero",
    "duplicate": "pairwise distinct",
    "duplicate mod p": "pairwise distinct",
    "wrong length": "length-",
}


@st.composite
def _points(draw, field):
    """(n, points): n in [2, 6] pairwise distinct nonzero points of field."""
    n = draw(st.integers(2, 6))
    if isinstance(field, PrimeField):
        element = st.integers(1, field.p - 1)
    else:
        magnitude = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
        element = st.builds(lambda x, sign: sign * x, magnitude, st.sampled_from([-1.0, 1.0]))
    return n, draw(st.lists(element, min_size=n, max_size=n, unique=True))


def _planted(draw, field, n, points, defect):
    """points with one defect planted."""
    points = list(points)
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if defect == "zero":
        points[i] = 0
    elif defect == "duplicate":
        points[j] = points[i]
    elif defect == "duplicate mod p":
        points[j] = points[i] + field.p
    elif draw(st.booleans()):
        points.append(points[i])
    else:
        points.pop(i)
    return points


def _alphas_from(field, n, points):
    """make_alphas on a rule whose n points are the given vector."""
    with mock.patch.object(harness, "_primitive_points", lambda _field, _n: points):
        return make_alphas(field, n, "primitive")


def _entry_points(field, n, points):
    """The four places where evaluation points enter the package."""
    return (
        lambda: GrsCode(field, n, 1, points),
        lambda: make_grs(field, n, 1, points),
        lambda: PolyCodeParams(field=field, m=1, n=1, num_workers=n, xs=points),
        lambda: _alphas_from(field, n, points),
    )


@pytest.mark.parametrize("field, defect", [
    (field, defect) for field in FIELDS for defect in DEFECTS
    if isinstance(field, PrimeField) or defect != "duplicate mod p"
], ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_entry_point_rejects_a_defect_alike(field, defect, data):
    n, points = data.draw(_points(field))
    points = _planted(data.draw, field, n, points, defect)
    messages = set()
    for enter in _entry_points(field, n, points):
        with pytest.raises(InvalidParameters) as exc:
            enter()
        messages.add(str(exc.value))
    (message,) = messages
    assert DEFECTS[defect] in message


@pytest.mark.parametrize("alphas, message", [
    ([0, 2, 3, 4, 5, 6], "must be nonzero"),
    ([1, 1, 3, 4, 5, 6], "pairwise distinct"),
])
def test_grs_code_constructor_applies_the_point_rule(alphas, message):
    # A zero point has no inverse for the decoders to locate, and a repeated
    # one leaves the dual multipliers undefined: both must fail at once.
    with pytest.raises(InvalidParameters, match=message):
        GrsCode(PrimeField(7), 6, 2, alphas)


def test_grs_code_freezes_a_copy_of_the_points():
    alphas = np.array([0.5, 1.0, 2.0, 4.0])
    code = GrsCode(RealField(), 4, 2, alphas)
    assert alphas.flags.writeable and not code.alphas.flags.writeable
    assert np.array_equal(code.alphas, alphas) and code.alphas is not alphas


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_valid_points_have_their_inverses_as_candidates(field, data):
    n, points = data.draw(_points(field))
    code = make_grs(field, n, 1, points)
    params = PolyCodeParams(field=field, m=1, n=1, num_workers=n, xs=points)
    assert np.array_equal(params.xs, code.alphas)
    assert np.array_equal(_alphas_from(field, n, points), code.alphas)
    products = code.inverse_powers()[:, 1] * code.alphas
    if isinstance(field, PrimeField):
        assert np.all(products % field.p == 1)
    else:
        assert np.all(np.abs(products - 1.0) <= 1e-15)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_decoders_reject_a_word_without_layers(field, data):
    n, points = data.draw(_points(field))
    code = make_grs(field, n, data.draw(st.integers(1, n - 1)), points)
    # The one word check (decoder._validated_word) refuses it everywhere.
    for take in (cpda_decode, mssr_decode, layer_syndromes, partial(build_stacked, t=1)):
        with pytest.raises(InvalidParameters, match=r"L >= 1, got shape \(0, "):
            take(code, field.zeros((0, n)))
    count = data.draw(st.integers(0, 3))
    for name in ("cpda", "mssr"):
        with pytest.raises(InvalidParameters):
            _decode_batch(code, field.zeros((count, 0, n)), name)
