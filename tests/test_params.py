"""The integer rule at every public edge.

Each integer parameter of the public entry points refuses a float, a bool
and a negative value with InvalidParameters, and takes a numpy integer as
the equal Python int.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irscollab.decoder import build_stacked, t_max
from irscollab.errmodel import ErrorModelSpec, sample_error
from irscollab.errors import InvalidParameters
from irscollab.field import PrimeField
from irscollab.grs import GrsCode, make_grs
from irscollab.harness import ExperimentConfig, demo_matmul, make_alphas, pf_bound
from irscollab.polycode import PolyCodeParams

GF = PrimeField(257)
CODE = make_grs(GF, 8, 2, range(1, 9))
WORD = GF.rand_elements(np.random.default_rng(0), (2, 8))
PARAMS = PolyCodeParams(field=GF, m=2, n=2, num_workers=12, xs=range(1, 13))

# Each entry point as a call of its integer parameters, with valid values.
EDGES = {
    "t_max": (t_max, dict(n=8, k=2, l=2)),
    "pf_bound": (pf_bound, dict(q=257, n=16, k=4, l=4, t=7)),
    "sample_error": (lambda l, n: sample_error(ErrorModelSpec("uref", 2), GF, l, n,
                                               np.random.default_rng(1)), dict(l=2, n=8)),
    "make_alphas": (lambda n: make_alphas(GF, n), dict(n=8)),
    "build_stacked": (lambda t: build_stacked(CODE, WORD, t), dict(t=2)),
    "demo_matmul": (lambda t, seed: demo_matmul(PARAMS, t, seed), dict(t=2, seed=3)),
    "ExperimentConfig": (
        lambda n, k, l, t, trials, seed: ExperimentConfig(GF, n, k, (l,), (t,), trials, "uref",
                                                          seed=seed),
        dict(n=8, k=2, l=2, t=1, trials=3, seed=1)),
    "PolyCodeParams": (lambda m, n, num_workers: PolyCodeParams(GF, m, n, num_workers, range(1, 7)),
                       dict(m=2, n=2, num_workers=6)),
    "GrsCode": (lambda n, k: GrsCode(GF, n, k, range(1, 9)), dict(n=8, k=2)),
    "ErrorModelSpec": (lambda t: ErrorModelSpec("uref", t), dict(t=2)),
    "PrimeField": (PrimeField, dict(p=257)),
}


def _fingerprint(x):
    """x as nested plain values, with the type of every scalar."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.tolist()
    if isinstance(x, PrimeField):
        return _fingerprint(("PrimeField", x.p))
    if isinstance(x, GrsCode):
        return _fingerprint((x.field, x.n, x.k, x.alphas, x.u))
    if dataclasses.is_dataclass(x):
        return type(x).__name__, _fingerprint([getattr(x, f.name) for f in dataclasses.fields(x)])
    if isinstance(x, (list, tuple)):
        return [_fingerprint(v) for v in x]
    return type(x).__name__, x


@pytest.mark.parametrize("edge, name", [(edge, name) for edge, (_, valid) in EDGES.items()
                                        for name in valid])
def test_every_integer_parameter_takes_integers_only(edge, name):
    call, valid = EDGES[edge]
    for bad in (2.0, 2.5, True, -1):
        with pytest.raises(InvalidParameters):
            call(**{**valid, name: bad})
    want = _fingerprint(call(**valid))
    for kind in (np.int64, np.uint16):
        assert _fingerprint(call(**{**valid, name: kind(valid[name])})) == want


# The least value of each integer parameter, and the name that its message
# starts with when it is not the parameter's own.
LEAST = {
    ("ExperimentConfig", "n"): 2, ("ExperimentConfig", "k"): 1, ("ExperimentConfig", "l"): 1,
    ("ExperimentConfig", "t"): 0, ("ExperimentConfig", "trials"): 1,
    ("ExperimentConfig", "seed"): 0, ("PolyCodeParams", "m"): 1, ("PolyCodeParams", "n"): 1,
    ("PolyCodeParams", "num_workers"): 5, ("demo_matmul", "seed"): 0, ("demo_matmul", "t"): 0,
    ("t_max", "l"): 1, ("make_alphas", "n"): 1, ("sample_error", "l"): 1,
    ("sample_error", "n"): 1, ("ErrorModelSpec", "t"): 0, ("PrimeField", "p"): 2,
    ("pf_bound", "q"): 2,
}
LABELS = {("ExperimentConfig", "l"): "l_values[0]", ("ExperimentConfig", "t"): "t_values[0]"}
INT_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_integer_parameters_are_checked_by_one_rule_that_names_them(data):
    # A float, a bool, a string or an integer below the least value raises
    # InvalidParameters whose message starts with the parameter's name; a
    # numpy integer gives what the equal Python int gives, stored as an int.
    edge, name = data.draw(st.sampled_from(sorted(LEAST)), label="parameter")
    call, valid = EDGES[edge]
    least = LEAST[edge, name]
    bad = data.draw(st.one_of(st.floats(), st.booleans(), st.text(max_size=4),
                              st.integers(max_value=least - 1)), label="bad")
    with pytest.raises(InvalidParameters) as exc:
        call(**{**valid, name: bad})
    assert re.match(rf"{re.escape(LABELS.get((edge, name), name))}[ =]", str(exc.value))
    dtype = data.draw(st.sampled_from([d for d in INT_DTYPES if np.iinfo(d).max >= valid[name]]),
                      label="dtype")
    assert _fingerprint(call(**{**valid, name: dtype(valid[name])})) == _fingerprint(call(**valid))
