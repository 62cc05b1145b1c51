"""The integer rule at every public edge.

Each integer parameter of the public entry points refuses a float, a bool
and a negative value with InvalidParameters, and takes a numpy integer as
the equal Python int.
"""

import dataclasses

import numpy as np
import pytest

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
}


def _fingerprint(x):
    """x as nested plain values, with the type of every scalar."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.tolist()
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
