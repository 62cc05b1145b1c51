"""No public function writes into the arrays it is given.

The functions that only read an operand take it through Field._canonical,
which passes a canonical array through uncopied, so they run on the caller's
own memory.  Each public function that takes arrays is run here on
read-only canonical inputs and on writable copies: the results must be
equal, and the inputs bit-identical afterwards.  Field.array is the one
function that hands back the caller's data, so its result must share no
memory with its input.
"""

import dataclasses

import numpy as np
import pytest

from irscollab.decoder import (
    ErrorLocator,
    SyndromeSet,
    build_stacked,
    cpda_decode,
    is_t_valid,
    layer_syndromes,
    mssr_decode,
    recover_error_values,
    synthesize_recurrence,
)
from irscollab.errmodel import ErrorModelSpec, inject, model_for, sample_error
from irscollab.field import PrimeField, RealField
from irscollab.grs import encode
from irscollab.harness import make_alphas
from irscollab.polycode import (
    PolyCodeParams,
    assemble_irs,
    encode_tasks,
    recover_product,
    worker_compute,
)

FIELDS = [PrimeField(257), PrimeField(2**61 - 1), RealField()]


def _cases(fld):
    """{name: (function, inputs)}: each public function that takes arrays,
    as a function of its canonical array inputs, on a coded product over
    fld: K = 2, N = 8 workers, an L = 4 word with errors in 2 columns."""
    rule = "pow:0.9" if isinstance(fld, RealField) else "linear"
    params = PolyCodeParams(field=fld, m=1, n=2, num_workers=8, xs=make_alphas(fld, 8, rule))
    code = params.code
    rng = np.random.default_rng(32)
    a, b = fld.rand_elements(rng, (3, 2)), fld.rand_elements(rng, (3, 4))
    outputs = [worker_compute(task) for task in encode_tasks(params, a, b)]
    word = assemble_irs(params, outputs)
    err = sample_error(ErrorModelSpec(kind=model_for(fld), t=2), fld, 4, 8, rng)
    received = inject(word.d, err.e, fld)
    outcome = cpda_decode(code, received)
    assert outcome.success and outcome.locations == err.support
    synd = layer_syndromes(code, received).values
    gmat = code.encoding_matrix()
    return {
        "array": (fld.array, [received]),
        "matmul": (fld.matmul, [received, gmat]),
        "rank": (fld.rank, [received]),
        "solve_consistent": (fld.solve_consistent, [gmat, word.d.T]),
        "encode": (lambda msg: encode(code, msg), [a[0]]),
        "layer_syndromes": (lambda r: layer_syndromes(code, r), [received]),
        "build_stacked": (lambda r: build_stacked(code, r, 2), [received]),
        "synthesize_recurrence": (lambda s: synthesize_recurrence(fld, s), [synd]),
        "is_t_valid": (lambda c: is_t_valid(code, ErrorLocator(c)), [outcome.locator.coeffs]),
        "recover_error_values": (
            lambda s: recover_error_values(code, outcome.locations, SyndromeSet(s)), [synd]),
        "cpda_decode": (lambda r: cpda_decode(code, r), [received]),
        "mssr_decode": (lambda r: mssr_decode(code, r), [received]),
        "inject": (lambda d, e: inject(d, e, fld), [word.d, err.e]),
        "encode_tasks": (lambda x, y: encode_tasks(params, x, y), [a, b]),
        "assemble_irs": (lambda *outs: assemble_irs(params, outs), outputs),
        "recover_product": (lambda d: recover_product(params, dataclasses.replace(word, d=d)),
                            [word.d]),
    }


def _bits(x):
    return (x.dtype, x.shape, x.tolist() if x.dtype == object else x.tobytes())


def _same(x, y) -> bool:
    """Whether two results are equal: arrays entry for entry, containers
    and dataclasses field by field, anything else by ==."""
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and x.tolist() == y.tolist()
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(_same, x, y))
    if dataclasses.is_dataclass(x):
        return all(_same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    return x == y


@pytest.mark.parametrize("name", list(_cases(RealField())))
@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_public_functions_never_write_into_their_input(fld, name):
    func, inputs = _cases(fld)[name]
    frozen, writable = [x.copy() for x in inputs], [x.copy() for x in inputs]
    for x in frozen:
        x.setflags(write=False)
    got = func(*frozen)
    assert _same(got, func(*writable))
    for x, y, before in zip(frozen, writable, inputs):
        assert _bits(x) == _bits(before) and _bits(y) == _bits(before)
    if name == "array":
        assert not np.shares_memory(got, frozen[0])
        assert not np.shares_memory(func(writable[0]), writable[0])
