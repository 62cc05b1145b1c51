"""The benchmark's tracer (perfbench/spans.py) over the library.

The tracer wraps the public functions of each module and, through
vars(cls)[name], the matmul, rank and solve_consistent methods of both field
classes.  These tests install it over irscollab and check that every span a
decode or a field call should open records its calls, and that uninstalling
restores the library.
"""

import types
from pathlib import Path

import numpy as np
import pytest

import irscollab
from irscollab import PrimeField, RealField

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    """perfbench/spans.py as a module, compiled from its source in memory."""
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


FIELDS = [(PrimeField(257), "primitive"), (RealField(), "pow:0.9")]
IDS = ["gf257", "real"]


@pytest.mark.parametrize("fld", [f for f, _ in FIELDS], ids=IDS)
def test_field_methods_record_their_spans(spans, fld):
    originals = {cls: dict(vars(cls)) for cls in (PrimeField, RealField)}
    a = fld.array(np.arange(1, 10).reshape(3, 3) ** 2)
    tracer = spans.Tracer()
    with tracer.install(irscollab):
        fld.matmul(a, a)
        fld.rank(a)
        fld.solve_consistent(a, a[:, 0])
    assert {name: tracer.stats[name].calls
            for name in ("field.matmul", "field.rank", "field.solve")} == {
        "field.matmul": 1, "field.rank": 1, "field.solve": 1}
    assert tracer.counts["field.matmul_macs"] == 27
    for cls, namespace in originals.items():
        assert dict(vars(cls)) == namespace


@pytest.mark.parametrize("fld, rule", FIELDS, ids=IDS)
def test_decodes_record_their_spans(spans, fld, rule):
    n, k, l, t = 8, 2, 2, 2
    code = irscollab.make_grs(fld, n, k, irscollab.make_alphas(fld, n, rule))
    rng = np.random.default_rng(4)
    word = fld.matmul(fld.rand_elements(rng, (l, k)), code.encoding_matrix().T)
    err = irscollab.sample_error(irscollab.ErrorModelSpec(irscollab.model_for(fld), t),
                                 fld, l, n, rng)
    received = irscollab.inject(word, err.e, fld)
    original = irscollab.cpda_decode
    tracer = spans.Tracer()
    with tracer.install(irscollab):
        outcomes = [irscollab.cpda_decode(code, received), irscollab.mssr_decode(code, received)]
    assert all(out.success and out.locations == err.support for out in outcomes)
    for name in ("decoder.cpda", "decoder.mssr", "decoder.root"):
        assert tracer.stats[name].calls >= 1, name
    # Only GF(p) synthesizes; real mssr starts its scan at t = 1 like cpda.
    synthesized = tracer.stats["decoder.synthesize"].calls
    assert synthesized >= 1 if isinstance(fld, PrimeField) else synthesized == 0
    assert tracer.counts["decoder.success"] == 2
    assert irscollab.cpda_decode is original
