"""Fault-tolerant coded distributed matrix multiplication.

Polynomial-coded matmul tasks are distributed to N workers; the stacked
worker outputs form an interleaved generalized Reed-Solomon word whose
layers share error locations (faulty workers corrupt whole columns).  Two
collaborative decoders recover the product from up to
t_max = floor(L (N-K) / (L+1)) faulty workers - well beyond half the
minimum distance for L > 1 - and a Monte Carlo harness measures failure
rates, the analytic failure bound, and numerical conditioning.
"""

from .decoder import (
    DecodeOutcome,
    ErrorLocator,
    FailureReason,
    StackedSystem,
    SyndromeSet,
    build_stacked,
    cpda_decode,
    is_t_valid,
    layer_syndromes,
    mssr_decode,
    outcomes_equal,
    recover_error_values,
    synthesize_recurrence,
    t_max,
)
from .errmodel import ErrorMatrix, ErrorModelSpec, hamming_weight, inject, sample_error
from .errors import DecoderMismatch, InvalidParameters, NotACodeword
from .field import Field, PrimeField, RealField, is_prime
from .grs import GrsCode, classical_code, encode, interpolate, make_grs, syndromes
from .harness import (
    CellStats,
    DemoReport,
    ExperimentConfig,
    Report,
    condnum_study,
    demo_matmul,
    emit_csv,
    load_csv,
    make_alphas,
    pf_bound,
    run_monte_carlo,
)
from .polycode import (
    IrsWord,
    PolyCodeParams,
    WorkerTask,
    assemble_irs,
    choose_exponents,
    encode_tasks,
    recover_product,
    worker_compute,
)

__version__ = "0.1.0"

__all__ = [
    "CellStats",
    "DecodeOutcome",
    "DecoderMismatch",
    "DemoReport",
    "ErrorLocator",
    "ErrorMatrix",
    "ErrorModelSpec",
    "ExperimentConfig",
    "FailureReason",
    "Field",
    "GrsCode",
    "InvalidParameters",
    "IrsWord",
    "NotACodeword",
    "PolyCodeParams",
    "PrimeField",
    "RealField",
    "Report",
    "StackedSystem",
    "SyndromeSet",
    "WorkerTask",
    "assemble_irs",
    "build_stacked",
    "choose_exponents",
    "classical_code",
    "condnum_study",
    "cpda_decode",
    "demo_matmul",
    "emit_csv",
    "encode",
    "encode_tasks",
    "hamming_weight",
    "inject",
    "interpolate",
    "is_prime",
    "is_t_valid",
    "layer_syndromes",
    "load_csv",
    "make_alphas",
    "make_grs",
    "mssr_decode",
    "outcomes_equal",
    "pf_bound",
    "recover_error_values",
    "recover_product",
    "run_monte_carlo",
    "sample_error",
    "syndromes",
    "synthesize_recurrence",
    "t_max",
    "worker_compute",
]
