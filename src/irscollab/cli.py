"""Command-line front end for the Monte Carlo harness.

Subcommands:
  simulate     estimate P_F / P_ML / P_e over a grid of error weights
  bound        tabulate the analytic finite-field failure bound
  condnum      measure conditioning of the stacked syndrome system
  demo-matmul  run the coded distributed matmul pipeline end to end

Exit codes: 0 success, 2 invalid parameters or an unwritable --out path,
3 decode failure in demo mode.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InvalidParameters
from .field import PrimeField, RealField
from .harness import (
    ExperimentConfig,
    _write_lines,
    condnum_study,
    demo_matmul,
    emit_csv,
    make_alphas,
    pf_bound,
    run_monte_carlo,
)
from .polycode import PolyCodeParams

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DECODE_FAILURE = 3


def _parse_field(text: str):
    if text == "real":
        return RealField()
    digits = text[len("gf:"):]
    if not (text.startswith("gf:") and digits.isdecimal()):
        raise InvalidParameters(f"field must be 'real' or 'gf:<p>', got {text!r}")
    return PrimeField(int(digits))


def _parse_range(text: str) -> tuple:
    """'3' -> (3,); '1:6' -> (1, 2, 3, 4, 5, 6) (inclusive bounds)."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (int(parts[0]),)
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if lo > hi:
                raise InvalidParameters(f"empty range {text!r}")
            return tuple(range(lo, hi + 1))
    except ValueError as exc:
        raise InvalidParameters(f"bad range {text!r}") from exc
    raise InvalidParameters(f"bad range {text!r}")


def _check_writable(path) -> None:
    """Raise OSError unless path can be written.

    An existing file is opened for appending and left as it is; a new one is
    created and removed again, so a study that then stops on a bad parameter
    leaves no file behind.
    """
    new = not os.path.exists(path)
    with open(path, "x" if new else "a", encoding="utf-8"):
        pass
    if new:
        os.remove(path)


def _report(study, config: ExperimentConfig, out) -> int:
    """Run study(config), write its report to out as CSV when out is given,
    then print it.  out is checked first, so an unwritable path costs no
    study."""
    if out:
        _check_writable(out)
    report = study(config)
    if out:
        emit_csv(report, out)
    print("   t   L    trials  failures  undetected       p_f      p_ml       p_e")
    for c in report.cells:
        print(f"{c.t:4d} {c.l:3d} {c.trials:9d} {c.failures:9d} {c.undetected:11d} "
              f"{c.p_f:9.5f} {c.p_ml:9.5f} {c.p_e:9.5f}"
              + (f"  cond {c.mean_cond:.4e}" if c.mean_cond is not None else ""))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = ExperimentConfig(
        field=_parse_field(args.field), n=args.n, k=args.k, l_values=(args.l,),
        t_values=_parse_range(args.t), trials=args.trials, alphas=args.alphas,
        decoder=args.decoder, seed=args.seed)
    return _report(run_monte_carlo, config, args.out)


def _cmd_bound(args) -> int:
    lines = ["t,L,q,n,k,pf_bound"]
    for t in _parse_range(args.t):
        bound = pf_bound(args.q, args.n, args.k, args.l, t)
        lines.append(f"{t},{args.l},{args.q},{args.n},{args.k},{bound!r}")
    if args.out:
        _write_lines(args.out, lines)
    for line in lines:
        print(line)
    return EXIT_OK


def _cmd_condnum(args) -> int:
    config = ExperimentConfig(
        field=RealField(), n=args.n, k=args.k, l_values=_parse_range(args.l),
        t_values=_parse_range(args.t), trials=args.trials, alphas=args.alphas, seed=args.seed)
    return _report(condnum_study, config, args.out)


def _cmd_demo_matmul(args) -> int:
    fld = _parse_field(args.field)
    xs = make_alphas(fld, args.workers, args.alphas)
    params = PolyCodeParams(field=fld, m=args.m, n=args.nblocks,
                            num_workers=args.workers, xs=xs)
    report = demo_matmul(params, args.t, args.seed)
    if not report.success:
        reason = getattr(report.reason, "value", report.reason)
        print(f"decode failed with {report.t} faulty workers of {report.num_workers}: {reason}")
        return EXIT_DECODE_FAILURE
    print(f"recovered the product with {report.t} faulty workers of "
          f"{report.num_workers}; max relative error {report.max_rel_error:.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irscollab",
        description="Collaborative decoding experiments for coded distributed matmul.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo error-rate estimation")
    sim.add_argument("--field", required=True, help="gf:<p> or real")
    sim.add_argument("--n", type=int, required=True, help="number of workers N")
    sim.add_argument("--k", type=int, required=True, help="code dimension K")
    sim.add_argument("--l", type=int, required=True, help="interleaving depth L")
    sim.add_argument("--t", required=True, help="error weight or range min:max")
    sim.add_argument("--trials", type=int, default=2000)
    sim.add_argument("--alphas", help="pow:<base> | linear | primitive (default by field)")
    sim.add_argument("--decoder", choices=["cpda", "mssr", "both"], default="cpda")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None, help="CSV output path")
    sim.set_defaults(func=_cmd_simulate)

    bnd = sub.add_parser("bound", help="analytic failure bound")
    bnd.add_argument("--q", type=int, required=True)
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--k", type=int, required=True)
    bnd.add_argument("--l", type=int, required=True)
    bnd.add_argument("--t", required=True, help="error weight or range min:max")
    bnd.add_argument("--out", default=None, help="CSV output path")
    bnd.set_defaults(func=_cmd_bound)

    cnd = sub.add_parser("condnum", help="stacked-system conditioning study")
    cnd.add_argument("--n", type=int, required=True)
    cnd.add_argument("--k", type=int, required=True)
    cnd.add_argument("--l", required=True, help="depth or range lmin:lmax")
    cnd.add_argument("--t", required=True, help="error weight or range min:max")
    cnd.add_argument("--trials", type=int, default=500)
    cnd.add_argument("--alphas", help="pow:<base> | linear (default by field)")
    cnd.add_argument("--seed", type=int, default=0)
    cnd.add_argument("--out", default=None, help="CSV output path")
    cnd.set_defaults(func=_cmd_condnum)

    demo = sub.add_parser("demo-matmul", help="end-to-end coded matmul")
    demo.add_argument("--field", required=True, help="gf:<p> or real")
    demo.add_argument("--m", type=int, required=True, help="column blocks of A")
    demo.add_argument("--nblocks", type=int, required=True, help="column blocks of B")
    demo.add_argument("--workers", type=int, required=True, help="number of workers N")
    demo.add_argument("--t", type=int, required=True, help="faulty workers")
    demo.add_argument("--alphas", help="pow:<base> | linear | primitive (default by field)")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo_matmul)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameters, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
