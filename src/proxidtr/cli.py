"""Command-line interface.

Subcommands:

  simulate        draw a dataset from the generative law and write CSV
  identify-check  verify the four identification strategies against the
                  hidden-confounder oracle on the exact law
  estimate        value estimate for a regime from a dataset CSV
  experiment      Monte Carlo regret / overall-error study from a JSON config

``estimate`` scores a bridge method with ``estimators.cross_fit`` at every
fold count (one fold, the default, fits the whole sample); only PMR's
one-fold estimate carries a ``variance``, since only PMR's summand is its
influence function. SRA and the Oracle are plug-in values on the empirical
law and refuse ``--folds``.

Exit codes: 0 success, 1 usage error, 2 numerical failure (rank/positivity
or an identification check that exceeds tolerance).

``main`` parses with one parser per process, built on its first call:
parsing leaves a parser unchanged, so in-process calls share it.
``build_parser`` returns a fresh one.

``experiment`` and ``identify-check`` import the harness when they run;
importing this module, building the parser, ``simulate`` and ``estimate``
never load it, nor the ``concurrent.futures`` and ``multiprocessing``
modules behind its process pool.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .bridges import DEFAULT_PSEUDO_SEED, MissingBridgeError
from .dgp import Dataset, DgpParams, sample
from .estimators import ALL_METHODS, FitOptions, cross_fit, empirical_pmf, oracle_value, sra_value
from .policy import Regime
from .tables import TableError

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="proxidtr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample a dataset to CSV")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--oracle", action="store_true",
                       help="include the hidden confounder columns")
    p_sim.add_argument("-o", "--output", type=Path, required=True)

    p_chk = sub.add_parser("identify-check", help="oracle-equivalence diagnostic")
    p_chk.add_argument("--pseudo", default="",
                       help="comma-separated bridge components to corrupt (h22,h21,q11,q22)")
    p_chk.add_argument("--pseudo-seed", type=int, default=DEFAULT_PSEUDO_SEED)
    p_chk.add_argument("--dump-bridges", type=Path, default=None,
                       help="write the bridge tables used by the check as JSON")
    p_chk.add_argument("--dump-densities", type=Path, default=None,
                       help="write the four identified densities as JSON")

    p_est = sub.add_parser("estimate", help="estimate a regime's value from data")
    p_est.add_argument("--data", type=Path, required=True)
    p_est.add_argument("--method", required=True,
                       choices=[m.lower() for m in ALL_METHODS])
    p_est.add_argument("--regime", type=Path, required=True)
    p_est.add_argument("--folds", type=int, default=1)
    p_est.add_argument("--laplace", type=float, default=0.0)

    p_exp = sub.add_parser("experiment", help="Monte Carlo study from a JSON config")
    p_exp.add_argument("--config", type=Path, required=True)
    p_exp.add_argument("-o", "--output", type=Path, required=True)
    p_exp.add_argument("--quiet", action="store_true", help="suppress the text tables")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call of this process shares."""
    return build_parser()


def _cmd_simulate(args) -> int:
    data = sample(DgpParams.default(), args.n, args.seed)
    args.output.write_text(data.to_csv(include_hidden=args.oracle))
    print(f"wrote {len(data)} rows to {args.output}")
    return 0


def _cmd_identify_check(args) -> int:
    from .harness import identify_check

    if args.pseudo_seed < 0:
        raise ValueError(f"--pseudo-seed must be >= 0, got {args.pseudo_seed}")
    result = identify_check(pseudo=tuple(p for p in args.pseudo.split(",") if p), pseudo_seed=args.pseudo_seed)
    for method, dev in result.deviations.items():
        status = "ok" if dev <= result.tolerance else "FAIL"
        print(f"{method:5s} max deviation from oracle: {dev:.3e}  [{status}]")
    print(f"bridge residuals pass: {result.residuals_pass}")
    if args.dump_bridges:
        args.dump_bridges.write_text(result.bridges.to_json())
        print(f"wrote bridge tables to {args.dump_bridges}")
    if args.dump_densities:
        payload = {m: json.loads(d.to_json()) for m, d in result.densities.items()}
        args.dump_densities.write_text(json.dumps(payload))
        print(f"wrote identified densities to {args.dump_densities}")
    if not result.passed:
        print("identification check FAILED", file=sys.stderr)
        return NUMERICAL_ERROR
    print("identification check passed")
    return 0


def _cmd_estimate(args) -> int:
    opts = FitOptions(folds=args.folds, laplace=args.laplace)
    method = args.method.upper()
    if opts.folds > 1 and method in ("SRA", "ORACLE"):
        raise ValueError(f"--folds applies to the bridge methods only, not to --method {args.method}")
    data = Dataset.from_csv(args.data.read_bytes())
    regime = Regime.from_json(args.regime.read_text())
    if method in ("SRA", "ORACLE"):
        pmf = empirical_pmf(data, opts.laplace, include_hidden=method == "ORACLE")
        estimate = (sra_value if method == "SRA" else oracle_value)(pmf, regime)
    else:
        estimate = cross_fit(method, data, opts, regime)
    print(estimate.to_json())
    return 0


def _cmd_experiment(args) -> int:
    from .harness import ExperimentConfig, emit_tables, run_experiment

    config = ExperimentConfig.from_json(args.config.read_text())
    report = run_experiment(config)
    csv_text, table_text = emit_tables(report)
    args.output.write_text(csv_text)
    if not args.quiet:
        print(table_text)
    print(f"wrote report to {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "identify-check": _cmd_identify_check,
        "estimate": _cmd_estimate,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (TableError, MissingBridgeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (OSError, ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as err:  # an --n or config size too large to hold
        print(f"error: out of memory: {err}" if str(err) else "error: out of memory", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
