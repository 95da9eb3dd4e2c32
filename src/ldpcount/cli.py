"""Command-line interface.

Exit codes: 0 success, 1 validation/parse failure, 2 resource limit.
All randomized subcommands are deterministic given --seed; two identical
invocations produce byte-identical output regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cycles import estimate_odd_cycles, require_odd_k
from .errors import ParseError, ResourceLimitError, ValidationError
from .experiments import (
    TASKS,
    ExperimentConfig,
    error_scaling,
    load_graph,
    require_orderings,
    run_trials,
    verify_bounds,
)
from .graphs import dump_edge_list, graph_stats
from .mechanisms import PrivacyBudget, check_budget
from .oracles import exact_counts, require_lengths
from .protocol import MODES
from .triangles import estimate_triangles


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the toolkit reserves 2 for resource
    # limits, so usage errors are validation failures instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_source(p: _Parser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="edge-list file path")
    group.add_argument("--gen", help="generator spec er:<n>:<p> | ba:<n>:<m0> | ktree:<n>:<k>")


def _add_budget(p: _Parser) -> None:
    p.add_argument("--eps0", type=float, help="degree-publication budget")
    p.add_argument("--eps1", type=float, help="randomized-response budget")
    p.add_argument("--eps2", type=float, help="counting-query budget")
    p.add_argument("--zeta", type=float, default=0.1, help="clipping failure probability")
    p.add_argument("--eps-total", type=float, default=None,
                   help="declared total budget; the run is rejected if eps0+eps1+eps2 exceeds it")


def _add_seed_out(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; the output is a function of it (default 0)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_run(p: _Parser) -> None:
    _add_seed_out(p)
    p.add_argument("--mode", choices=MODES, default="noisy",
                   help="no-noise drops every mechanism: a test harness, not privacy")


def _add_trials(p: _Parser) -> None:
    p.add_argument("--task", choices=TASKS, required=True, help="what to count")
    p.add_argument("--k", type=int, default=None,
                   help="odd cycle length >= 5 (cycles task only)")
    p.add_argument("--trials", type=int, required=True, help="Monte-Carlo trials")
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--threads", type=int, default=1,
                   help="threads running trials, at most one per trial and per usable core; "
                        "the output is the same for any count. "
                        "On 2 vCPUs, 2 threads ran 20 C7 trials on er:20:0.2 1.4x faster, "
                        "but made 20 triangle trials on ba:400:3 take 1.2-1.4x as long")


def build_parser() -> _Parser:
    """One subparser per command; ``run`` maps the parsed args to its output."""
    parser = _Parser(prog="ldpcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="write a generated graph as an edge list")
    p.add_argument("--gen", required=True,
                   help="generator spec er:<n>:<p> | ba:<n>:<m0> | ktree:<n>:<k>")
    _add_seed_out(p)
    p.set_defaults(run=lambda a: dump_edge_list(load_graph(None, a.gen, a.seed)))

    p = sub.add_parser("stats", help="size, degree and degeneracy statistics")
    _add_source(p)
    _add_seed_out(p)
    p.set_defaults(run=lambda a: _on_source(a, graph_stats))

    p = sub.add_parser("count-exact", help="exact subgraph counts")
    _add_source(p)
    _add_seed_out(p)
    p.add_argument("--cycles", type=_int_list, default="",
                   help="comma-separated cycle lengths")
    p.add_argument("--paths", type=_int_list, default="",
                   help="comma-separated path edge counts")
    p.add_argument("--monotone", type=_int_list, default="",
                   help="comma-separated even cycle lengths")
    p.set_defaults(run=lambda a: _on_source(
        a, exact_counts, *require_lengths(a.cycles, a.paths, a.monotone)
    ))

    p = sub.add_parser("estimate-triangles", help="one private triangle estimate")
    _add_source(p)
    _add_budget(p)
    _add_run(p)
    p.set_defaults(run=lambda a: _on_source(
        a, estimate_triangles, _budget_from(a), a.seed, a.mode
    ))

    p = sub.add_parser("estimate-cycles", help="one private odd-cycle estimate")
    _add_source(p)
    _add_budget(p)
    _add_run(p)
    p.add_argument("--k", type=int, required=True, help="odd cycle length >= 5")
    p.set_defaults(run=lambda a: _on_source(
        a, estimate_odd_cycles, require_odd_k(a.k), _budget_from(a), a.seed, a.mode
    ))

    p = sub.add_parser("experiment", help="Monte-Carlo trials with summary stats")
    _add_source(p)
    _add_budget(p)
    _add_run(p)
    _add_trials(p)
    p.add_argument("--keep-estimates", action="store_true",
                   help="list every trial's estimate (JSON output only)")
    p.set_defaults(run=_experiment)

    p = sub.add_parser("verify-bounds", help="ordered-structure bound measurements")
    _add_source(p)
    _add_seed_out(p)
    p.add_argument("--orderings", type=int, required=True,
                   help="noisy-degree orderings to measure")
    p.add_argument("--eps0", type=float, required=True,
                   help="degree-publication budget of each ordering")
    p.set_defaults(run=lambda a: _on_source(
        a, verify_bounds, require_orderings(a.orderings, a.eps0), a.eps0, a.seed
    ))

    p = sub.add_parser("error-scaling", help="RMSE vs n and its log-log slope")
    _add_budget(p)
    _add_run(p)
    _add_trials(p)
    p.add_argument("--gen", required=True, help="template with {n}, e.g. ba:{n}:3")
    p.add_argument("--sizes", type=_int_list, required=True,
                   help="comma-separated node counts")
    p.set_defaults(
        graph=None,
        keep_estimates=False,
        run=lambda a: error_scaling(_config_from(a), a.sizes),
    )

    return parser


def _budget_from(args) -> PrivacyBudget | None:
    if args.mode == "no-noise":
        sys.stderr.write(
            "WARNING: no-noise mode publishes exact values; "
            "it is a test harness, NOT a privacy mechanism.\n"
        )
        return None
    missing = [f for f in ("eps0", "eps1", "eps2") if getattr(args, f) is None]
    if missing:
        raise ValidationError(f"noisy mode requires {', '.join('--' + m for m in missing)}")
    budget = PrivacyBudget(eps0=args.eps0, eps1=args.eps1, eps2=args.eps2, zeta=args.zeta)
    if args.eps_total is not None and not check_budget(budget, args.eps_total):
        raise ValidationError(
            f"budget spends {budget.total}, more than the declared total {args.eps_total}"
        )
    return budget


def _on_source(args, run, *checked):
    """``run(graph, *checked)``; the graph is built after the caller checked ``checked``."""
    return run(load_graph(args.graph, args.gen, args.seed), *checked)


def _config_from(args) -> ExperimentConfig:
    return ExperimentConfig(
        task=args.task,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        graph_path=args.graph,
        gen=args.gen,
        k=args.k,
        budget=_budget_from(args),
        threads=args.threads,
        keep_estimates=args.keep_estimates,
    )


def _experiment(args):
    if args.keep_estimates and args.format == "csv":
        raise ValidationError("--keep-estimates needs --format json: CSV has no estimates")
    return run_trials(_config_from(args))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def _run(args) -> None:
    """Run the command and write its output: text as is, else CSV or JSON."""
    result = args.run(args)
    if isinstance(result, str):
        text = result
    elif getattr(args, "format", "json") == "csv":
        text = result.to_csv()
    else:
        text = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ResourceLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
