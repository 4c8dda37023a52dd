"""Batch command-line front end.

Subcommands: verify, value, dist, search, resources, list. Reports are JSON
by default (stable key order; only runtime_ms varies between identical
invocations) or markdown tables with --format md. Exit codes: 0 pass,
2 property violated (verification counterexample, non-uniform distribution),
1 usage or enumeration-limit errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import analysis, games, strategies
from .engine import DEFAULT_MAX_SEED_BITS, EnumerationLimitError


class UsageError(Exception):
    pass


def _frac(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


def parse_seed_policy(spec: str, rng_seed, max_seed_bits):
    if spec == "exhaustive":
        if rng_seed is not None:
            raise UsageError("--rng-seed applies only to --seeds sample:<K>")
        return analysis.Exhaustive()
    if spec.startswith("sample:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad sample count in --seeds {spec!r}") from None
        if rng_seed is None:
            raise UsageError("sampled mode requires --rng-seed for reproducibility")
        if max_seed_bits is not None:
            raise UsageError("--max-seed-bits applies only to --seeds exhaustive")
        return analysis.Sample(k, rng_seed)
    raise UsageError(f"--seeds must be 'exhaustive' or 'sample:<K>', got {spec!r}")


def _max_seed_bits(args) -> int:
    """--max-seed-bits, or its default when it was not given."""
    return DEFAULT_MAX_SEED_BITS if args.max_seed_bits is None else args.max_seed_bits


def _compatible(strategy, game) -> bool:
    """Structural fit: same party count, same per-party input domains and
    output lengths as the strategy's intended game."""
    intended = games.get_game(strategy.game_id)
    return (intended.n_parties == game.n_parties
            and intended.party_inputs == game.party_inputs
            and intended.output_lengths == game.output_lengths)


def _render_md(report: dict) -> str:
    lines = []
    scalars = {k: v for k, v in report.items()
               if not isinstance(v, (list, dict)) or k == "best" or k == "value"}
    lines.append("| field | value |")
    lines.append("| --- | --- |")
    for k, v in scalars.items():
        if isinstance(v, dict) and set(v) == {"num", "den"}:
            v = f"{v['num']}/{v['den']}"
        lines.append(f"| {k} | {v} |")
    for x in report.get("inputs", ()):
        lines.append("")
        lines.append(f"input {x['input']}:")
        lines.append("")
        lines.append("| outcome | probability |")
        lines.append("| --- | --- |")
        for o in x["outcomes"]:
            parts = "|".join("".join(str(b) for b in part) for part in o["outcome"])
            lines.append(f"| {parts} | {o['num']}/{o['den']} |")
    return "\n".join(lines)


def _emit(report: dict, fmt: str):
    if fmt == "md":
        print(_render_md(report))
    else:
        print(json.dumps(report, sort_keys=True))


def cmd_list(args) -> int:
    report = {
        "games": sorted(
            base if n is None else f"{base}:<n>"
            for base, (_, n) in games.GAME_FAMILIES.items()),
        "strategies": sorted(
            base if n is None else f"{base}:<n>"
            for base, (_, n) in strategies.STRATEGY_FAMILIES.items()),
    }
    _emit(report, args.format)
    return 0


def cmd_verify(args) -> int:
    game = games.get_game(args.game)
    strategy = strategies.get_strategy(args.strategy)
    if not _compatible(strategy, game):
        raise UsageError(
            f"strategy {args.strategy!r} does not fit game {args.game!r} "
            "(party count / input / output arity mismatch)")
    policy = parse_seed_policy(args.seeds, args.rng_seed, args.max_seed_bits)
    start = time.monotonic()
    try:
        result = analysis.verify_winning(strategy, game, policy,
                                         max_seed_bits=_max_seed_bits(args))
    except EnumerationLimitError as exc:
        # only verify can sample instead
        raise EnumerationLimitError(f"{exc}; use --seeds sample:<K>") from None
    nlb, comm = analysis.resource_count(strategy)
    report = {
        "game": game.name, "strategy": strategy.name, "mode": result.mode,
        "value": _frac(result.fraction),
        "checked": result.checked,
        "resources": {"nlb": nlb, "comm": comm},
        "runtime_ms": int((time.monotonic() - start) * 1000),
    }
    if result.counterexample is not None:
        report["counterexample"] = result.counterexample
    _emit(report, args.format)
    return 0 if result.passed else 2


def cmd_value(args) -> int:
    game = games.get_game(args.game)
    start = time.monotonic()
    value = analysis.classical_value(game, max_candidates=args.max_search)
    report = {
        "game": game.name, "strategy": None, "mode": "classical-value",
        "value": _frac(value),
        "runtime_ms": int((time.monotonic() - start) * 1000),
    }
    _emit(report, args.format)
    return 0


def cmd_dist(args) -> int:
    game = games.get_game(args.game)
    strategy = strategies.get_strategy(args.strategy)
    if not _compatible(strategy, game):
        raise UsageError(
            f"strategy {args.strategy!r} does not fit game {args.game!r}")
    start = time.monotonic()
    dist = analysis.exact_distribution(strategy, game,
                                       max_seed_bits=_max_seed_bits(args))
    verdict = analysis.uniformity_verdict(dist, game) if game.uniform_target else None
    report = dist.to_json()
    report["mode"] = "exact-dist"
    report["uniform_over_winners"] = verdict
    report["runtime_ms"] = int((time.monotonic() - start) * 1000)
    _emit(report, args.format)
    return 2 if verdict is False else 0


def cmd_search(args) -> int:
    game = games.get_game(args.game)
    if args.budget not in ("0nlb", "1nlb"):
        raise UsageError("--budget must be 0nlb or 1nlb")
    pair = None
    if args.pair is not None:
        try:
            a, b = (int(v) for v in args.pair.split(","))
        except ValueError:
            raise UsageError("--pair expects two comma-separated party indices") from None
        pair = (a, b)
    start = time.monotonic()
    report_obj = analysis.impossibility_search(
        game, pair=pair, budget=int(args.budget[0]),
        max_candidates=args.max_search)
    report = report_obj.to_json()
    report["strategy"] = None
    report["mode"] = "search"
    report["runtime_ms"] = int((time.monotonic() - start) * 1000)
    _emit(report, args.format)
    return 0


def cmd_resources(args) -> int:
    strategy = strategies.get_strategy(args.strategy)
    nlb, comm = analysis.resource_count(strategy)
    report = {
        "strategy": strategy.name, "game": strategy.game_id,
        "mode": "resources",
        "resources": {"nlb": nlb, "comm": comm},
        "seed_space": strategy.seed_count(),
        "shared_domain": strategy.shared_domain.describe(),
    }
    _emit(report, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlbox",
        description="simulate and exhaustively verify non-local-box protocols")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, game=False, strategy=False, seeds=False, sweep=False, search=False):
        p.add_argument("--format", choices=("json", "md"), default="json")
        if game:
            p.add_argument("--game", required=True)
        if strategy:
            p.add_argument("--strategy", required=True)
        if seeds:
            p.add_argument("--seeds", default="exhaustive",
                           help="exhaustive | sample:<K>")
            p.add_argument("--rng-seed", type=int, default=None)
        if sweep:
            # None: not given, which sampled verify requires
            p.add_argument("--max-seed-bits", type=int, default=None)
        if search:
            p.add_argument("--max-search", type=int, default=analysis.DEFAULT_MAX_SEARCH)

    p = sub.add_parser("verify", help="check a strategy against a game")
    common(p, game=True, strategy=True, seeds=True, sweep=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("value", help="classical game value by brute force")
    common(p, game=True, search=True)
    p.set_defaults(fn=cmd_value)

    p = sub.add_parser("dist", help="exact outcome distribution per input")
    common(p, game=True, strategy=True, sweep=True)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("search", help="exhaust single-NLB deterministic strategies")
    common(p, game=True, search=True)
    p.add_argument("--budget", default="1nlb", help="0nlb | 1nlb")
    p.add_argument("--pair", default=None,
                   help="restrict to one NLB pairing, e.g. 0,1")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("resources", help="NLB and communication counts")
    common(p, strategy=True)
    p.set_defaults(fn=cmd_resources)

    p = sub.add_parser("list", help="registry dump")
    common(p)
    p.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        for flag in ("max_seed_bits", "max_search"):
            limit = getattr(args, flag, None)
            if limit is not None and limit < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be at least 0, "
                                 f"got {limit}")
        return args.fn(args)
    except (UsageError, EnumerationLimitError, games.GameError,
            strategies.StrategyError, analysis.AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
