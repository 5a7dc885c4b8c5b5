"""Command-line front end for the simulators.

Three subcommands:

  values    exact non-contextual value and the bundled strategy's quantum
            value for a built-in or JSON-described game
  poq       acceptance rates for the 2-round quantumness test: honest
            quantum prover, the classical prover zoo, and the rewinding
            extractor on each zoo member
  compile   win-rate table for a compiled contextuality game under a
            chosen compiler and prover, against the theorem bound

Every row embeds the formula and bound it is judged against.  Reports go
to stdout as JSON ("schema": 2); --out additionally writes the JSON file
plus a CSV mirroring the flat fields, and --transcripts writes one JSON
line per protocol run, each as its row runs, so a fault in a later row
leaves the earlier rows' lines on disk.  Identical configuration and seed
give byte identical files.

Exit codes: 0 ok, 2 a bound was violated under --assert, 3 bad
configuration and nothing else: every argument, game file, strategy and
precondition is checked before the first row runs, and any other error
propagates with its traceback.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import compilers, poq, tcf
from .games import (ContextualityGame, QuantumStrategy, check_nc_search, chsh,
                    kcbs, magic_square, nc_value, nc_value_with_table,
                    quantum_value_of)

SCHEMA = 2
SLACK = 0.005  # allowance on top of 3 binomial sigma in bound checks

BUILTIN_GAMES = {"magic-square": magic_square, "kcbs": kcbs, "chsh": chsh}
# Deepest [ / { nesting of a game file: parsing and freezing labels recurse per level.
MAX_JSON_DEPTH = 64


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); config problems must exit 3 instead
    def error(self, message):
        raise ConfigError(message)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    game: str | None = None
    compiler: str | None = None
    prover: str | None = None
    trials: int | None = None
    seed: int | None = None
    lam: int | None = None
    fhe: str | None = None
    out: str | None = None

    def as_dict(self) -> dict:
        return {("lambda" if k == "lam" else k): v for k, v in dataclasses.asdict(self).items()}


def load_game(spec: str):
    """Resolve a builtin id or a JSON file; returns (game, strategy|None).

    A file may hold either a bare game (the to_json shape) or an object
    {"game": ..., "strategy": ...} bundling a strategy for the honest
    prover and the quantum value.
    """
    if spec in BUILTIN_GAMES:
        return BUILTIN_GAMES[spec]()
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(
            f"unknown game {spec!r}: not one of {sorted(BUILTIN_GAMES)} "
            "and not a readable file")
    try:
        text = path.read_text()
        steps = [1 if b in "[{" else -1 for b in re.findall(r'"(?:[^"\\]|\\.)*"|([][{}])', text) if b]
        if np.cumsum([0] + steps).max() > MAX_JSON_DEPTH:
            raise ValueError(f"JSON nested deeper than MAX_JSON_DEPTH = {MAX_JSON_DEPTH}")
        data = json.loads(text)
        if "game" not in data:
            return ContextualityGame.from_dict(data), None
        game = ContextualityGame.from_dict(data["game"])
        strategy = None
        if data.get("strategy") is not None:
            strategy = QuantumStrategy.from_dict(data["strategy"], questions=game.questions)
            strategy.validate(game)
        return game, strategy
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"{spec}: {exc}") from exc


def _precondition(check, game) -> None:
    """Run a game precondition, reporting its ValueError as a configuration error."""
    try:
        check(game)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _tol(bound: float, trials: int) -> float:
    return 3 * math.sqrt(max(bound * (1 - bound), 0.0) / trials) + SLACK


def _rewind_tol(base_rate: float, trials: int) -> float:
    """3 sigma + SLACK on rewind rate - (2 * base_rate - 1), both rates
    estimated from trials instances each."""
    bound = min(max(2 * base_rate - 1, 0.0), 1.0)
    variance = bound * (1 - bound) + 4 * base_rate * (1 - base_rate)
    return 3 * math.sqrt(variance / trials) + SLACK


def _stderr(rate: float, trials: int) -> float:
    return math.sqrt(rate * (1 - rate) / trials)


def cmd_values(config: RunConfig, _transcripts):
    game, strategy = load_game(config.game)
    _precondition(check_nc_search, game)
    value = nc_value(game)
    row = {
        "row": "values", "game": config.game,
        "nc_value": float(value), "nc_value_exact": str(value),
        "quantum_value": (None if strategy is None
                          else quantum_value_of(game, strategy)),
        "method": "exhaustive tables / exact Born rule",
    }
    return {"schema": SCHEMA, "config": config.as_dict(), "rows": [row],
            "bounds_ok": True}


def _transcripts_file(transcripts: str | None):
    """The --transcripts file, opened once every pre-row check has passed."""
    return open(transcripts, "w") if transcripts else contextlib.nullcontext()


def _line_writer(fh, row: str):
    """The on_transcript that writes each of row's transcripts to fh as one
    JSON line; None without a file."""
    if fh is None:
        return None
    return lambda t: fh.write(json.dumps({"row": row, **t.as_dict()}) + "\n")


def _poq_row_names(selector: str) -> list:
    zoo = []
    for kind in poq.CLASSICAL_KINDS:
        zoo += [kind, "rewind-" + kind]
    if selector == "honest":
        return ["honest"]
    if selector == "zoo":
        return zoo
    if selector == "all":
        return ["honest"] + zoo
    return [selector, "rewind-" + selector]


def cmd_poq(config: RunConfig, transcripts: str | None):
    seeds = np.random.SeedSequence(config.seed)
    rows = []
    base_rates = {}
    with _transcripts_file(transcripts) as fh:
        for name in _poq_row_names(config.prover):
            rng = np.random.default_rng(seeds.spawn(1)[0])
            if name.startswith("rewind-"):
                kind = name[len("rewind-"):]
                rate = poq.estimate_rewind(kind, config.trials, rng, lam=config.lam)
                bound = 2 * base_rates[kind] - 1
                rows.append({
                    "row": name, "prover": kind, "trials": config.trials,
                    "rate": rate, "stderr": _stderr(rate, config.trials),
                    "formula": "2*rate - 1", "bound": bound, "comparison": ">=",
                    "within": rate >= bound - _rewind_tol(base_rates[kind], config.trials),
                })
                continue
            rate = poq.estimate_rate(name, config.trials, rng, lam=config.lam,
                                     on_transcript=_line_writer(fh, name))
            row = {"row": name, "prover": name, "trials": config.trials,
                   "rate": rate, "stderr": _stderr(rate, config.trials)}
            if name == "honest":
                bound = poq.HONEST_RATE
                row.update(formula="cos^2(pi/8)", bound=bound, comparison="~=",
                           within=abs(rate - bound) <= _tol(bound, config.trials))
            else:
                base_rates[name] = rate
                analytic = poq.CLASSICAL_CLASSES[name].analytic_rate
                bound = poq.CLASSICAL_BOUND
                row.update(analytic=float(analytic), analytic_exact=str(analytic),
                           formula="3/4", bound=bound, comparison="<=",
                           within=rate <= bound + _tol(bound, config.trials))
            rows.append(row)
    return {"schema": SCHEMA, "config": config.as_dict(), "rows": rows,
            "bounds_ok": all(r["within"] for r in rows)}


def _compile_row_names(selector: str, kind, strategy) -> list:
    if selector != "all":
        return [selector]
    names = [] if strategy is None else ["honest"]
    names.append("truthtable")
    if kind is compilers.FeasibleInconsistentProver.target:
        names.append("feasible")
    return names


def _make_prover(name: str, game, kind, strategy):
    if name == "honest":
        if strategy is None:
            raise ConfigError("the honest prover needs a bundled strategy; "
                              "this game file carries none")
        return compilers.honest_quantum_prover(strategy)
    try:
        if name == "truthtable":
            prover = compilers.truthtable_prover(nc_value_with_table(game)[1])
        else:
            prover = compilers.feasible_inconsistent_prover(game)
        # the round-1 multiplexer needs one question count for every input,
        # and the feasible prover refuses any kind but its target
        prover._circuit_for(game, kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return prover


def cmd_compile(config: RunConfig, transcripts: str | None):
    game, strategy = load_game(config.game)
    kind = compilers.CompilerKind(config.compiler)
    # every precondition and prover is checked before any row runs
    _precondition(compilers.spec_of(kind).check, game)
    _precondition(check_nc_search, game)
    provers = {name: _make_prover(name, game, kind, strategy)
               for name in _compile_row_names(config.prover, kind, strategy)}
    bounds = compilers.theorem_bounds(
        game, kind, None if strategy is None
        else quantum_value_of(game, strategy))

    seeds = np.random.SeedSequence(config.seed)
    rows = []
    with _transcripts_file(transcripts) as fh:
        for name, prover in provers.items():
            rng = np.random.default_rng(seeds.spawn(1)[0])
            rate, stderr = compilers.estimate_win_rate(
                game, kind, prover, config.trials, rng, lam=config.lam,
                fhe_backend=config.fhe, on_transcript=_line_writer(fh, name))
            row = {"row": name, "prover": name, "compiler": kind.value,
                   "trials": config.trials, "rate": rate, "stderr": stderr}
            if name == "honest":
                bound = bounds["completeness_bound"]
                row.update(formula=bounds["completeness_formula"], bound=bound,
                           comparison="~=",
                           within=abs(rate - bound) <= _tol(bound, config.trials))
            else:
                bound = bounds["soundness_bound"]
                row.update(formula=bounds["soundness_formula"], bound=bound,
                           comparison="<=",
                           within=rate <= bound + _tol(bound, config.trials))
            if name == "feasible":
                row["analytic"] = float(prover.analytic_rate)
                row["analytic_exact"] = str(prover.analytic_rate)
            rows.append(row)
    return {"schema": SCHEMA, "config": config.as_dict(), "rows": rows,
            "bounds_ok": all(r["within"] for r in rows)}


COMMANDS = {"values": cmd_values, "poq": cmd_poq, "compile": cmd_compile}


LAMBDA_HELP = (f"claw-free domain bits, 3 to {tcf.MAX_DOMAIN_BITS} (default 8); "
               "every trial draws a fresh key, sampled lazily, so its cost does not "
               "grow with 2^lambda")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctxsim",
                     description="simulators for compiled contextuality "
                                 "games and a 2-round test of quantumness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("values", help="exact game values")
    p.add_argument("--game", required=True,
                   help="builtin id (magic-square, kcbs, chsh) or JSON path")
    p.add_argument("--out", help="write JSON here and a CSV alongside")

    p = sub.add_parser("poq", help="2-round quantumness test rates")
    p.add_argument("--prover", default="all",
                   choices=("all", "honest", "zoo") + poq.CLASSICAL_KINDS)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=8, help=LAMBDA_HELP)
    p.add_argument("--out")
    p.add_argument("--assert", dest="assert_bounds", action="store_true",
                   help="exit 2 when a row misses its bound")
    p.add_argument("--transcripts", help="write JSON-lines transcripts here")

    p = sub.add_parser("compile", help="compiled-game win rates")
    p.add_argument("--game", required=True)
    p.add_argument("--compiler", required=True,
                   choices=tuple(k.value for k in compilers.CompilerKind))
    p.add_argument("--prover", default="all",
                   choices=("all", "honest", "truthtable", "feasible"))
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=8, help=LAMBDA_HELP)
    p.add_argument("--fhe", default="stub", choices=("stub", "leaky"),
                   help="classical encryption under the qfhe (default stub); leaky "
                        "exposes the pad bits on purpose, for security-game checks")
    p.add_argument("--out")
    p.add_argument("--assert", dest="assert_bounds", action="store_true")
    p.add_argument("--transcripts")
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    fields = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    if fields["trials"] is not None and fields["trials"] < 1:
        raise ConfigError("trials must be at least 1")
    if fields["lam"] is not None and not 3 <= fields["lam"] <= tcf.MAX_DOMAIN_BITS:
        raise ConfigError(f"--lambda must be 3 to {tcf.MAX_DOMAIN_BITS}, "
                          f"not {fields['lam']}")
    if fields["seed"] is not None and fields["seed"] < 0:
        raise ConfigError(f"--seed must be 0 or more, not {fields['seed']}")
    out = fields["out"] and Path(fields["out"])
    outputs = {"--out": out, "--out's CSV": out and _csv_path(out),
               "--transcripts": getattr(args, "transcripts", None)}
    for flag, path in outputs.items():
        if path is None:
            continue
        if not Path(path).parent.is_dir():
            raise ConfigError(f"{flag}: no directory {str(Path(path).parent)!r}")
        if Path(path).is_dir():
            raise ConfigError(f"{flag}: {str(path)!r} is a directory")
    game = fields["game"]
    if game is not None and game not in BUILTIN_GAMES:
        for flag, path in outputs.items():
            if path and Path(path).resolve() == Path(game).resolve():
                raise ConfigError(f"{flag} {str(path)!r} is the --game file {game!r}")
    transcripts = outputs.pop("--transcripts")
    for flag, path in outputs.items():
        if transcripts and path and Path(transcripts).resolve() == path.resolve():
            raise ConfigError(f"--transcripts {transcripts!r} is the same file as {flag}")
    return RunConfig(**fields)


def _csv_path(out: Path) -> Path:
    """The CSV written alongside the JSON report at out."""
    return out.with_suffix(".csv") if out.suffix == ".json" else Path(str(out) + ".csv")


def _flat(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_outputs(report: dict, config: RunConfig) -> None:
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if config.out:
        out = Path(config.out)
        out.write_text(text)
        csv_path = _csv_path(out)
        columns = list(report["config"])
        for row in report["rows"]:
            columns += [k for k in row if k not in columns]
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in report["rows"]:
                merged = {**report["config"], **row}
                writer.writerow([_flat(merged.get(c)) for c in columns])


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        config = _config_from(args)
        report = COMMANDS[config.command](config, getattr(args, "transcripts", None))
    except ConfigError as exc:
        print(f"ctxsim: {exc}", file=sys.stderr)
        return 3
    _write_outputs(report, config)
    if getattr(args, "assert_bounds", False) and not report["bounds_ok"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
