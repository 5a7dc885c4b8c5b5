"""The four benchmark workloads and their output checks.

A workload builds its games, strategies and provers once (set-up), then
exposes a fixed cycle of ops.  Each op is ``(config, fn)``: ``fn(rng)``
runs one session or one exact value through the public ctxsim functions
and returns a small value the checks read.  Every configuration draws
from its own random stream, spawned from the run's seed, so the same
seed gives the same inputs and, on the same program, the same outputs.

Checks follow the CLI's rule: a Monte Carlo rate may differ from its
analytic target by three binomial sigma plus 0.005, in the direction the
CLI tests (two-sided for completeness rows, upper bounds for classical
provers, lower bounds for extractors).  Rates the paper puts at 1 must
be exactly 1.0, and exact values must equal their Fractions.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ctxsim import compilers, games, poq, reductions

SLACK = 0.005
LAM = 8
REPORT_SEED = 7
HONEST_POQ = math.cos(math.pi / 8) ** 2
KCBS_QUANTUM = 2 / math.sqrt(5)
KCBS_1_1_COMPLETENESS = (1 + KCBS_QUANTUM) / 2


def tolerance(target: float, trials: int) -> float:
    """The CLI's bound tolerance: three binomial sigma plus SLACK."""
    return 3 * math.sqrt(max(target * (1 - target), 0.0) / trials) + SLACK


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str

    def as_dict(self) -> dict:
        return {"label": self.label, "ok": self.ok, "detail": self.detail}


def rate_check(label: str, hits: int, trials: int, target: float,
               comparison: str) -> Check:
    """Score hits/trials against target; comparison is '~=', '<=', '>='
    (with the CLI tolerance) or '==' (exact)."""
    if trials == 0:
        return Check(label, False, "no trials")
    rate = hits / trials
    tol = tolerance(target, trials)
    ok = {"~=": abs(rate - target) <= tol,
          "<=": rate <= target + tol,
          ">=": rate >= target - tol,
          "==": rate == target}[comparison]
    return Check(label, bool(ok),
                 f"rate={rate:.5f} {comparison} {target:.5f} "
                 f"(n={trials}, tol={0 if comparison == '==' else tol:.5f})")


def tally(configs: list, values: list) -> dict:
    """config -> [ops, truthy values] over parallel lists."""
    out = {}
    for config, value in zip(configs, values):
        row = out.setdefault(config, [0, 0])
        row[0] += 1
        row[1] += bool(value)
    return out


class Workload:
    """Base: subclasses set the class fields and build their ops."""

    name = ""
    tail_pct = 99
    prefix_cycles = 1
    # ops per block, the unit the loop stops at; None for the whole cycle
    block_ops = None
    # True when every cycle repeats the same inputs, so an op after the
    # prefix must give the value its position gave in the first cycle
    inputs_repeat = False

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.setup_checks = []
        self._ops = self._build()
        configs = sorted({c for c, _ in self._ops})
        streams = np.random.SeedSequence(seed).spawn(len(configs) + 1)
        self.streams = {c: np.random.default_rng(s) for c, s in zip(configs, streams)}
        self._warm_rng = np.random.default_rng(streams[-1])

    def _build(self) -> list:
        raise NotImplementedError

    def cycle(self) -> list:
        return self._ops

    def warm_up(self) -> None:
        """One op per configuration, on a stream of its own."""
        seen = set()
        for config, fn in self._ops:
            if config not in seen:
                seen.add(config)
                fn(self._warm_rng)

    def value_ok(self, pos: int, config: str, value) -> bool:
        """Exact check of one op's value; pos is its place in the cycle."""
        return True

    def check_values(self, values: list) -> list:
        """Checks every op's value; values are in cycle order, repeating.
        An op that raised has the value None and is counted as failed."""
        failures = {}
        width = len(self._ops)
        for i, value in enumerate(values):
            pos = i % width
            config = self._ops[pos][0]
            if value is not None and not self.value_ok(pos, config, value):
                failures[config] = failures.get(config, 0) + 1
        return [Check(f"{config} exact", False, f"{n} ops off target")
                for config, n in sorted(failures.items())]

    def rate_checks(self, configs: list, values: list) -> list:
        return []

    def digest_outputs(self, configs: list, values: list) -> dict:
        return {c: row for c, row in sorted(tally(configs, values).items())}

    def report_argv(self) -> list:
        raise NotImplementedError

    def report_checks(self, report: dict) -> list:
        return [Check("report bounds_ok", report.get("bounds_ok") is True,
                      f"rows={[r.get('row') for r in report.get('rows', [])]}")]


class Compiled(Workload):
    """Four-message compiled sessions at lambda=8 with the stub backend."""

    name = "compiled"
    tail_pct = 99
    prefix_cycles = 100  # 4,800 ops
    report_trials = 200

    def _build(self) -> list:
        kc, kc_strat = games.kcbs()
        ms, ms_strat = games.magic_square()
        kc_value, kc_table = games.nc_value_with_table(kc)
        ms_value, ms_table = games.nc_value_with_table(ms)
        feasible = compilers.feasible_inconsistent_prover(kc)
        self.setup_checks += [
            Check("kcbs nc value", kc_value == Fraction(4, 5), str(kc_value)),
            Check("magic-square nc value", ms_value == Fraction(5, 6), str(ms_value)),
            Check("kcbs c-1 feasible analytic rate",
                  feasible.analytic_rate == Fraction(9, 10), str(feasible.analytic_rate)),
        ]
        # config -> (game, kind, prover, target, comparison); targets are
        # the paper's: (1 + 2/sqrt5)/2 and (1 + 4/5)/2 on the pentagon,
        # 1 for honest c-1 and cm1-1, 9/10 for the feasible prover, and
        # 1 - 1/3 + (5/6)/3 = 17/18 for the cm1-1 square table.
        self.sessions = {
            "kcbs/1-1/honest": (kc, "1-1", compilers.honest_quantum_prover(kc_strat),
                                KCBS_1_1_COMPLETENESS, "~="),
            "kcbs/1-1/truthtable": (kc, "1-1", compilers.truthtable_prover(kc_table),
                                    0.9, "<="),
            "magic-square/c-1/honest": (ms, "c-1", compilers.honest_quantum_prover(ms_strat),
                                        1.0, "=="),
            "kcbs/c-1/feasible": (kc, "c-1", feasible, 0.9, "<="),
            "magic-square/cm1-1/honest": (ms, "cm1-1", compilers.honest_quantum_prover(ms_strat),
                                          1.0, "=="),
            "magic-square/cm1-1/truthtable": (ms, "cm1-1", compilers.truthtable_prover(ms_table),
                                              17 / 18, "<="),
        }
        self.extractions = {
            f"extract/{gname}/{kind}": (game, kind,
                                        reductions.CipherPeekingProver(game, kind, leak_prob=0.5))
            for gname, game, kind in (("kcbs", kc, "1-1"), ("kcbs", kc, "c-1"),
                                      ("magic-square", ms, "cm1-1"))
        }
        self._support = {}
        names = list(self.sessions)
        extract_names = list(self.extractions)
        ops = []
        # six blocks of eight: every configuration, one more session, and
        # one extraction, so each session runs 7 and extraction 6 times
        for block in range(6):
            for config in names + [names[block]]:
                ops.append((config, self._session(config)))
            config = extract_names[block % len(extract_names)]
            ops.append((config, self._extraction(config)))
        return ops

    def _session(self, config: str):
        game, kind, prover, _, _ = self.sessions[config]

        def op(rng):
            return compilers.run_session(game, kind, prover, rng, lam=LAM)[0]
        return op

    def _extraction(self, config: str):
        game, kind, prover = self.extractions[config]
        inputs = compilers.round1_inputs(game, kind)

        def op(rng):
            value = inputs[int(rng.integers(len(inputs)))]
            table = reductions.extract_truthtable(prover, game, kind, value, LAM, rng)
            return value, table.key()
        return op

    def value_ok(self, pos: int, config: str, value) -> bool:
        if config in self.extractions:
            round1_input, key = value
            cache_key = (config, round1_input)
            if cache_key not in self._support:
                prover = self.extractions[config][2]
                self._support[cache_key] = set(prover.exact_distribution(round1_input))
            return key in self._support[cache_key]
        return self.sessions[config][4] != "==" or value is True

    def rate_checks(self, configs: list, values: list) -> list:
        rows = tally(configs, values)
        checks = []
        for config, (_, _, _, target, comparison) in self.sessions.items():
            ops, hits = rows.get(config, (0, 0))
            checks.append(rate_check(config, hits, ops, target, comparison))
        return checks

    def digest_outputs(self, configs: list, values: list) -> dict:
        out = {c: row for c, row in sorted(tally(configs, values).items())
               if c in self.sessions}
        for config in self.extractions:
            out[config] = sorted(repr(v) for c, v in zip(configs, values) if c == config)
        return out

    def report_argv(self) -> list:
        return ["compile", "--game", "magic-square", "--compiler", "cm1-1",
                "--trials", str(self.report_trials), "--seed", str(REPORT_SEED)]


class Poq(Workload):
    """2-round quantumness instances mixed as `ctxsim poq --prover all`."""

    name = "poq"
    tail_pct = 99
    prefix_cycles = 4000  # 36,000 ops
    report_trials = 300
    # the paper's classical rates, and the extractor's success 2r - 1
    ANALYTIC = {"zero-echo": Fraction(3, 4), "preimage": Fraction(3, 4),
                "random-echo": Fraction(1, 2), "random-answer": Fraction(1, 2)}

    def _build(self) -> list:
        self.setup_checks += [
            Check(f"{kind} analytic rate",
                  poq.CLASSICAL_CLASSES[kind].analytic_rate == rate,
                  str(poq.CLASSICAL_CLASSES[kind].analytic_rate))
            for kind, rate in self.ANALYTIC.items()]
        honest = poq.honest()
        ops = [("honest", lambda rng: poq.run_protocol(honest, 1, rng, lam=LAM)[0])]
        for kind in poq.CLASSICAL_KINDS:
            factory = poq.classical(kind)
            ops.append((kind, lambda rng, f=factory: poq.run_protocol(f, 1, rng, lam=LAM)[0]))
            ops.append(("rewind-" + kind,
                        lambda rng, f=factory: poq.rewind_experiment(f, 1, rng, lam=LAM)))
        return ops

    def rate_checks(self, configs: list, values: list) -> list:
        rows = tally(configs, values)

        def check(config, target, comparison):
            ops, hits = rows.get(config, (0, 0))
            return rate_check(config, hits, ops, target, comparison)

        checks = [check("honest", HONEST_POQ, "~=")]
        for kind, rate in self.ANALYTIC.items():
            checks.append(check(kind, 0.75, "<="))
            checks.append(check("rewind-" + kind, float(2 * rate - 1), ">="))
        return checks

    def report_argv(self) -> list:
        return ["poq", "--trials", str(self.report_trials), "--seed", str(REPORT_SEED)]


class Circuit(Workload):
    """Register-level paths: circuit quantumness and circuit-pad sessions."""

    name = "circuit"
    tail_pct = 99
    prefix_cycles = 80  # 1,200 ops
    report_trials = 500
    # ops per cycle, weighted so the checked rates get enough trials
    MIX = (("poq/circuit/lam6", 8), ("kcbs/1-1/honest-circuit/lam6", 4),
           ("poq/circuit/lam8", 2), ("kcbs/1-1/honest-circuit/lam8", 1))

    def _build(self) -> list:
        kc, kc_strat = games.kcbs()
        factory = poq.honest("circuit")
        provers = {lam: compilers.honest_quantum_prover(kc_strat, opad_path="circuit")
                   for lam in (6, 8)}

        def poq_op(lam):
            return lambda rng: poq.run_protocol(factory, 1, rng, lam=lam)[0]

        def kcbs_op(lam):
            return lambda rng: compilers.run_session(kc, "1-1", provers[lam], rng, lam=lam)[0]

        makers = {"poq/circuit/lam6": poq_op(6), "poq/circuit/lam8": poq_op(8),
                  "kcbs/1-1/honest-circuit/lam6": kcbs_op(6),
                  "kcbs/1-1/honest-circuit/lam8": kcbs_op(8)}
        # spread each configuration evenly over the cycle
        slots = sorted(((i + 0.5) / n, config) for config, n in self.MIX for i in range(n))
        return [(config, makers[config]) for _, config in slots]

    def rate_checks(self, configs: list, values: list) -> list:
        rows = tally(configs, values)
        checks = []
        for family, target in (("poq/circuit", HONEST_POQ),
                               ("kcbs/1-1/honest-circuit", KCBS_1_1_COMPLETENESS)):
            ops = sum(r[0] for c, r in rows.items() if c.startswith(family))
            hits = sum(r[1] for c, r in rows.items() if c.startswith(family))
            checks.append(rate_check(family, hits, ops, target, "~="))
        return checks

    def report_argv(self) -> list:
        return ["compile", "--game", "kcbs", "--compiler", "1-1", "--prover", "honest",
                "--trials", str(self.report_trials), "--seed", str(REPORT_SEED)]


def cycle_game(n: int, rng: np.random.Generator) -> games.ContextualityGame:
    """n-cycle exclusivity game under a random labelling and context order;
    its NC value is 1 for even n and (n - 1)/n for odd n."""
    labels = [f"q{int(v)}" for v in rng.permutation(n)]
    edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    order = rng.permutation(n)
    contexts = tuple(edges[int(i)] for i in order)
    return games.ContextualityGame(
        questions=tuple(labels), answers=(0, 1), contexts=contexts,
        context_weights=(Fraction(1, n),) * n,
        accepts={i: frozenset({(0, 1), (1, 0)}) for i in range(n)})


def random_game(q: int, rng: np.random.Generator) -> games.ContextualityGame:
    """Binary game on q questions: q contexts of size 2 or 3, random
    nonempty accept tables and random rational weights."""
    contexts, accepts, weights = [], {}, []
    for i in range(q):
        size = 2 + i % 2
        contexts.append(tuple(int(v) for v in rng.choice(q, size=size, replace=False)))
        tuples = list(itertools.product((0, 1), repeat=size))
        keep = rng.random(len(tuples)) < 0.5
        keep[int(rng.integers(len(tuples)))] = True
        accepts[i] = frozenset(t for t, k in zip(tuples, keep) if k)
        weights.append(int(rng.integers(1, 10)))
    total = sum(weights)
    return games.ContextualityGame(
        questions=tuple(range(q)), answers=(0, 1), contexts=tuple(contexts),
        context_weights=tuple(Fraction(w, total) for w in weights), accepts=accepts)


def exact_nc_value(game: games.ContextualityGame) -> Fraction:
    """Independent NC value: every assignment at once, in integer units of
    the weights' common denominator."""
    q, k = len(game.questions), len(game.answers)
    index = {question: j for j, question in enumerate(game.questions)}
    answer_index = {a: i for i, a in enumerate(game.answers)}
    tables = np.arange(k ** q, dtype=np.int64)
    digits = np.stack([(tables // k ** (q - 1 - j)) % k for j in range(q)], axis=1)
    den = math.lcm(*(w.denominator for w in game.context_weights))
    score = np.zeros(len(tables), dtype=np.int64)
    for ci, context in enumerate(game.contexts):
        code = np.zeros(len(tables), dtype=np.int64)
        for question in context:
            code = code * k + digits[:, index[question]]
        accepted = np.zeros(k ** len(context), dtype=bool)
        for answers in game.accepts[ci]:
            c = 0
            for a in answers:
                c = c * k + answer_index[a]
            accepted[c] = True
        weight = game.context_weights[ci]
        score += accepted[code] * int(weight * den)
    return Fraction(int(score.max()), den)


def table_value(game: games.ContextualityGame, table: dict) -> Fraction:
    """Exact value of one assignment, re-evaluated from the accept tables."""
    return sum((w for i, w in enumerate(game.context_weights)
                if tuple(table[q] for q in game.contexts[i]) in game.accepts[i]),
               Fraction(0))


class Exact(Workload):
    """Exact values: NC search on generated games, quantum values."""

    name = "exact"
    tail_pct = 90
    prefix_cycles = 1  # 2,020 ops
    inputs_repeat = True
    CYCLE_SIZES = tuple(range(5, 17))
    RANDOM_SIZES = tuple(range(9, 17))
    # The cycle is one block per search of the size ladder above: the
    # ladder search, then this mix spread evenly over the block.  A block
    # takes about 0.2-0.4 s besides its ladder search, short enough to sit
    # in one spell of a shared machine, and in each block of 101 ops the
    # median falls in the middle of the 43 size-7 searches and p90 among
    # the 30 size-8 searches, never on a jump between kinds of op.
    BLOCK_MIX = (("nc/cycle5", 12), ("quantum/chsh", 1), ("quantum/kcbs", 1),
                 ("quantum/magic-square", 1), ("nc/cycle6", 12), ("nc/cycle7", 43),
                 ("nc/cycle8", 30))
    REPORT_QUESTIONS = 14
    QUANTUM = {"kcbs": KCBS_QUANTUM, "magic-square": 1.0, "chsh": HONEST_POQ}

    @property
    def block_ops(self) -> int:
        return 1 + sum(n for _, n in self.BLOCK_MIX)

    def _build(self) -> list:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        self.instances = {}
        self._expected = {}
        strategies = {"kcbs": games.kcbs(), "magic-square": games.magic_square(),
                      "chsh": games.chsh()}
        ladder = ([(f"nc/cycle{n}", cycle_game(n, rng)) for n in self.CYCLE_SIZES]
                  + [(f"nc/random{q}", random_game(q, rng)) for q in self.RANDOM_SIZES])
        # alternate the largest and smallest remaining searches, so the
        # long ones are spread over the cycle
        ladder.sort(key=lambda item: len(item[1].questions))
        order = [ladder.pop(-1 if i % 2 == 0 else 0) for i in range(len(ladder))]
        slots = sorted(((i + 0.5) / n, config) for config, n in self.BLOCK_MIX
                       for i in range(n))
        ops = []

        def add_search(config, game):
            self.instances[len(ops)] = game
            ops.append((config, lambda _rng, g=game: self._search(g)))

        for config, game in order:
            add_search(config, game)
            for _, config in slots:
                kind, name = config.split("/")
                if kind == "quantum":
                    game, strategy = strategies[name]
                    ops.append((config, lambda _rng, g=game, s=strategy:
                                games.quantum_value_of(g, s)))
                else:
                    add_search(config, cycle_game(int(name[len("cycle"):]), rng))
        return ops

    def warm_up(self) -> None:
        """Each quantum value once and the smallest search; the large
        searches have nothing to warm and would dominate set-up."""
        warm = {c: fn for c, fn in self._ops
                if c.startswith("quantum/") or c == "nc/cycle5"}
        for fn in warm.values():
            fn(self._warm_rng)

    @staticmethod
    def _search(game):
        value, table = games.nc_value_with_table(game)
        return value, table.table

    def value_ok(self, pos: int, config: str, value) -> bool:
        if config.startswith("quantum/"):
            return abs(value - self.QUANTUM[config.split("/")[1]]) <= 1e-9
        game = self.instances[pos]
        if pos not in self._expected:
            if config.startswith("nc/cycle"):
                n = len(game.questions)
                self._expected[pos] = Fraction(1) if n % 2 == 0 else Fraction(n - 1, n)
            else:
                self._expected[pos] = exact_nc_value(game)
        nc, table = value
        return nc == self._expected[pos] and table_value(game, table) == nc

    def digest_outputs(self, configs: list, values: list) -> dict:
        return {"values": [str(v[0]) if isinstance(v, tuple) else repr(v) for v in values]}

    def report_argv(self) -> list:
        path = self.scratch / f"values-game-{self.REPORT_QUESTIONS}q.json"
        if not path.exists():
            game = random_game(self.REPORT_QUESTIONS, np.random.default_rng(REPORT_SEED))
            path.write_text(game.to_json())
        return ["values", "--game", str(path)]

    def report_checks(self, report: dict) -> list:
        path = Path(self.report_argv()[-1])
        game = games.ContextualityGame.from_json(path.read_text())
        expected = exact_nc_value(game)
        got = report["rows"][0]["nc_value_exact"]
        return super().report_checks(report) + [
            Check("report nc value", got == str(expected), f"{got} vs {expected}")]


WORKLOADS = {w.name: w for w in (Compiled, Poq, Circuit, Exact)}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]
