"""Soundness machinery run as experiments on the compiled games.

A classical prover for a compiled game is a replayable state machine:
round 1 can be frozen and round 2 rerun as often as needed.  Extraction
exploits that to read off the prover's whole truth table against one
round-1 transcript.  If the distribution of extracted tables depends on
which round-1 input sits inside the ciphertext, the prover contradicts
ciphertext indistinguishability; run_a2_reduction turns the dependence
into a distinguisher whose two-ciphertext guessing rate is 1/2 + L1/4,
where L1 is the distance between the two best conditional distributions.

The reduction only ever handles public material: it encrypts challenges
through a handle, generates its own pad keys, and supplies uniform pad
keys in every rewind.  The built-in white-box provers deliberately read
the pad bits inside stub ciphertexts (qfhe.peek_bits, which no real
scheme would allow) so that an input dependence exists to be found, with
closed-form distributions to compare against.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import compilers, opad, qfhe
from .compilers import CompilerKind, Message1, Message2
from .games import Assignment, ContextualityGame
from .qsim import PauliKey, int_of


def trials_for_precision(eps: float) -> int:
    """Phase-1 sample size giving L1 error at most eps at toy sizes."""
    if not 0 < eps <= 2:
        raise ValueError("eps must lie in (0, 2]")
    return math.ceil(16 / eps ** 3)


def _fresh_message1(game: ContextualityGame, kind: CompilerKind, value, lam: int,
                    rng: np.random.Generator, fhe_backend: str = "stub") -> Message1:
    # refuses a game the kind cannot compile, or a foreign input, before any draw
    compilers.plan_of(game, kind).payload(value)
    sk = qfhe.gen(rng, fhe_backend)
    keys = opad.gen(lam, rng)
    oracle = opad.PhaseOracle("hash", seed=opad.hash_seeds(rng))
    return compilers.round1_message(game, kind, value, sk.handle(), keys.pk,
                                    oracle, rng)


def extract_truthtable(prover, game: ContextualityGame, kind, round1_input,
                       lam: int, rng: np.random.Generator,
                       message1: Message1 = None) -> Assignment:
    """Freeze one round-1 exchange, then replay round 2 for every question.

    Each replay supplies a fresh uniform pad key of the width the prover
    itself committed to.  Only public material (an encryption handle, the
    pad public key, the oracle) is ever used, so no secret key appears
    anywhere in the extraction.
    """
    kind = CompilerKind(kind)
    if not getattr(prover, "replayable", False):
        raise TypeError("extraction needs a classically replayable prover")
    if message1 is None:
        message1 = _fresh_message1(game, kind, round1_input, lam, rng)
    message2 = prover.round1(message1, rng)
    width = max(1, len(message2.pad_string.slots) // 2)
    table = {}
    for q in game.questions:
        table[q] = prover.round2(q, PauliKey.uniform(width, rng), rng)
    return Assignment(table)


def l1_distance(p0: dict, p1: dict) -> Fraction:
    """L1 distance of two distributions given as {outcome: Fraction}."""
    zero = Fraction(0)
    return sum((abs(p0.get(k, zero) - p1.get(k, zero)) for k in set(p0) | set(p1)), zero)


@dataclass(frozen=True)
class ConditionalTableDistribution:
    """Empirical distribution of extracted assignments per round-1 input."""

    kind: str
    trials: int
    tables: dict        # round-1 input -> {assignment key: Fraction}
    assignments: dict   # assignment key -> Assignment

    def frequencies(self, value) -> dict:
        return dict(self.tables[value])

    def l1(self, value0, value1) -> Fraction:
        return l1_distance(self.tables[value0], self.tables[value1])

    def to_json(self) -> str:
        body = {"kind": self.kind, "trials": self.trials, "inputs": []}
        for value, freqs in self.tables.items():
            rows = [{"table": [list(pair) for pair in key], "frequency": float(f)}
                    for key, f in sorted(freqs.items())]
            shown = list(value) if isinstance(value, tuple) else value
            body["inputs"].append({"input": shown, "tables": rows})
        return json.dumps(body)


def estimate_table_distributions(prover, game: ContextualityGame, kind, inputs,
                                 trials: int, lam: int, rng: np.random.Generator,
                                 fhe_backend: str = "stub") -> ConditionalTableDistribution:
    """Repeated extraction under fresh keys, one distribution per input."""
    kind = CompilerKind(kind)
    if trials <= 0:
        raise ValueError("trials must be positive")
    plan = compilers.plan_of(game, kind)
    for value in inputs:
        plan.payload(value)  # every input is refused before any draw
    tables, assignments = {}, {}
    for value in inputs:
        counts = {}
        for _ in range(trials):
            tab = extract_truthtable(prover, game, kind, value, lam, rng,
                                     message1=_fresh_message1(
                                         game, kind, value, lam, rng, fhe_backend))
            counts[tab.key()] = counts.get(tab.key(), 0) + 1
            assignments.setdefault(tab.key(), tab)
        tables[value] = {k: Fraction(c, trials) for k, c in counts.items()}
    return ConditionalTableDistribution(kind.value, trials, tables, assignments)


@dataclass(frozen=True)
class DistinguisherPlan:
    """Best input pair and the table partition used to tell them apart."""

    input0: object
    input1: object
    t0: frozenset
    t1: frozenset
    l1: Fraction

    @property
    def useless(self) -> bool:
        return self.l1 == 0

    def guess(self, table: Assignment) -> int:
        # unseen tables count as a tie, which goes to side 0
        return int(table.key() in self.t1)


def build_distinguisher(dist: ConditionalTableDistribution) -> DistinguisherPlan:
    """Pick the input pair with maximal L1 and split tables by frequency."""
    values = list(dist.tables)
    if len(values) < 2:
        raise ValueError("need at least two round-1 inputs")
    best = None
    for i, v0 in enumerate(values):
        for v1 in values[i + 1:]:
            l1 = dist.l1(v0, v1)
            if best is None or l1 > best[0]:
                best = (l1, v0, v1)
    l1, v0, v1 = best
    p0, p1 = dist.tables[v0], dist.tables[v1]
    zero = Fraction(0)
    support = set(p0) | set(p1)
    t0 = frozenset(k for k in support if p0.get(k, zero) >= p1.get(k, zero))
    return DistinguisherPlan(v0, v1, t0, frozenset(support - t0), l1)


def run_a2_reduction(prover, game: ContextualityGame, kind, trials: int, lam: int,
                     rng: np.random.Generator, fhe_backend: str = "stub",
                     phase1_trials: int = 200):
    """Learn the prover's conditional table distributions, then play the
    two-ciphertext guessing game with the most distinguishable input pair;
    returns (guessing rate, DistinguisherPlan).

    The pad keys come from the reduction itself and every rewind supplies
    a uniform pad key; the challenge ciphertext and handle arrive from the
    game, so no secret key is reachable from the reduction's inputs.
    """
    kind = CompilerKind(kind)
    if trials < 1:
        raise ValueError("trials must be positive")
    kind_plan = compilers.plan_of(game, kind)
    dist = estimate_table_distributions(prover, game, kind, kind_plan.inputs,
                                        phase1_trials, lam, rng, fhe_backend)
    plan = build_distinguisher(dist)
    x0, x1 = kind_plan.payload(plan.input0), kind_plan.payload(plan.input1)

    def distinguisher(handle, cipher, drng):
        keys = opad.gen(lam, drng)
        oracle = opad.PhaseOracle("hash", seed=opad.hash_seeds(drng))
        message1 = Message1(cipher, handle, keys.pk, oracle, game, kind)
        return plan.guess(extract_truthtable(prover, game, kind, None, lam, drng, message1))

    return qfhe.twoind_game(distinguisher, x0, x1, trials, rng, fhe_backend), plan


def dind_prime_game(distinguisher, messages, weights, trials: int,
                    rng: np.random.Generator, backend: str = "stub") -> float:
    """Warm-up game: guess which of several known messages was encrypted.

    The challenger samples a message index from the prior, encrypts it
    under a fresh key, and the distinguisher must name the index.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    msgs = [qfhe._checked_bits(m) for m in messages]
    if len(msgs) < 2:
        raise ValueError("need at least two candidate messages")
    if any(len(m) != len(msgs[0]) for m in msgs):
        raise ValueError("candidate messages must share a length")
    prior = np.array([float(w) for w in weights], dtype=float)
    if len(prior) != len(msgs) or (prior < 0).any() or abs(prior.sum() - 1) > 1e-9:
        raise ValueError("weights must be a distribution over the messages")
    wins = 0
    for _ in range(trials):
        idx = int(rng.choice(len(msgs), p=prior))
        sk = qfhe.gen(rng, backend)
        cipher = qfhe.enc_classical(sk, msgs[idx], rng)
        wins += int(int(distinguisher(sk.handle(), cipher, rng)) == idx)
    return wins / trials


class CipherPeekingProver:
    """Classical prover whose table depends on the encrypted round-1 input.

    It decodes the payload by reading the pad bits inside the ciphertext
    (qfhe.peek_bits), something the simulation permits and a real scheme forbids;
    that dependence is exactly what the reduction is built to detect.
    With probability leak_prob a session answers from a table derived from
    the decoded input, otherwise from a fixed fallback table, so every
    conditional distribution is a known two-point mixture and pairwise L1
    distances are available in closed form.
    """

    replayable = True

    def __init__(self, game: ContextualityGame, kind, leak_prob: float = 1.0):
        if not 0 <= leak_prob <= 1:
            raise ValueError("leak_prob must lie in [0, 1]")
        self.game = game
        self.kind = compilers.plan_of(game, kind).kind
        self.leak_prob = Fraction(leak_prob).limit_denominator(10 ** 6)
        self._code = None
        self._leaking = None

    def table_for(self, code: int) -> Assignment:
        answers = self.game.answers
        return Assignment({q: answers[(code + i + 1) % len(answers)]
                           for i, q in enumerate(self.game.questions)})

    def fallback_table(self) -> Assignment:
        return Assignment({q: self.game.answers[0] for q in self.game.questions})

    def exact_distribution(self, value) -> dict:
        code = int_of(compilers.plan_of(self.game, self.kind).payload(value))
        dist = {}
        for key, p in ((self.table_for(code).key(), self.leak_prob),
                       (self.fallback_table().key(), 1 - self.leak_prob)):
            if p:
                dist[key] = dist.get(key, Fraction(0)) + p
        return dist

    def exact_l1(self, value0, value1) -> Fraction:
        return l1_distance(self.exact_distribution(value0), self.exact_distribution(value1))

    def _session_table(self) -> Assignment:
        return self.table_for(self._code) if self._leaking else self.fallback_table()

    def _round1_answer_bits(self, kind: CompilerKind, payload: tuple) -> tuple:
        game, table = self.game, self._session_table()
        plan = compilers.plan_of(game, kind)
        return tuple(bit for q in plan.asked[plan.decode(payload)]
                     for bit in compilers._encode_answer(game, table(q)))

    def round1(self, message1: Message1, rng: np.random.Generator) -> Message2:
        payload = qfhe.peek_bits(message1.question_cipher)
        self._code = int_of(payload)
        self._leaking = bool(rng.random() < float(self.leak_prob))
        fresh = PauliKey.uniform(1, rng)
        return Message2(
            qfhe.enc_classical(message1.fhe_handle,
                               self._round1_answer_bits(message1.kind, payload), rng),
            qfhe.enc_classical(message1.fhe_handle, fresh.bits(), rng),
            opad.samp(message1.opad_pk, 1, rng))

    def round2(self, question, key: PauliKey, rng: np.random.Generator = None):
        return self._session_table()(question)
