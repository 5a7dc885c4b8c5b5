"""Contextuality games: model, built-in instances, exact value computation.

A game is a tuple (questions, answers, contexts, context weights, predicate).
The predicate is stored as an explicit accept-set table per context so games
serialize to JSON and stay language-agnostic.  Values are computed exactly:
the non-contextual value by exhaustive search over deterministic assignment
tables, scored as broadcast sums of per-context accept tensors in integer
units of the weights' common denominator; the quantum value of a supplied
strategy analytically from sequential commuting projectors.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .qsim import ATOL_EIG, I2, Observable, StateVector, X, Z, branch_measure

# A search at the bound (24 binary questions, 24 contexts of 2-3 questions)
# takes about 0.5 s on one core of a 2-vCPU Xeon VM, CPython 3.11, numpy 2.4.
NC_SEARCH_BOUND = 2 ** 24
_NC_BLOCK = 2 ** 12  # most assignments scored per block


def _as_weight(w) -> Fraction:
    if isinstance(w, Fraction):
        return w
    if isinstance(w, str):
        try:
            return Fraction(w)
        except ZeroDivisionError:
            raise ValueError(f"context weight {w!r} has a zero denominator") from None
    if isinstance(w, int):
        return Fraction(w)
    # through the shortest decimal repr, so a JSON 0.2 means 1/5
    return Fraction(repr(float(w)))


@dataclass(frozen=True)
class ContextualityGame:
    """Single-player game: referee asks one context, checks an accept table.

    accepts maps context index -> frozenset of accepted answer tuples, the
    tuples indexed in the context's question order.
    """

    questions: tuple
    answers: tuple
    contexts: tuple
    context_weights: tuple
    accepts: dict

    def __post_init__(self):
        questions = tuple(self.questions)
        answers = tuple(self.answers)
        contexts = tuple(tuple(c) for c in self.contexts)
        weights = tuple(_as_weight(w) for w in self.context_weights)
        if len(set(questions)) != len(questions):
            raise ValueError("duplicate questions")
        if not answers or len(set(answers)) != len(answers):
            raise ValueError("answers must be distinct labels, at least one")
        if len(weights) != len(contexts):
            raise ValueError("one weight per context required")
        den, units = _units(weights)
        if any(u < 0 for u in units):
            raise ValueError("context weights must be nonnegative")
        if sum(units) != den:
            raise ValueError(
                f"context weights must sum to exactly 1, not {sum(weights)}; "
                'write thirds and the like as fraction strings such as "1/3"')
        qset = set(questions)
        for c in contexts:
            if not c:
                raise ValueError("contexts must be nonempty")
            if len(set(c)) != len(c) or not set(c) <= qset:
                raise ValueError(f"context {c} is not a subset of the question set")
        strays = sorted(map(str, set(self.accepts) - set(range(len(contexts)))))
        if strays:
            raise ValueError(f"predicate keys {strays} name no context; "
                             f"the contexts are 0 to {len(contexts) - 1}")
        accepts = {}
        aset = set(answers)
        for i, c in enumerate(contexts):
            table = frozenset(tuple(t) for t in self.accepts.get(i, ()))
            for t in table:
                if len(t) != len(c) or not set(t) <= aset:
                    raise ValueError(f"accept tuple {t} malformed for context {c}")
            accepts[i] = table
        object.__setattr__(self, "questions", questions)
        object.__setattr__(self, "answers", answers)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "context_weights", weights)
        object.__setattr__(self, "accepts", accepts)

    def predicate(self, ctx_index: int, answer_tuple) -> int:
        return int(tuple(answer_tuple) in self.accepts[ctx_index])

    @cached_property
    def _context_bounds(self) -> np.ndarray:
        # float64 running sums of the weights, added in context order; the
        # last is infinite, so a uniform past the float sum draws the last context
        bounds = np.cumsum([float(w) for w in self.context_weights])
        bounds[-1] = np.inf
        return bounds

    @cached_property
    def _compiler_plans(self) -> dict:
        # each compiler kind's rules on this game, filled by compilers.plan_of
        return {}

    def contexts_at(self, r):
        """The context a uniform r in [0, 1) draws, or one per uniform of an
        array: the first whose running float sum of weights exceeds r, else
        the last context."""
        return np.searchsorted(self._context_bounds, r, side="right")

    def sample_context(self, rng: np.random.Generator) -> int:
        return int(self.contexts_at(rng.random()))

    def uniform_context_size(self) -> int | None:
        sizes = {len(c) for c in self.contexts}
        return sizes.pop() if len(sizes) == 1 else None

    def to_json(self) -> str:
        return json.dumps({
            "questions": list(self.questions),
            "answers": list(self.answers),
            "contexts": [list(c) for c in self.contexts],
            "context_weights": [str(w) for w in self.context_weights],
            "predicate": {str(i): sorted(list(t) for t in self.accepts[i])
                          for i in range(len(self.contexts))},
        })

    @classmethod
    def from_json(cls, text: str) -> "ContextualityGame":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, data: dict) -> "ContextualityGame":
        """The game of a parsed to_json object."""
        for key in data["predicate"]:
            # int() alone reads "01", " 1" and "+1" as 1, so two keys could
            # name one context and one table would be dropped
            if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
                raise ValueError(f"predicate key {key!r} is not a context index "
                                 'written as to_json writes it, such as "1"')
        return cls(
            questions=tuple(_freeze(q) for q in data["questions"]),
            answers=tuple(_freeze(a) for a in data["answers"]),
            contexts=tuple(tuple(_freeze(q) for q in c) for c in data["contexts"]),
            context_weights=tuple(_as_weight(w) for w in data["context_weights"]),
            accepts={int(i): frozenset(tuple(_freeze(a) for a in t) for t in ts)
                     for i, ts in data["predicate"].items()},
        )


def _freeze(v):
    return tuple(_freeze(x) for x in v) if isinstance(v, list) else v


@dataclass(frozen=True)
class Assignment:
    """Deterministic truth table: one answer per question."""

    table: dict

    def __post_init__(self):
        object.__setattr__(self, "table", dict(self.table))

    def __call__(self, question):
        return self.table[question]

    def on_context(self, context) -> tuple:
        return tuple(self.table[q] for q in context)

    def key(self) -> tuple:
        return tuple(sorted(self.table.items(), key=lambda kv: repr(kv[0])))


@dataclass(frozen=True)
class QuantumStrategy:
    """Hilbert dimension, initial state, one Hermitian observable per question."""

    dim: int
    psi: StateVector
    observables: dict

    def __post_init__(self):
        object.__setattr__(self, "observables", dict(self.observables))
        size = 1
        for d in self.psi.dims:
            size *= d
        if size != self.dim:
            raise ValueError("state size does not match dim")

    def validate(self, game: ContextualityGame) -> None:
        """Raises unless spectra lie in the answer set and contexts commute."""
        for q in game.questions:
            if q not in self.observables:
                raise ValueError(f"no observable for question {q!r}")
            obs = self.observables[q]
            if obs.dim != self.dim:
                raise ValueError(f"observable for {q!r} has wrong dimension")
            for val, _ in obs.eigensystem:
                if min(abs(val - float(a)) for a in game.answers) > ATOL_EIG:
                    raise ValueError(f"eigenvalue {val} of {q!r} is not an answer label")
        for c in game.contexts:
            for qa, qb in itertools.combinations(c, 2):
                a, b = self.observables[qa].matrix, self.observables[qb].matrix
                if np.max(np.abs(a @ b - b @ a)) > ATOL_EIG:
                    raise ValueError(f"observables {qa!r}, {qb!r} do not commute")

    def answer_for(self, game: ContextualityGame, eigenvalue: float):
        """The answer label nearest a measured eigenvalue; refuses one that
        lies more than 1e-6 from every label."""
        label = min(game.answers, key=lambda a: abs(eigenvalue - float(a)))
        if abs(eigenvalue - float(label)) > 1e-6:
            raise ValueError(f"measured value {eigenvalue} matches no declared outcome")
        return label

    def to_json(self) -> str:
        def mat(m):
            return [[[float(x.real), float(x.imag)] for x in row] for row in m]
        return json.dumps({
            "dim": self.dim,
            "state": [[float(a.real), float(a.imag)] for a in self.psi.amps],
            "observables": {str(q): mat(o.matrix) for q, o in self.observables.items()},
        })

    @classmethod
    def from_json(cls, text: str, questions=None) -> "QuantumStrategy":
        return cls.from_dict(json.loads(text), questions)

    @classmethod
    def from_dict(cls, data: dict, questions=None) -> "QuantumStrategy":
        """The strategy of a parsed to_json object."""
        dim = int(data["dim"])
        amps = np.array([complex(re, im) for re, im in data["state"]])
        by_name = {}
        for key, rows in data["observables"].items():
            m = np.array([[complex(re, im) for re, im in row] for row in rows])
            by_name[key] = Observable(m)
        if questions is not None:
            # JSON keys are strings; recover question identity via str().
            by_name = {q: by_name[str(q)] for q in questions}
        return cls(dim=dim, psi=StateVector((dim,), amps), observables=by_name)


def _units(weights):
    """(common denominator, each Fraction weight as an integer over it)."""
    den = math.lcm(*(w.denominator for w in weights))
    return den, [w.numerator * (den // w.denominator) for w in weights]


def _weight_units(game: ContextualityGame):
    """(common denominator, integer weight units, indices of scored contexts);
    a context scores when it has weight and some accepted tuple."""
    den, units = _units(game.context_weights)
    return den, units, [i for i, u in enumerate(units) if u and game.accepts[i]]


def check_nc_search(game: ContextualityGame) -> None:
    """Raises ValueError when the exact NC search of game passes NC_SEARCH_BOUND,
    in assignment tables or in accept-lookup entries, before any allocation."""
    _check_search_size(game, _weight_units(game)[2])


def _check_search_size(game: ContextualityGame, scored) -> None:
    k = len(game.answers)
    n_tables = k ** len(game.questions)
    if n_tables > NC_SEARCH_BOUND:
        raise ValueError(f"{n_tables} assignments exceed the brute-force bound {NC_SEARCH_BOUND}")
    n_entries = sum(k ** len(game.contexts[i]) for i in scored)
    if n_entries > NC_SEARCH_BOUND:
        raise ValueError(f"accept lookups of {n_entries} entries exceed the "
                         f"brute-force bound {NC_SEARCH_BOUND}")


def nc_value_with_table(game: ContextualityGame):
    """Exact non-contextual value and the first arg-max assignment.

    Assignments are enumerated in lexicographic order over the question
    tuple, answers cycling fastest on the last question: table index t
    holds answer (t // k^(q-1-j)) % k for question j, so the scores form
    a tensor with one axis of length k per question in C order.  A context's
    weight, as an integer over the common denominator, sits in a lookup
    tensor at each accepted answer, with length-1 axes for the questions it
    does not ask.  Each block of the trailing questions sums the lookups,
    indexed at the block's leading answers, in one broadcast add per context.
    """
    den, units, scored = _weight_units(game)
    _check_search_size(game, scored)
    questions, answers = game.questions, game.answers
    k, q = len(answers), len(questions)
    total = sum(units[i] for i in scored)
    # Python ints once a score could overflow int64
    dtype = np.int64 if total < 2 ** 63 else object
    # a block is the last tail questions, at most _NC_BLOCK tables
    tail = max(t for t in range(q + 1) if k ** t <= _NC_BLOCK)
    lead = q - tail
    axis = {question: j for j, question in enumerate(questions)}
    answer_code = {a: i for i, a in enumerate(answers)}
    base, lookups = np.zeros((k,) * tail, dtype=dtype), []
    for i in scored:
        axes = [axis[question] for question in game.contexts[i]]
        # codes in sorted axis order, so the reshape below is a view
        order = sorted(range(len(axes)), key=axes.__getitem__)
        lookup = np.zeros(k ** len(axes), dtype=dtype)
        for t in game.accepts[i]:
            code = 0
            for p in order:
                code = code * k + answer_code[t[p]]
            lookup[code] = units[i]
        lookup = lookup.reshape([k if j in axes else 1 for j in range(q)])
        if min(axes) >= lead:  # trailing questions only: the same in every block
            base += lookup[(0,) * lead]
        else:  # leading axes stretched to k, so any leading answers index it
            lookups.append(np.broadcast_to(lookup, (k,) * lead + lookup.shape[lead:]))

    best, best_index = -1, 0
    for block, digits in enumerate(itertools.product(range(k), repeat=lead)):
        score = base.copy()
        for lookup in lookups:
            score += lookup[digits]
        i = int(score.argmax())
        # strictly greater: the first arg-max in index order wins
        if score.flat[i] > best:
            best, best_index = int(score.flat[i]), block * k ** tail + i
            if best == total:  # no later table can score higher
                break
    table = {question: answers[best_index // k ** (q - 1 - j) % k]
             for j, question in enumerate(questions)}
    return Fraction(best, den), Assignment(table)


def nc_value(game: ContextualityGame) -> Fraction:
    return nc_value_with_table(game)[0]


def context_answer_distribution(game: ContextualityGame, strategy: QuantumStrategy, ctx_index: int):
    """Exact Born-rule distribution over answer tuples for one context.

    Observables are measured sequentially in the context's question order;
    order is immaterial for valid strategies (they commute).
    """
    context = game.contexts[ctx_index]
    targets = list(range(strategy.psi.num_registers))
    out = {}

    def walk(state, prefix, prob):
        if len(prefix) == len(context):
            out[prefix] = out.get(prefix, 0.0) + prob
            return
        obs = strategy.observables[context[len(prefix)]]
        for val, p, post in branch_measure(state, obs, targets):
            if post is None:
                continue
            walk(post, prefix + (strategy.answer_for(game, val),), prob * p)

    walk(strategy.psi, (), 1.0)
    return out

def quantum_value_of(game: ContextualityGame, strategy: QuantumStrategy) -> float:
    """Exact winning probability of the strategy (no sampling)."""
    strategy.validate(game)
    value = 0.0
    for i, w in enumerate(game.context_weights):
        dist = context_answer_distribution(game, strategy, i)
        value += float(w) * sum(p for a, p in dist.items() if a in game.accepts[i])
    return value


def magic_square():
    """The 3x3 two-qubit square: rows and columns multiply to +1 except
    the third column, which multiplies to -1.  Returns (game, strategy)."""
    questions = tuple(f"{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))
    rows = [tuple(f"{i}{j}" for j in (1, 2, 3)) for i in (1, 2, 3)]
    cols = [tuple(f"{i}{j}" for i in (1, 2, 3)) for j in (1, 2, 3)]
    contexts = tuple(rows + cols)
    accepts = {}
    for idx in range(6):
        sign = -1 if idx == 5 else 1
        accepts[idx] = frozenset(t for t in itertools.product((1, -1), repeat=3)
                                 if t[0] * t[1] * t[2] == sign)
    game = ContextualityGame(
        questions=questions,
        answers=(1, -1),
        contexts=contexts,
        context_weights=(Fraction(1, 6),) * 6,
        accepts=accepts,
    )
    xz = X @ Z
    table = {
        "11": np.kron(I2, X), "12": np.kron(Z, I2), "13": np.kron(Z, X),
        "21": np.kron(X, I2), "22": np.kron(I2, Z), "23": np.kron(X, Z),
        "31": np.kron(X, X), "32": np.kron(Z, Z), "33": np.kron(xz, xz),
    }
    psi = StateVector((4,), [1, 0, 0, 0])
    strategy = QuantumStrategy(4, psi, {q: Observable(m) for q, m in table.items()})
    return game, strategy


def kcbs():
    """Five-cycle exclusivity game on a qutrit; returns (game, strategy)."""
    questions = tuple(range(5))
    contexts = tuple((q, (q + 1) % 5) for q in range(5))
    accepts = {i: frozenset({(0, 1), (1, 0)}) for i in range(5)}
    game = ContextualityGame(
        questions=questions,
        answers=(0, 1),
        contexts=contexts,
        context_weights=(Fraction(1, 5),) * 5,
        accepts=accepts,
    )
    c = np.cos(np.pi / 5)
    cos2_theta = c / (1 + c)
    ct = np.sqrt(cos2_theta)
    stheta = np.sqrt(1 - cos2_theta)
    observables = {}
    for q in questions:
        phi = 4 * np.pi * q / 5
        v = np.array([ct, stheta * np.sin(phi), stheta * np.cos(phi)], dtype=complex)
        observables[q] = Observable(np.outer(v, v.conj()))
    psi = StateVector((3,), [1, 0, 0])
    return game, QuantumStrategy(3, psi, observables)


def embed_nonlocal_game(alice_questions, bob_questions, answers, predicate, weights=None):
    """Two-player game as a contextuality game: questions are role-tagged,
    contexts pair one Alice question with one Bob question, and the accept
    table is the product predicate pred(x, y, a, b)."""
    alice_questions = tuple(alice_questions)
    bob_questions = tuple(bob_questions)
    questions = tuple(f"A{x}" for x in alice_questions) + tuple(f"B{y}" for y in bob_questions)
    pairs = list(itertools.product(alice_questions, bob_questions))
    contexts = tuple((f"A{x}", f"B{y}") for x, y in pairs)
    if weights is None:
        weights = (Fraction(1, len(pairs)),) * len(pairs)
    accepts = {
        i: frozenset((a, b) for a in answers for b in answers if predicate(x, y, a, b))
        for i, (x, y) in enumerate(pairs)
    }
    return ContextualityGame(
        questions=questions,
        answers=tuple(answers),
        contexts=contexts,
        context_weights=tuple(weights),
        accepts=accepts,
    )


def chsh():
    """Embedded CHSH with its tilted-projector strategy on an EPR pair."""
    game = embed_nonlocal_game(
        (0, 1), (0, 1), (0, 1),
        predicate=lambda x, y, a, b: (a ^ b) == (x & y),
    )
    angles_a = {0: 0.0, 1: np.pi / 4}
    angles_b = {0: np.pi / 8, 1: -np.pi / 8}

    def proj(alpha):
        v = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
        return np.outer(v, v.conj())

    observables = {}
    for x, alpha in angles_a.items():
        observables[f"A{x}"] = Observable(np.kron(proj(alpha), I2))
    for y, beta in angles_b.items():
        observables[f"B{y}"] = Observable(np.kron(I2, proj(beta)))
    epr = StateVector((4,), np.array([1, 0, 0, 1]) / np.sqrt(2))
    return game, QuantumStrategy(4, epr, observables)


def pad_contexts(game: ContextualityGame) -> ContextualityGame:
    """Equalize context sizes with dummy questions the predicate ignores."""
    target = max(len(c) for c in game.contexts)
    if all(len(c) == target for c in game.contexts):
        return game
    most_missing = target - min(len(c) for c in game.contexts)
    dummies = tuple(f"_pad{i}" for i in range(most_missing))
    contexts = []
    accepts = {}
    for i, c in enumerate(game.contexts):
        extra = dummies[: target - len(c)]
        contexts.append(tuple(c) + extra)
        if extra:
            accepts[i] = frozenset(
                t + suffix
                for t in game.accepts[i]
                for suffix in itertools.product(game.answers, repeat=len(extra))
            )
        else:
            accepts[i] = game.accepts[i]
    return ContextualityGame(
        questions=game.questions + dummies,
        answers=game.answers,
        contexts=tuple(contexts),
        context_weights=game.context_weights,
        accepts=accepts,
    )


def extend_strategy(strategy: QuantumStrategy, new_questions, answer) -> QuantumStrategy:
    """Add constant observables answer*I for questions the strategy lacks."""
    observables = dict(strategy.observables)
    for q in new_questions:
        if q not in observables:
            observables[q] = Observable(float(answer) * np.eye(strategy.dim))
    return QuantumStrategy(strategy.dim, strategy.psi, observables)


def embed_in_qubits(strategy: QuantumStrategy, fill_answer) -> QuantumStrategy:
    """Re-express a dim-d strategy on ceil(log2 d) qubits.

    The extra dimensions get zero amplitude and each observable is extended
    with fill_answer on the complement, preserving spectra and commutation.
    """
    m = max(1, int(np.ceil(np.log2(strategy.dim))))
    full = 2 ** m
    if full == strategy.dim and strategy.psi.dims == (2,) * m:
        return strategy
    amps = np.zeros(full, dtype=complex)
    amps[: strategy.dim] = strategy.psi.amps
    observables = {}
    for q, obs in strategy.observables.items():
        mat = np.eye(full, dtype=complex) * float(fill_answer)
        mat[: strategy.dim, : strategy.dim] = obs.matrix
        observables[q] = Observable(mat)
    return QuantumStrategy(full, StateVector((2,) * m, amps), observables)
