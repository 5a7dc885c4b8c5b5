"""Two-round compilations of contextuality games for a single prover.

A contextuality game asks several compatible questions at once; these
compilers split it into four messages between a classical verifier and
one prover so that no-signalling between the rounds is enforced by
cryptography instead of by spacelike separation.  Three kinds:

  "1-1"    one encrypted question in round 1, one plaintext question in
           round 2 (games with uniform context size 2 only);
  "c-1"    the whole context encrypted in round 1, one of its questions
           re-asked in plaintext;
  "cm1-1"  the context minus one skipped question in round 1, then
           either a repeat or the skipped question.

Round-1 questions travel under quantum homomorphic encryption, so an
honest prover measures its strategy state blindly and returns the
answers still encrypted.  The post-measurement state is handed back
inside an oblivious Pauli pad; the verifier alone can combine the pad
key k' with the homomorphic re-pad key k'' into k = k' ^ k'', and the
prover answers round 2 by measuring the k-conjugated observable on the
state it kept.  Classical provers can only evaluate a fixed table under
the encryption, which is what the completeness/soundness gap tests.

What differs between the kinds lives in one CompilerSpec each (SPECS):
the game precondition, the round-1 inputs and how the verifier draws one
from the sampled context, the questions an input asks, the payload codec
and the theorem formulas.  The accept rule needs no kind: the round-2
answer is compared with a round-1 answer when its question was asked in
round 1, and the context's predicate is checked when the answers of both
rounds cover the context.

The state machines below (CompiledVerifier, the provers, run_session) are
the protocol reference.  estimate_win_rate runs its sessions through them
for the lwe backend, the circuit pad path and any prover class but the
three named next; stub- and leaky-backend sessions of a TruthTableProver,
a FeasibleInconsistentProver or an HonestQuantumProver on the collapsed
pad path run in chunks through the batched engine of ctxsim.batch, which
reads the same spec, branches, answer decoding and accept rule, and runs
the chunk forms of opad.pad_bits and qfhe.stub_encrypt.
"""
from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import opad, qfhe
from .games import (
    Assignment,
    ContextualityGame,
    QuantumStrategy,
    embed_in_qubits,
    nc_value,
    nc_value_with_table,
)
from .qsim import PauliKey, apply_pauli_pad, measure_observable


class CompilerKind(enum.Enum):
    """The three compilations, named by round-1/round-2 question counts."""

    ONE_ONE = "1-1"
    ALL_ONE = "c-1"
    ALL_BUT_ONE = "cm1-1"


def _index_width(n: int) -> int:
    """Bits needed to encode an index in range(n); at least one."""
    return max(1, (n - 1).bit_length())


def _bits_of(value: int, width: int) -> tuple:
    return tuple((value >> (width - 1 - j)) & 1 for j in range(width))


def _int_of(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def _answer_width(game: ContextualityGame) -> int:
    return _index_width(len(game.answers))


def _encode_answer(game: ContextualityGame, answer) -> tuple:
    return _bits_of(game.answers.index(answer), _answer_width(game))


def _decode_answers(game: ContextualityGame, bits, count: int) -> tuple:
    width = _answer_width(game)
    if len(bits) != count * width:
        raise ValueError("answer ciphertext has the wrong width")
    out = []
    for i in range(count):
        idx = _int_of(bits[i * width:(i + 1) * width])
        if idx >= len(game.answers):
            raise ValueError("answer code outside the label set")
        out.append(game.answers[idx])
    return tuple(out)


@dataclass(frozen=True)
class Message1:
    """Round 1: the encrypted question set plus the public session material."""

    question_cipher: qfhe.ClassicalCiphertext
    fhe_handle: qfhe.QfhePublicHandle
    opad_pk: object
    oracle: opad.PhaseOracle
    game: ContextualityGame
    kind: CompilerKind


@dataclass(frozen=True)
class Message2:
    """Round 2: encrypted answers, encrypted re-pad key, oblivious pad string."""

    answer_cipher: qfhe.ClassicalCiphertext
    pad_cipher: qfhe.ClassicalCiphertext
    pad_string: opad.OpadString


def _needs_size_two(game: ContextualityGame) -> None:
    if game.uniform_context_size() != 2:
        raise ValueError("the 1-1 compiler needs uniform context size 2")


def _needs_uniform_size(game: ContextualityGame) -> None:
    if game.uniform_context_size() is None:
        raise ValueError("the cm1-1 compiler needs a uniform context size")


def _question_bits(game: ContextualityGame, q) -> tuple:
    return _bits_of(game.questions.index(q), _index_width(len(game.questions)))


def _context_bits(game: ContextualityGame, ctx_index) -> tuple:
    return _bits_of(int(ctx_index), _index_width(len(game.contexts)))


def _skip_width(game: ContextualityGame) -> int:
    return _index_width(game.uniform_context_size())


def _skip_questions(game: ContextualityGame, value) -> tuple:
    ctx_index, skip_pos = value
    return tuple(q for i, q in enumerate(game.contexts[ctx_index]) if i != skip_pos)


def _skip_encode(game: ContextualityGame, value) -> tuple:
    ctx_index, skip_pos = value
    return _context_bits(game, ctx_index) + _bits_of(int(skip_pos), _skip_width(game))


def _skip_decode(game: ContextualityGame, bits) -> tuple:
    swidth = _skip_width(game)
    return _int_of(bits[:-swidth]), _int_of(bits[-swidth:])


def _skip_completeness(game: ContextualityGame, quantum_value: float) -> float:
    size = game.uniform_context_size()
    return 1 - 1 / size + quantum_value / size


def _skip_soundness(game: ContextualityGame) -> Fraction:
    size = game.uniform_context_size()
    return 1 - Fraction(1, size) + nc_value(game) / size


@dataclass(frozen=True)
class CompilerSpec:
    """Everything that differs between the compiler kinds.

    A round-1 input is a question for "1-1", a context index for "c-1"
    and a (context index, skip position) pair for "cm1-1".
    """

    kind: CompilerKind
    check: Callable           # (game) -> None; raises ValueError on games the kind cannot compile
    inputs: Callable          # (game) -> every round-1 input, in a fixed order
    context_inputs: Callable  # (game, ctx_index) -> the inputs the verifier draws from, uniformly
    skip_pos: Callable        # (input) -> the skipped position a transcript records, or None
    questions: Callable       # (game, input) -> the questions round 1 asks
    encode: Callable          # (game, input) -> payload bits, msb first
    decode: Callable          # (game, payload bits) -> input
    completeness: Callable    # (game, quantum value) -> honest win rate
    completeness_text: str
    soundness: Callable       # (game) -> best classical win rate
    soundness_text: str


SPECS = {spec.kind: spec for spec in (
    CompilerSpec(
        kind=CompilerKind.ONE_ONE,
        check=_needs_size_two,
        inputs=lambda game: tuple(game.questions),
        context_inputs=lambda game, ci: game.contexts[ci],
        skip_pos=lambda q: None,
        questions=lambda game, q: (q,),
        encode=_question_bits,
        decode=lambda game, bits: game.questions[_int_of(bits)],
        completeness=lambda game, qv: (1 + qv) / 2,
        completeness_text="(1 + quantum_value) / 2",
        soundness=lambda game: (1 + nc_value(game)) / 2,
        soundness_text="(1 + nc_value) / 2",
    ),
    CompilerSpec(
        kind=CompilerKind.ALL_ONE,
        check=lambda game: None,
        inputs=lambda game: tuple(range(len(game.contexts))),
        context_inputs=lambda game, ci: (ci,),
        skip_pos=lambda ci: None,
        questions=lambda game, ci: game.contexts[ci],
        encode=_context_bits,
        decode=lambda game, bits: _int_of(bits),
        completeness=lambda game, qv: float(qv),
        completeness_text="quantum_value",
        soundness=lambda game: 1 - min(w / len(c) for w, c in
                                       zip(game.context_weights, game.contexts)),
        soundness_text="1 - min_contexts weight/size",
    ),
    CompilerSpec(
        kind=CompilerKind.ALL_BUT_ONE,
        check=_needs_uniform_size,
        inputs=lambda game: tuple((ci, sp) for ci, ctx in enumerate(game.contexts)
                                  for sp in range(len(ctx))),
        context_inputs=lambda game, ci: tuple(
            (ci, sp) for sp in range(len(game.contexts[ci]))),
        skip_pos=lambda value: value[1],
        questions=_skip_questions,
        encode=_skip_encode,
        decode=_skip_decode,
        completeness=_skip_completeness,
        completeness_text="1 - 1/size + quantum_value/size",
        soundness=_skip_soundness,
        soundness_text="1 - 1/size + nc_value/size",
    ),
)}


def spec_of(kind) -> CompilerSpec:
    """The spec of a CompilerKind or of its token ("1-1", "c-1", "cm1-1")."""
    return SPECS[CompilerKind(kind)]


def round1_inputs(game: ContextualityGame, kind) -> tuple:
    """Every round-1 input the verifier can ask under this kind."""
    spec = spec_of(kind)
    spec.check(game)
    return spec.inputs(game)


def round1_message(game: ContextualityGame, kind, value, key, opad_pk,
                   oracle: opad.PhaseOracle, rng: np.random.Generator) -> Message1:
    """Message 1 for a chosen round-1 input; key may be a secret key or a
    public encryption handle."""
    kind = CompilerKind(kind)
    payload = SPECS[kind].encode(game, value)
    handle = key.handle() if isinstance(key, qfhe.QfheSecretKey) else key
    cipher = qfhe.enc_classical(key, payload, rng)
    return Message1(cipher, handle, opad_pk, oracle, game, kind)


def _decision(game: ContextualityGame, ctx_index: int, round1_questions,
              answers1, question, answer):
    """The accept rule of every kind.

    The round-2 answer must repeat the round-1 answer when its question was
    asked in round 1, and the context's predicate must hold when the two
    rounds together answer the whole context (round 1 wins on a repeat).
    Returns (accept, consistency_ok, predicate_ok); a None entry means that
    comparison did not run.
    """
    given = dict(zip(round1_questions, answers1))
    consistent = given[question] == answer if question in given else None
    full = {question: answer, **given}
    context = game.contexts[ctx_index]
    pred_ok = None
    if all(q in full for q in context):
        pred_ok = bool(game.predicate(ctx_index, tuple(full[q] for q in context)))
    return consistent is not False and pred_ok is not False, consistent, pred_ok


def _open_reply(game: ContextualityGame, message2: Message2, count: int,
                fhe_sk, opad_sk, oracle: opad.PhaseOracle):
    """(round-1 answers, k) of a reply carrying count answers: k = k' ^ k''
    for U_k = U_{k''} U_{k'} up to global phase, k' read off the pad string
    through the trapdoor and k'' decrypted from the pad cipher."""
    bits = qfhe.dec_classical(fhe_sk, message2.answer_cipher)
    answers1 = _decode_answers(game, bits, count)
    k_prime = opad.dec(opad_sk, message2.pad_string, oracle)
    if not isinstance(k_prime, PauliKey):
        raise ValueError("pad string must carry a pauli key")
    pad_bits = qfhe.dec_classical(fhe_sk, message2.pad_cipher)
    if len(pad_bits) != 2 * len(k_prime):
        raise ValueError("pad key widths disagree")
    return answers1, k_prime ^ PauliKey.from_bits(pad_bits)


class CompiledVerifier:
    """State machine for one four-message session.

    Messages must arrive in order: construction emits message 1, message3()
    consumes the prover's round-1 reply and emits (q, k), decide() consumes
    the round-2 answer.  Out-of-order calls raise RuntimeError.
    """

    def __init__(self, game: ContextualityGame, kind, lam: int,
                 rng: np.random.Generator, fhe_backend: str = "stub"):
        kind = CompilerKind(kind)
        spec = SPECS[kind]
        spec.check(game)
        self.game = game
        self.kind = kind
        self.lam = lam
        self._rng = rng
        self.fhe_sk = qfhe.gen(lam, backend=fhe_backend, rng=rng)
        self.opad_keys = opad.gen(lam, rng)
        self.oracle = opad.PhaseOracle("hash", seed=opad.hash_seeds(rng))
        self.ctx_index = game.sample_context(rng)
        choices = spec.context_inputs(game, self.ctx_index)
        # a lone choice is taken without a draw
        value = choices[int(rng.integers(len(choices)))] if len(choices) > 1 else choices[0]
        self.skip_pos = spec.skip_pos(value)
        self.round1_questions = spec.questions(game, value)
        self._message1 = round1_message(game, kind, value, self.fhe_sk, self.opad_keys.pk,
                                        self.oracle, rng)
        self._message2 = None
        self.answers1 = None
        self.question = None
        self.key = None
        self.answer2 = None
        self.accepted = None
        self.consistency_ok = None
        self.predicate_ok = None
        # Negative control for the faithfulness check: reject whenever the
        # consistency comparison succeeds.
        self._reject_consistent = False
        self._phase = "message2"

    @property
    def message1(self) -> Message1:
        return self._message1

    def message3(self, message2: Message2, rng: np.random.Generator = None):
        """Decrypt the round-1 reply; returns the plaintext (q, k)."""
        if self._phase != "message2":
            raise RuntimeError("message 2 was already processed")
        if not isinstance(message2, Message2):
            raise ValueError("round-1 reply must be a Message2")
        rng = self._rng if rng is None else rng
        self.answers1, self.key = _open_reply(self.game, message2, len(self.round1_questions),
                                              self.fhe_sk, self.opad_keys.sk, self.oracle)
        context = self.game.contexts[self.ctx_index]
        self.question = context[int(rng.integers(len(context)))]
        self._message2 = message2
        self._phase = "decide"
        return self.question, self.key

    def decide(self, answer) -> bool:
        if self._phase != "decide":
            raise RuntimeError("decide needs the round-1 reply first")
        if answer not in self.game.answers:
            raise ValueError("answer outside the label set")
        accept, consistent, pred_ok = _decision(
            self.game, self.ctx_index, self.round1_questions, self.answers1,
            self.question, answer)
        if self._reject_consistent and consistent:
            accept = False
        self.answer2 = answer
        self.accepted = accept
        self.consistency_ok = consistent
        self.predicate_ok = pred_ok
        self._phase = "done"
        return accept

    def transcript(self, seed: int = None) -> "CompiledTranscript":
        if self._phase != "done":
            raise RuntimeError("transcript is available after the decision")
        return CompiledTranscript(
            kind=self.kind.value, ctx_index=self.ctx_index, skip_pos=self.skip_pos,
            message1=self._message1, message2=self._message2,
            question=self.question, key=self.key, answer=self.answer2,
            accept=self.accepted, seed=seed)


@dataclass(frozen=True)
class CompiledTranscript:
    """One session: eight role-tagged message slots plus the decision."""

    kind: str
    ctx_index: int
    skip_pos: int | None
    message1: Message1
    message2: Message2
    question: object
    key: PauliKey
    answer: object
    accept: bool
    seed: int | None = None

    def slots(self) -> dict:
        return {
            "t1_question_cipher": self.message1.question_cipher,
            "t2_opad_pk": self.message1.opad_pk,
            "t3_answer_cipher": self.message2.answer_cipher,
            "t4_pad_cipher": self.message2.pad_cipher,
            "t5_pad_string": self.message2.pad_string,
            "t6_question": self.question,
            "t7_key": self.key,
            "t8_answer": self.answer,
        }

    def to_json(self) -> str:
        pk = self.message1.opad_pk
        tables_text = json.dumps([t.tolist() for t in pk.tables])
        digest = hashlib.sha256(tables_text.encode()).hexdigest()[:16]
        return json.dumps({
            "kind": self.kind,
            "ctx_index": self.ctx_index,
            "skip_pos": self.skip_pos,
            "t1_question_cipher": json.loads(self.message1.question_cipher.to_json()),
            "t2_opad_pk": {"domain_bits": pk.n, "table_digest": digest},
            "t3_answer_cipher": json.loads(self.message2.answer_cipher.to_json()),
            "t4_pad_cipher": json.loads(self.message2.pad_cipher.to_json()),
            "t5_pad_string": json.loads(self.message2.pad_string.to_json()),
            "t6_question": self.question,
            "t7_key": {"x": list(self.key.x), "z": list(self.key.z)},
            "t8_answer": self.answer,
            "accept": self.accept,
            "seed": self.seed,
        })


def recompute_decision(game: ContextualityGame, transcript: CompiledTranscript,
                       fhe_sk, opad_keys, oracle) -> bool:
    """Re-derive the accept bit from a transcript and the secret keys."""
    spec = spec_of(transcript.kind)
    payload = qfhe.dec_classical(fhe_sk, transcript.message1.question_cipher)
    value = spec.decode(game, payload)
    if value not in spec.context_inputs(game, transcript.ctx_index):
        raise ValueError("transcript context disagrees with the t1 payload")
    if spec.skip_pos(value) != transcript.skip_pos:
        raise ValueError("transcript skip position disagrees with the t1 payload")
    if transcript.question not in game.contexts[transcript.ctx_index]:
        raise ValueError("transcript question lies outside its context")
    round1 = spec.questions(game, value)
    answers1, key = _open_reply(game, transcript.message2, len(round1), fhe_sk,
                                opad_keys.sk, oracle)
    if key != transcript.key:
        raise ValueError("transcript key disagrees with the pad ciphertexts")
    accept, _, _ = _decision(game, transcript.ctx_index, round1, answers1,
                             transcript.question, transcript.answer)
    return accept


def verifier_new(game: ContextualityGame, kind, lam: int, rng: np.random.Generator,
                 fhe_backend: str = "stub"):
    state = CompiledVerifier(game, kind, lam, rng, fhe_backend)
    return state, state.message1


class HonestQuantumProver:
    """Measures the encrypted round-1 questions on its own strategy state.

    Round 1 encrypts the strategy state under the verifier's key, runs the
    selected observables homomorphically, wraps the re-padded
    post-measurement state in an oblivious pad, and forwards the answer and
    re-pad ciphertexts.  The padded state is held un-decrypted; round 2
    measures the k-conjugated observable on it, as the cached observable
    between undoing and re-applying U_k, so held_state stays padded.
    """

    replayable = False

    def __init__(self, strategy: QuantumStrategy, opad_path: str = "collapsed"):
        self.strategy = strategy
        self.opad_path = opad_path
        self.held_state = None
        self._game = None
        self._embedded = None
        self._branches = {}

    def _embed_for(self, game: ContextualityGame) -> QuantumStrategy:
        if self._game is not game:
            self._game = game
            self._embedded = embed_in_qubits(self.strategy, game.answers[0])
            self._branches = {}
        return self._embedded

    def _branches_for(self, game: ContextualityGame, kind: CompilerKind) -> dict:
        if kind in self._branches:
            return self._branches[kind]
        emb = self._embed_for(game)
        targets = tuple(range(emb.psi.num_registers))
        outcomes = [(float(a), _encode_answer(game, a)) for a in game.answers]

        def step(q):
            return (emb.observables[q], targets, outcomes)

        spec = spec_of(kind)
        branches = {_int_of(spec.encode(game, value)):
                    [step(q) for q in spec.questions(game, value)]
                    for value in spec.inputs(game)}
        self._branches[kind] = branches
        return branches

    def round1(self, message1: Message1, rng: np.random.Generator) -> Message2:
        game = message1.game
        emb = self._embed_for(game)
        targets = list(range(emb.psi.num_registers))
        cipher = qfhe.enc_quantum(message1.fhe_handle, emb.psi, rng)
        branches = self._branches_for(game, message1.kind)
        answer_cipher, out = qfhe.eval(
            [("select_measure", message1.question_cipher, branches)], cipher, rng)
        padded, s = opad.enc(message1.opad_pk, out.padded_state, targets,
                             message1.oracle, rng, path=self.opad_path)
        self.held_state = padded
        return Message2(answer_cipher, out.pad_hat, s)

    def round2(self, question, key: PauliKey, rng: np.random.Generator):
        if self.held_state is None:
            raise RuntimeError("round 2 needs a prior round 1")
        emb = self._embedded
        targets = range(self.held_state.num_registers)
        # Measuring U_k M U_k^dagger on the held state is measuring M on the
        # state with U_k undone; X^x Z^z is its own inverse up to a phase.
        unpadded = apply_pauli_pad(self.held_state, key, targets)
        value, post = measure_observable(unpadded, emb.observables[question], targets, rng)
        self.held_state = apply_pauli_pad(post, key, targets)
        return emb.answer_for(self._game, value)


def _selection_circuit(n_inputs: int, rows: dict, out_width: int) -> qfhe.ClassicalCircuit:
    """Multiplexer: output bits are xors of mutually exclusive row indicators.

    Only rows with a one in some output column get an indicator.  The
    indicators share prefixes in a decoder tree, one and per prefix of two
    or more input bits, and an all-zero column is a single const gate.
    """
    gates = []

    def emit(gate):
        gates.append(gate)
        return n_inputs + len(gates) - 1

    negated = {}

    def literal(j, want_one):
        if want_one:
            return j
        if j not in negated:
            negated[j] = emit(("not", j))
        return negated[j]

    prefixes = {}

    def indicator(bits):
        if bits not in prefixes:
            if len(bits) == 1:
                prefixes[bits] = literal(0, bits[0])
            else:
                prefixes[bits] = emit(("and", indicator(bits[:-1]),
                                       literal(len(bits) - 1, bits[-1])))
        return prefixes[bits]

    live_rows = [idx for idx in sorted(rows) if any(rows[idx])]
    indicators = {idx: indicator(_bits_of(idx, n_inputs)) for idx in live_rows}
    outputs = []
    for pos in range(out_width):
        live = [indicators[idx] for idx in live_rows if rows[idx][pos]]
        if not live:
            outputs.append(emit(("const", 0)))
        else:
            acc = live[0]
            for w in live[1:]:
                acc = emit(("xor", acc, w))
            outputs.append(acc)
    return qfhe.ClassicalCircuit(n_inputs, tuple(gates), tuple(outputs))


def _table_rows(game: ContextualityGame, spec: CompilerSpec, submit):
    """Row table for the round-1 multiplexer; submit(game, value, questions)
    gives the answers submitted for the round-1 questions of input value."""
    asked = {value: spec.questions(game, value) for value in spec.inputs(game)}
    counts = {len(questions) for questions in asked.values()}
    if len(counts) != 1:
        raise ValueError("blind table evaluation needs a uniform context size; "
                         "pad the game's contexts first")
    rows = {}
    for value, questions in asked.items():
        payload = spec.encode(game, value)
        bits = ()
        for a in submit(game, value, questions):
            bits += _encode_answer(game, a)
        rows[_int_of(payload)] = bits
    return len(payload), rows, counts.pop() * _answer_width(game)


class TruthTableProver:
    """Classical prover that answers both rounds from one fixed assignment.

    Round 1 evaluates a multiplexer over the encrypted question payload
    under ceval, encrypts a freshly random pad key, and draws the pad
    string from the range sampler; round 2 answers from the table,
    ignoring k entirely.
    """

    replayable = True

    def __init__(self, table: Assignment):
        self.table = table
        self._circuits = {}
        self._game = None

    def _submit(self, game: ContextualityGame, value, questions) -> tuple:
        return tuple(self.table(q) for q in questions)

    def _circuit_for(self, game: ContextualityGame, kind: CompilerKind):
        if self._game is not game:
            self._game = game
            self._circuits = {}
        if kind not in self._circuits:
            n_inputs, rows, out_width = _table_rows(game, spec_of(kind), self._submit)
            self._circuits[kind] = _selection_circuit(n_inputs, rows, out_width)
        return self._circuits[kind]

    def round1(self, message1: Message1, rng: np.random.Generator) -> Message2:
        circuit = self._circuit_for(message1.game, message1.kind)
        answer_cipher = qfhe.ceval(circuit, message1.question_cipher, rng)
        fresh = PauliKey.uniform(1, rng)
        pad_cipher = qfhe.enc_classical(message1.fhe_handle, fresh.bits(), rng)
        pad_string = opad.samp(message1.opad_pk, 1, rng)
        return Message2(answer_cipher, pad_cipher, pad_string)

    def round2(self, question, key: PauliKey, rng: np.random.Generator = None):
        return self.table(question)


class FeasibleInconsistentProver(TruthTableProver):
    """Submits a predicate-satisfying tuple per context, answers round 2
    from a fixed optimal table; only the re-asked coordinate can catch the
    mismatch.  Its submissions are per context, so it runs only under
    the c-1 compiler, whose round-1 input is the context index."""

    target = CompilerKind.ALL_ONE

    def __init__(self, game: ContextualityGame):
        _, table = nc_value_with_table(game)
        super().__init__(table)
        self._base_game = game
        self._submissions = {}
        mismatch = Fraction(0)
        for i, ctx in enumerate(game.contexts):
            told = table.on_context(ctx)
            if game.predicate(i, told):
                sub = told
            else:
                accepted = sorted(game.accepts[i])
                if not accepted:
                    raise ValueError("context has no satisfying answer tuple")
                sub = min(accepted,
                          key=lambda t: (sum(x != y for x, y in zip(t, told)), t))
            self._submissions[i] = sub
            hamming = sum(x != y for x, y in zip(sub, told))
            mismatch += game.context_weights[i] * Fraction(hamming, len(ctx))
        self.predicted_mismatch = mismatch
        self.analytic_rate = 1 - mismatch

    def _submit(self, game: ContextualityGame, value, questions) -> tuple:
        if game is not self._base_game:
            raise ValueError("prover was built for a different game")
        return self._submissions[value]

    def _circuit_for(self, game: ContextualityGame, kind: CompilerKind):
        if kind is not self.target:
            raise ValueError("the feasible-inconsistent prover targets the "
                             f"{self.target.value} compiler")
        return super()._circuit_for(game, kind)


def honest_quantum_prover(qstrat: QuantumStrategy, opad_path: str = "collapsed"):
    return HonestQuantumProver(qstrat, opad_path)


def truthtable_prover(table: Assignment):
    return TruthTableProver(table)


def feasible_inconsistent_prover(game: ContextualityGame):
    return FeasibleInconsistentProver(game)


def run_session(game: ContextualityGame, kind, prover, rng: np.random.Generator,
                lam: int = 8, fhe_backend: str = "stub"):
    """One full four-message session; returns (accept, verifier state)."""
    state, message1 = verifier_new(game, kind, lam, rng, fhe_backend)
    message2 = prover.round1(message1, rng)
    question, key = state.message3(message2)
    answer = prover.round2(question, key, rng)
    return state.decide(answer), state


def estimate_win_rate(game: ContextualityGame, kind, prover, trials: int,
                      rng: np.random.Generator, lam: int = 8,
                      fhe_backend: str = "stub", transcript_log: list = None):
    """Monte Carlo win rate over fresh-key sessions; returns (rate, stderr).

    Stub and leaky sessions of a table prover, or of an honest prover on the
    collapsed pad path, run in chunks through the batched engine (ctxsim.batch);
    the rest run one run_session each.  Either way transcript_log, when
    given, receives one CompiledTranscript per session and changes no draw.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    # imported on first use: a process that only runs single sessions never
    # loads the engine
    from . import batch
    if batch.runs(prover, fhe_backend):
        wins = batch.win_count(game, kind, prover, trials, rng, lam, fhe_backend,
                               transcript_log)
    else:
        wins = 0
        for _ in range(trials):
            accept, state = run_session(game, kind, prover, rng, lam, fhe_backend)
            wins += int(accept)
            if transcript_log is not None:
                transcript_log.append(state.transcript())
    rate = wins / trials
    return rate, math.sqrt(rate * (1 - rate) / trials)


def decision_faithfulness_check(game: ContextualityGame, kind, table: Assignment,
                                trials: int, rng: np.random.Generator,
                                lam: int = 8, fhe_backend: str = "stub",
                                sabotage: bool = False) -> bool:
    """Against a table prover the verifier must accept exactly when either
    the decoded questions fail to cover a full context or the table
    satisfies the sampled context's predicate.  Checked on every trial;
    sabotage flips the consistency branch as a negative control."""
    prover = truthtable_prover(table)
    for _ in range(trials):
        state, message1 = verifier_new(game, kind, lam, rng, fhe_backend)
        state._reject_consistent = sabotage
        message2 = prover.round1(message1, rng)
        question, key = state.message3(message2)
        accept = state.decide(prover.round2(question, key, rng))
        context = game.contexts[state.ctx_index]
        covered = set(context) <= set(state.round1_questions) | {question}
        expected = not covered or bool(
            game.predicate(state.ctx_index, table.on_context(context)))
        if accept != expected:
            return False
    return True


def completeness_formula(game: ContextualityGame, kind, quantum_value: float) -> float:
    """Honest win rate predicted for a strategy of the given game value."""
    return spec_of(kind).completeness(game, quantum_value)


def soundness_formula(game: ContextualityGame, kind) -> Fraction:
    """Best classical win rate; exact from the game's weights and nc value."""
    return spec_of(kind).soundness(game)


def theorem_bounds(game: ContextualityGame, kind, quantum_value: float = None) -> dict:
    """Bound values plus their defining formulas, for report embedding."""
    spec = spec_of(kind)
    out = {
        "kind": spec.kind.value,
        "soundness_formula": spec.soundness_text,
        "soundness_bound": float(spec.soundness(game)),
        "completeness_formula": spec.completeness_text,
    }
    if quantum_value is not None:
        out["completeness_bound"] = spec.completeness(game, quantum_value)
    return out
