"""Batched four-message sessions: the engine behind estimate_win_rate.

compilers.estimate_win_rate runs its trials here when the prover is a
TruthTableProver (the feasible prover included) or an HonestQuantumProver
on the collapsed pad path, under either qfhe scheme.  Every other prover
runs the scalar state machines of compilers, which stay the protocol
reference.

Sessions run in chunks of tcf.CHUNK_SIZE = 4096 at every lambda, so a
row of up to 4096 trials runs as one chunk: a chunk's claw-free keys are
sampled lazily and its oracles keep only the digests they touch, so
nothing in a chunk grows with 2^lambda.  Each protocol step makes one rng
call per chunk.  No layer is skipped.  This module keeps
the session bookkeeping: each chunk's contexts, inputs, questions and
transcripts.  The rules are the scalar engine's, in chunk form: the
kind's rules on the game from the game's compilers.KindPlan, which the
scalar verifier and provers read too (the verifier's input draw, the
payloads, and the questions each input asks, which the honest prover
measures in order), HonestQuantumProver's answer rule (answer_for),
compilers._decode_answers and compilers._decision, the context draw
ContextualityGame.contexts_at, the per-session qfhe key ids, claw-free
keys and oracle seeds of qfhe.key_ids, tcf.gen_many and opad.hash_seeds,
stub encryptions by qfhe.stub_encrypt, the multiplexer through
qfhe.stub_wires, and the pad bits of the verifier's Dec and of the honest
prover's collapsed rounds from opad.pad_bits on the key chunk and an
opad.PhaseOracleChunk.  Three rules whose one-row form would slow the
scalar path stay twins of their originals: the Born draw of
measure_observable (_born_pick), which never draws a branch below
qsim.BORN_FLOOR, the Pauli pad (_pauli), and the output assembly of
qfhe.ceval (_Table.round1).  Transcripts turn a chunk's ciphertexts into
qfhe.ClassicalCiphertext values through StubCipher.rows, the rule that
qfhe.enc_classical uses for one payload.

Rules with a handful of outcomes run once per distinct row of a chunk, not
once per session (_per_row): the verifier decodes each distinct (input,
answer-bits) row and decides each distinct (context, reply, question,
answer) row, the honest prover answers each drawn eigenvalue of either
round once per distinct (observable, cluster), and the table provers look
each round-2 answer up once per distinct question.

A chunk draws step by step, not session by session, so a seed gives other
sessions than the scalar engine would, from the same distribution.
"""
from __future__ import annotations

import numpy as np

from . import compilers, opad, qfhe, tcf
from .compilers import KindPlan
from .qfhe import StubCipher
from .qsim import BORN_FLOOR, PauliKey, check_norms


def runs(prover) -> bool:
    """Whether estimate_win_rate batches the sessions of this prover; every
    qfhe scheme (stub, leaky) runs batched."""
    if type(prover) is compilers.HonestQuantumProver:
        return prover.opad_path == "collapsed"
    return type(prover) in (compilers.TruthTableProver, compilers.FeasibleInconsistentProver)


def _msb_weights(width: int) -> np.ndarray:
    return 1 << np.arange(width - 1, -1, -1)


def _born_pick(probs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """qsim.measure_observable's draw, one row of branch weights per uniform r.

    Weights below BORN_FLOOR count as zero and are never drawn.  The pick
    is the first drawable branch whose running sum exceeds r, else the last
    drawable branch; -1 where no branch is drawable.  measure_observable
    keeps its loop: one row takes about 27 us here, the loop about 1.3 us.
    """
    probs = np.where(probs < BORN_FLOOR, 0.0, probs)
    drawable = probs > 0
    hit = drawable & (r[:, None] < np.cumsum(probs, axis=1))
    last = probs.shape[1] - 1 - np.argmax(drawable[:, ::-1], axis=1)
    pick = np.where(hit.any(axis=1), np.argmax(hit, axis=1), last)
    return np.where(drawable.any(axis=1), pick, -1)


def _per_row(rule, *columns) -> tuple:
    """rule(*row) once per distinct row of the int columns, as (values,
    where): values[where[i]] is rule's value on row i.  A column is an (n,)
    or (n, k) array; a (n, k) one gives k entries of the row."""
    rows = np.column_stack(columns)
    distinct, where = np.unique(rows, axis=0, return_inverse=True)
    return [rule(*row) for row in distinct.tolist()], where.reshape(-1)


def _pauli(states: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """X^x Z^z on each session's qubits, qubit 0 the most significant.

    x and z are (sessions, qubits) bit arrays.  As in qsim.apply_pauli_pad,
    Z acts first: amplitude i moves to i ^ xmask with the sign of the
    parity of (i ^ xmask) & zmask.  apply_pauli_pad stays separate: on a
    two-qubit state one row takes about 28 us here, it about 10 us.
    """
    weights = _msb_weights(x.shape[1])
    xmask, zmask = x @ weights, z @ weights
    src = np.arange(states.shape[1]) ^ xmask[:, None]
    out = np.take_along_axis(states, src, axis=1) * (1 - 2 * tcf.dot_bits(src, zmask[:, None]))
    check_norms(out)
    return out


class _Sessions:
    """The verifier's side of a chunk of sessions."""

    def __init__(self, plan: KindPlan, lam: int, n: int, rng: np.random.Generator):
        self.n, self.lam = n, lam
        self.key_ids = qfhe.key_ids(rng, n)
        # claw-free keys f_0 = P and f_1(x) = P(x ^ delta), P sampled lazily
        self.keys = tcf.gen_many(lam, n, rng)
        self.oracles = opad.PhaseOracleChunk(opad.hash_seeds(rng, n), lam)
        self.ctx = plan.game.contexts_at(rng.random(n))
        # one uniform draw only for sessions whose context offers several inputs
        pick = np.zeros(n, dtype=np.int64)
        many = plan.counts[self.ctx] > 1
        if many.any():
            pick[many] = rng.integers(0, plan.counts[self.ctx][many])
        self.inp = plan.choices[self.ctx, pick]
        self.question_cipher = qfhe.stub_encrypt(plan.payloads[self.inp], rng)

    def message3(self, plan: KindPlan, answer_cipher: StubCipher, pad_cipher: StubCipher,
                 d: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        """Decrypt the round-1 replies and draw the round-2 questions.

        Each distinct (input, answer-bits) row is decoded once: replies[r]
        holds (input, round-1 answers) and reply[i] session i's row r."""
        game, width = plan.game, plan.answer_width

        def decode(inp, *bits):
            count = int(plan.asked_count[inp])
            return inp, compilers._decode_answers(game, bits[:count * width], count)

        self.replies, self.reply = _per_row(decode, self.inp, answer_cipher.bits())
        k_prime = opad.pad_bits(self.keys, d, y, self.oracles)
        k_dbl = pad_cipher.bits()
        if k_dbl.shape[1] != k_prime.shape[1]:
            raise ValueError("pad key widths disagree")
        m = k_prime.shape[1] // 2
        # slots alternate (X round, Z round) per qubit; k = k' ^ k''
        self.key_x = k_prime[:, 0::2] ^ k_dbl[:, :m]
        self.key_z = k_prime[:, 1::2] ^ k_dbl[:, m:]
        self.question = plan.ctx_questions[self.ctx, rng.integers(0, plan.ctx_sizes[self.ctx])]

    def decide(self, plan: KindPlan, answers: np.ndarray) -> list:
        """Each session's accept bit, decided once per distinct (context,
        reply, question, answer) row."""
        game = plan.game

        def decision(ctx, r, q, a):
            inp, given = self.replies[r]
            return compilers._decision(game, ctx, plan.asked[inp], given, game.questions[q],
                                       game.answers[a])[0]

        accepts, where = _per_row(decision, self.ctx, self.reply, self.question, answers)
        return np.array(accepts)[where].tolist()


class _Honest:
    """HonestQuantumProver on the collapsed pad path, over a chunk."""

    def __init__(self, prover, plan: KindPlan):
        game = plan.game
        emb = prover._embed_for(game)
        self.prover, self.game, self.emb = prover, game, emb
        self.m = emb.psi.num_registers
        self.psi = emb.psi.amps
        # observables are indexed like game.questions, as the plan's asked questions are
        observables = [emb.observables[q] for q in game.questions]
        self.observables = observables
        clusters = max(len(obs.eigensystem) for obs in observables)
        dim = len(self.psi)
        # missing clusters are zero projectors, so they are never drawn
        self.proj = np.zeros((len(observables), clusters, dim, dim), dtype=complex)
        for i, obs in enumerate(observables):
            for v, (_, proj) in enumerate(obs.eigensystem):
                self.proj[i, v] = proj
        self.held = None

    def _measure(self, states: np.ndarray, obs: np.ndarray, r: np.ndarray):
        """Born measurement of one observable per session; (cluster, post-states)."""
        raw = np.einsum("nvij,nj->nvi", self.proj[obs], states)
        probs = np.einsum("nvi,nvi->nv", raw.conj(), raw).real
        pick = _born_pick(probs, r)
        if (pick < 0).any():
            raise AssertionError("no measurement branch has positive probability")
        rows = np.arange(len(states))
        post = raw[rows, pick] / np.sqrt(probs[rows, pick])[:, None]
        check_norms(post)
        return pick, post

    def _answers(self, rule, obs, pick) -> tuple:
        """rule(eigenvalue) of each drawn eigenvalue, once per distinct
        (observable, cluster) row, as _per_row's (values, where)."""
        return _per_row(lambda o, v: rule(self.observables[o].eigensystem[v][0]), obs, pick)

    def round1(self, plan: KindPlan, s: _Sessions, rng: np.random.Generator):
        n, m, size = s.n, self.m, 1 << s.lam
        # enc_quantum: pad the strategy state with a uniform key, encrypt the key
        k_in = rng.integers(0, 2, size=(n, 2 * m))
        pad_hat = qfhe.stub_encrypt(k_in, rng)
        states = _pauli(np.broadcast_to(self.psi, (n, len(self.psi))), k_in[:, :m], k_in[:, m:])
        # eval: the trusted executor reads the pad key and the selector
        seen = pad_hat.bits()
        states = _pauli(states, seen[:, :m], seen[:, m:])
        code = s.question_cipher.bits() @ _msb_weights(plan.payloads.shape[1])
        program = plan.select[code]
        if (program < 0).any():
            raise ValueError(f"encrypted selector {code[program < 0][0]} has no program")
        steps = plan.asked_questions.shape[1]
        width = plan.answer_width
        r = rng.random((n, steps))
        answer_bits = np.zeros((n, steps * width), dtype=np.int64)
        for step in range(steps):
            rows = np.flatnonzero(plan.asked_count[program] > step)
            obs = plan.asked_questions[program[rows], step]
            pick, states[rows] = self._measure(states[rows], obs, r[rows, step])
            bits, where = self._answers(self.prover._answer_bits, obs, pick)
            bits = np.array(bits, dtype=np.int64).reshape(-1, width)
            answer_bits[rows, step * width:(step + 1) * width] = bits[where]
        k_out = rng.integers(0, 2, size=(n, 2 * m))
        states = _pauli(states, k_out[:, :m], k_out[:, m:])
        pad_cipher = qfhe.stub_encrypt(k_out, rng)
        answer_cipher = qfhe.stub_encrypt(answer_bits, rng)
        # collapsed opad rounds: slot 2t pads X on qubit t, slot 2t + 1 pads Z
        y = rng.integers(0, size, size=(n, 2 * m))
        d = rng.integers(1, size, size=(n, 2 * m))
        bits = opad.pad_bits(s.keys, d, y, s.oracles)
        self.held = _pauli(states, bits[:, 0::2], bits[:, 1::2])
        return answer_cipher, pad_cipher, d, y

    def round2(self, plan: KindPlan, s: _Sessions, rng: np.random.Generator) -> np.ndarray:
        """Measure each question's observable between undoing and re-applying U_k."""
        unpadded = _pauli(self.held, s.key_x, s.key_z)
        obs = s.question
        pick, post = self._measure(unpadded, obs, rng.random(s.n))
        self.held = _pauli(post, s.key_x, s.key_z)
        game = self.game
        answers, where = self._answers(
            lambda value: game.answers.index(self.emb.answer_for(game, value)), obs, pick)
        return np.array(answers, dtype=np.int64)[where]


class _Table:
    """TruthTableProver (or the feasible prover) over a chunk."""

    def __init__(self, prover, plan: KindPlan):
        self.prover = prover
        self.circuit = prover._circuit_for(plan.game, plan.kind)
        sources = self.circuit.nonce_sources
        self.fresh = [w for w in dict.fromkeys(self.circuit.outputs) if sources[w] is None]

    # stays a twin of qfhe.ceval's output assembly (masks, pads, and fresh or
    # carried nonces): a one-row StubCipher form would give the same outputs,
    # but slow the scalar ceval that every white-box prover runs
    def round1(self, plan: KindPlan, s: _Sessions, rng: np.random.Generator):
        n, size, circuit = s.n, 1 << s.lam, self.circuit
        q = s.question_cipher
        if q.masked.shape[1] != circuit.n_inputs:
            raise ValueError("ciphertext width does not match circuit inputs")
        r = rng.integers(0, 2, size=(circuit.random_gates, n))
        masks, pads = qfhe.stub_wires(circuit, q.masked.T, q.pad.T, r)
        nonces = dict(zip(self.fresh, rng.integers(0, 2 ** qfhe._NONCE_BITS,
                                                   size=(len(self.fresh), n))))
        sources, outputs = circuit.nonce_sources, list(circuit.outputs)
        # (n, outputs) arrays; a round can carry no bits
        nonce = [nonces[w] if sources[w] is None else q.nonce[:, sources[w]] for w in outputs]
        answer_cipher = StubCipher(np.array(masks)[outputs].T, np.array(pads)[outputs].T,
                                   np.array(nonce, dtype=np.int64).reshape(-1, n).T)
        # a fresh one-qubit pad key, encrypted, and the string from samp(pk, 1)
        pad_cipher = qfhe.stub_encrypt(rng.integers(0, 2, size=(n, 2)), rng)
        x = rng.integers(0, size, size=(n, 2))
        y = s.keys.image(x)
        d = rng.integers(1, size, size=(n, 2))
        return answer_cipher, pad_cipher, d, y

    def round2(self, plan: KindPlan, s: _Sessions, rng: np.random.Generator) -> np.ndarray:
        game = plan.game

        def answer(q):
            given = self.prover.round2(game.questions[q], None)
            if given not in game.answers:
                raise ValueError("answer outside the label set")
            return game.answers.index(given)

        answers, where = _per_row(answer, s.question)
        return np.array(answers, dtype=np.int64)[where]


def _transcripts(plan: KindPlan, s: _Sessions, fhe_backend: str, answer_cipher: StubCipher,
                 pad_cipher: StubCipher, d, y, answers, accepts):
    """The CompiledTranscript of each session of a chunk, in session order."""
    game, kind = plan.game, plan.kind
    questions = s.question_cipher.rows(s.key_ids, fhe_backend)
    replies = answer_cipher.rows(s.key_ids, fhe_backend,
                                 (plan.asked_count[s.inp] * plan.answer_width).tolist())
    pads = pad_cipher.rows(s.key_ids, fhe_backend)
    for i, (key_id, question, reply, pad) in enumerate(zip(s.key_ids, questions, replies, pads)):
        message1 = compilers.Message1(
            question, qfhe.QfhePublicHandle(fhe_backend, key_id), s.keys.row(i),
            opad.PhaseOracle("hash", seed=s.oracles.seeds[i]), game, kind)
        message2 = compilers.Message2(
            reply, pad, opad.OpadString(tuple(zip(d[i].tolist(), y[i].tolist())), "pauli"))
        yield compilers.CompiledTranscript(
            kind=kind.value, ctx_index=int(s.ctx[i]),
            skip_pos=plan.skip_pos[s.inp[i]],
            message1=message1, message2=message2,
            question=game.questions[s.question[i]],
            key=PauliKey(tuple(s.key_x[i].tolist()), tuple(s.key_z[i].tolist())),
            answer=game.answers[answers[i]], accept=accepts[i])


def _chunk_wins(plan: KindPlan, lam: int, run, n: int, rng: np.random.Generator,
                fhe_backend: str, on_transcript) -> int:
    """Accepted sessions among n, run as one chunk; its arrays die on return."""
    s = _Sessions(plan, lam, n, rng)
    answer_cipher, pad_cipher, d, y = run.round1(plan, s, rng)
    s.message3(plan, answer_cipher, pad_cipher, d, y, rng)
    answers = run.round2(plan, s, rng)
    accepts = s.decide(plan, answers)
    if on_transcript is not None:
        for t in _transcripts(plan, s, fhe_backend, answer_cipher, pad_cipher,
                              d, y, answers, accepts):
            on_transcript(t)
    return sum(accepts)


def win_count(game, kind, prover, trials: int, rng: np.random.Generator, lam: int,
              fhe_backend: str, on_transcript=None) -> int:
    """Accepted sessions among trials fresh-key sessions, run in chunks; on_transcript,
    when given, gets each session's CompiledTranscript as its chunk finishes."""
    tcf.check_domain_bits(lam)
    plan = compilers.plan_of(game, kind)
    run = (_Honest if type(prover) is compilers.HonestQuantumProver else _Table)(prover, plan)
    size = tcf.CHUNK_SIZE
    return sum(_chunk_wins(plan, lam, run, min(size, trials - start), rng, fhe_backend,
                           on_transcript)
               for start in range(0, trials, size))
