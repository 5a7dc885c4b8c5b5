"""Batched four-message sessions: the engine behind estimate_win_rate.

compilers.estimate_win_rate runs its trials here when the qfhe backend is
stub or leaky and the prover is a TruthTableProver (the feasible prover
included) or an HonestQuantumProver on the collapsed pad path.  Every other
case runs the scalar state machines of compilers, which stay the protocol
reference.

Sessions run in chunks of tcf.chunk_size(lambda), so a chunk's claw-free
tables hold about 2^16 entries whatever lambda is, and each protocol step
makes one rng call per chunk.  No layer is skipped.  This module keeps
the session bookkeeping: the plan of a kind on a game, and each chunk's
contexts, inputs, questions and transcripts.  The rules are the scalar
engine's, in chunk form: the kind's CompilerSpec, the honest branches of
HonestQuantumProver._branches_for, compilers._decode_answers and
compilers._decision, the context draw ContextualityGame.contexts_at, the
per-session qfhe key ids, claw-free keys and oracle seeds of qfhe.key_ids,
tcf.gen_many and opad.hash_seeds, stub encryptions by qfhe.stub_encrypt,
the multiplexer through qfhe.stub_wires, and the pad bits of the
verifier's Dec and of the honest prover's collapsed rounds from
opad.pad_bits on the key chunk and an opad.PhaseOracleChunk.  Two rules
whose one-row form would slow the scalar path stay twins of their qsim
originals: the Born draw of measure_observable (_born_pick), which never
draws a branch below qsim.BORN_FLOOR, and the Pauli pad (_pauli).

A chunk draws step by step, not session by session, so a seed gives other
sessions than the scalar engine would, from the same distribution.
"""
from __future__ import annotations

import numpy as np

from . import compilers, opad, qfhe, tcf
from .qfhe import StubCipher
from .qsim import BORN_FLOOR, PauliKey, check_norms


def runs(prover, fhe_backend: str) -> bool:
    """Whether estimate_win_rate batches the sessions of this prover and backend."""
    if fhe_backend not in ("stub", "leaky"):
        return False
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


class _Plan:
    """One kind's rules on one game, as tables over the round-1 inputs."""

    def __init__(self, game, kind, lam: int):
        tcf.check_domain_bits(lam)
        kind = compilers.CompilerKind(kind)
        spec = compilers.spec_of(kind)
        spec.check(game)
        self.game, self.kind, self.spec, self.lam = game, kind, spec, lam
        self.inputs = spec.inputs(game)
        where = {value: i for i, value in enumerate(self.inputs)}
        choices = [[where[value] for value in spec.context_inputs(game, ci)]
                   for ci in range(len(game.contexts))]
        self.counts = np.array([len(c) for c in choices])
        most = int(self.counts.max())
        self.choices = np.array([c + c[:1] * (most - len(c)) for c in choices])
        self.payloads = np.array([qfhe._checked_bits(spec.encode(game, value))
                                  for value in self.inputs], dtype=np.int64)
        self.asked = [spec.questions(game, value) for value in self.inputs]
        self.asked_count = np.array([len(q) for q in self.asked])
        qindex = {q: i for i, q in enumerate(game.questions)}
        self.ctx_sizes = np.array([len(c) for c in game.contexts])
        most = int(self.ctx_sizes.max())
        self.ctx_questions = np.array([[qindex[q] for q in c] + [0] * (most - len(c))
                                       for c in game.contexts])
        self.answer_width = compilers._answer_width(game)


class _Sessions:
    """The verifier's side of a chunk of sessions."""

    def __init__(self, plan: _Plan, n: int, rng: np.random.Generator):
        self.n = n
        self.key_ids = qfhe.key_ids(rng, n)
        # claw-free keys f_0 = PRP and f_1(x) = PRP(x ^ delta), as their trapdoors
        self.keys = tcf.gen_many(plan.lam, n, rng)
        self.oracles = opad.PhaseOracleChunk(opad.hash_seeds(rng, n), plan.lam)
        self.ctx = plan.game.contexts_at(rng.random(n))
        # one uniform draw only for sessions whose context offers several inputs
        pick = np.zeros(n, dtype=np.int64)
        many = plan.counts[self.ctx] > 1
        if many.any():
            pick[many] = rng.integers(0, plan.counts[self.ctx][many])
        self.inp = plan.choices[self.ctx, pick]
        self.question_cipher = qfhe.stub_encrypt(plan.payloads[self.inp], rng)

    def message3(self, plan: _Plan, answer_cipher: StubCipher, pad_cipher: StubCipher,
                 d: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        """Decrypt the round-1 replies and draw the round-2 questions."""
        game = plan.game
        counts = plan.asked_count[self.inp].tolist()
        self.answers1 = [compilers._decode_answers(game, bits[:count * plan.answer_width], count)
                         for bits, count in zip(answer_cipher.bits().tolist(), counts)]
        k_prime = opad.pad_bits(self.keys, d, y, self.oracles)
        k_dbl = pad_cipher.bits()
        if k_dbl.shape[1] != k_prime.shape[1]:
            raise ValueError("pad key widths disagree")
        m = k_prime.shape[1] // 2
        # slots alternate (X round, Z round) per qubit; k = k' ^ k''
        self.key_x = k_prime[:, 0::2] ^ k_dbl[:, :m]
        self.key_z = k_prime[:, 1::2] ^ k_dbl[:, m:]
        self.question = plan.ctx_questions[self.ctx, rng.integers(0, plan.ctx_sizes[self.ctx])]

    def decide(self, plan: _Plan, answers: np.ndarray) -> list:
        game = plan.game
        return [compilers._decision(game, ctx, plan.asked[inp], given, game.questions[q],
                                    game.answers[a])[0]
                for ctx, inp, given, q, a in zip(self.ctx.tolist(), self.inp.tolist(),
                                                 self.answers1, self.question.tolist(),
                                                 answers.tolist())]


class _Honest:
    """HonestQuantumProver on the collapsed pad path, over a chunk."""

    def __init__(self, prover, plan: _Plan):
        game = plan.game
        emb = prover._embed_for(game)
        branches = prover._branches_for(game, plan.kind)
        self.game, self.emb = game, emb
        self.m = emb.psi.num_registers
        self.psi = emb.psi.amps
        # observables are indexed like game.questions; the branch steps measure them too
        observables = [emb.observables[q] for q in game.questions]
        where = {id(obs): i for i, obs in enumerate(observables)}
        self.observables = observables
        clusters = max(len(obs.eigensystem) for obs in observables)
        dim = len(self.psi)
        # missing clusters are zero projectors, so they are never drawn
        self.proj = np.zeros((len(observables), clusters, dim, dim), dtype=complex)
        for i, obs in enumerate(observables):
            for v, (_, proj) in enumerate(obs.eigensystem):
                self.proj[i, v] = proj
        self.select = np.full(1 << plan.payloads.shape[1], -1)
        most = max(len(steps) for steps in branches.values())
        self.steps = np.zeros((len(branches), most), dtype=np.int64)
        self.nsteps = np.zeros(len(branches), dtype=np.int64)
        self.outcomes = []
        for b, (code, steps) in enumerate(branches.items()):
            self.select[code] = b
            self.nsteps[b] = len(steps)
            self.steps[b, :len(steps)] = [where[id(obs)] for obs, _, _ in steps]
            self.outcomes.append([outcomes for _, _, outcomes in steps])
        self._matched = {}
        self._answers = {}
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

    def _answer_bits(self, branch, step: int, obs, pick, width: int) -> np.ndarray:
        """qfhe._match_outcome of each drawn eigenvalue, once per distinct one."""
        out = []
        for key in zip(branch.tolist(), obs.tolist(), pick.tolist()):
            if key not in self._matched:
                b, o, v = key
                value = self.observables[o].eigensystem[v][0]
                self._matched[key] = qfhe._match_outcome(self.outcomes[b][step], value)
            out.append(self._matched[key])
        return np.array(out, dtype=np.int64).reshape(len(out), width)

    def round1(self, plan: _Plan, s: _Sessions, rng: np.random.Generator):
        n, m, size = s.n, self.m, 1 << plan.lam
        # enc_quantum: pad the strategy state with a uniform key, encrypt the key
        k_in = rng.integers(0, 2, size=(n, 2 * m))
        pad_hat = qfhe.stub_encrypt(k_in, rng)
        states = _pauli(np.broadcast_to(self.psi, (n, len(self.psi))), k_in[:, :m], k_in[:, m:])
        # eval: the trusted executor reads the pad key and the selector
        seen = pad_hat.bits()
        states = _pauli(states, seen[:, :m], seen[:, m:])
        code = s.question_cipher.bits() @ _msb_weights(plan.payloads.shape[1])
        branch = self.select[code]
        if (branch < 0).any():
            raise ValueError(f"encrypted selector {code[branch < 0][0]} has no circuit branch")
        steps = self.steps.shape[1]
        width = plan.answer_width
        r = rng.random((n, steps))
        answer_bits = np.zeros((n, steps * width), dtype=np.int64)
        for step in range(steps):
            rows = np.flatnonzero(self.nsteps[branch] > step)
            obs = self.steps[branch[rows], step]
            pick, states[rows] = self._measure(states[rows], obs, r[rows, step])
            answer_bits[rows, step * width:(step + 1) * width] = self._answer_bits(
                branch[rows], step, obs, pick, width)
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

    def round2(self, plan: _Plan, s: _Sessions, rng: np.random.Generator) -> np.ndarray:
        """Measure each question's observable between undoing and re-applying U_k."""
        unpadded = _pauli(self.held, s.key_x, s.key_z)
        obs = s.question
        pick, post = self._measure(unpadded, obs, rng.random(s.n))
        self.held = _pauli(post, s.key_x, s.key_z)
        out = []
        for key in zip(obs.tolist(), pick.tolist()):
            if key not in self._answers:
                value = self.observables[key[0]].eigensystem[key[1]][0]
                self._answers[key] = self.game.answers.index(
                    self.emb.answer_for(self.game, value))
            out.append(self._answers[key])
        return np.array(out, dtype=np.int64)


class _Table:
    """TruthTableProver (or the feasible prover) over a chunk."""

    def __init__(self, prover, plan: _Plan):
        self.prover = prover
        self.circuit = prover._circuit_for(plan.game, plan.kind)
        sources = self.circuit.token_sources
        self.fresh = [w for w in dict.fromkeys(self.circuit.outputs) if sources[w] is None]
        self._answers = {}

    def round1(self, plan: _Plan, s: _Sessions, rng: np.random.Generator):
        n, size, circuit = s.n, 1 << plan.lam, self.circuit
        q = s.question_cipher
        if q.masked.shape[1] != circuit.n_inputs:
            raise ValueError("ciphertext width does not match circuit inputs")
        r = rng.integers(0, 2, size=(circuit.random_gates, n))
        masks, pads = qfhe.stub_wires(circuit, q.masked.T, q.pad.T, r)
        nonces = dict(zip(self.fresh, rng.integers(0, 2 ** qfhe._NONCE_BITS,
                                                   size=(len(self.fresh), n))))
        sources, outputs = circuit.token_sources, list(circuit.outputs)
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

    def round2(self, plan: _Plan, s: _Sessions, rng: np.random.Generator) -> np.ndarray:
        game = plan.game
        out = []
        for q in s.question.tolist():
            if q not in self._answers:
                answer = self.prover.round2(game.questions[q], None)
                if answer not in game.answers:
                    raise ValueError("answer outside the label set")
                self._answers[q] = game.answers.index(answer)
            out.append(self._answers[q])
        return np.array(out, dtype=np.int64)


def _transcripts(plan: _Plan, s: _Sessions, fhe_backend: str, answer_cipher: StubCipher,
                 pad_cipher: StubCipher, d, y, answers, accepts) -> list:
    """The CompiledTranscript of each session of a chunk, built from its arrays."""
    game, kind = plan.game, plan.kind
    answer_bits = plan.asked_count[s.inp] * plan.answer_width
    out = []
    for i, key_id in enumerate(s.key_ids):
        backend = qfhe._StubBackend(key_id, fhe_backend == "leaky")
        message1 = compilers.Message1(
            backend.cipher(s.question_cipher.row(i)),
            qfhe.QfhePublicHandle(backend.scheme, key_id, backend),
            tcf.IdealKey(s.keys.inv_prp[i], int(s.keys.delta[i])),
            opad.PhaseOracle("hash", seed=s.oracles.seeds[i]), game, kind)
        message2 = compilers.Message2(
            backend.cipher(answer_cipher.row(i, int(answer_bits[i]))),
            backend.cipher(pad_cipher.row(i)),
            opad.OpadString(tuple(zip(d[i].tolist(), y[i].tolist())), "pauli"))
        out.append(compilers.CompiledTranscript(
            kind=kind.value, ctx_index=int(s.ctx[i]),
            skip_pos=plan.spec.skip_pos(plan.inputs[s.inp[i]]),
            message1=message1, message2=message2,
            question=game.questions[s.question[i]],
            key=PauliKey(tuple(s.key_x[i].tolist()), tuple(s.key_z[i].tolist())),
            answer=game.answers[answers[i]], accept=accepts[i]))
    return out


def _chunk_wins(plan: _Plan, run, n: int, rng: np.random.Generator, fhe_backend: str,
                transcript_log: list) -> int:
    """Accepted sessions among n, run as one chunk; its arrays die on return."""
    s = _Sessions(plan, n, rng)
    answer_cipher, pad_cipher, d, y = run.round1(plan, s, rng)
    s.message3(plan, answer_cipher, pad_cipher, d, y, rng)
    answers = run.round2(plan, s, rng)
    accepts = s.decide(plan, answers)
    if transcript_log is not None:
        transcript_log += _transcripts(plan, s, fhe_backend, answer_cipher, pad_cipher,
                                       d, y, answers, accepts)
    return sum(accepts)


def win_count(game, kind, prover, trials: int, rng: np.random.Generator, lam: int,
              fhe_backend: str, transcript_log: list = None) -> int:
    """Accepted sessions among trials fresh-key sessions, run in chunks."""
    plan = _Plan(game, kind, lam)
    run = (_Honest if type(prover) is compilers.HonestQuantumProver else _Table)(prover, plan)
    size = tcf.chunk_size(lam)
    return sum(_chunk_wins(plan, run, min(size, trials - start), rng, fhe_backend,
                           transcript_log)
               for start in range(0, trials, size))
