"""Batched four-message sessions: the engine behind estimate_win_rate.

compilers.estimate_win_rate runs its trials here when the qfhe backend is
stub or leaky and the prover is a TruthTableProver (the feasible prover
included) or an HonestQuantumProver on the collapsed pad path.  Every other
case runs the scalar state machines of compilers, which stay the protocol
reference.

Sessions run in chunks of max(1, 2^16 >> lambda), so a chunk's claw-free
tables hold about 2^16 entries whatever lambda is, and each protocol step
makes one rng call per chunk.  No layer is skipped.  Each session gets a
fresh qfhe key id, claw-free permutation, mask and oracle seed.  Stub
encryptions are (masked, pad, nonce) arrays, split from 63-bit draws by
qfhe.split_draw.  The multiplexer runs gate by gate through qfhe.stub_wires
on bit arrays.  Collapsed pad rounds hash each session's oracle points with
opad.hash_bit, and the verifier inverts y with the trapdoor.  Strategy
states are (sessions, 2^m) arrays, padded by index permutation and sign and
measured with the strategy's cached projectors through _born_pick.

The kind's rules come from its CompilerSpec, the honest branches from
HonestQuantumProver._branches_for, each session's answers and accept bit
from compilers._decode_answers and compilers._decision, the claw-free keys
from tcf.gen_many (one tcf.IdealKey chunk; session i's transcript holds
row i) and the context draw from ContextualityGame.contexts_at,
which sample_context runs on one uniform.  The other scalar checks run on
whole chunks: state norms, payload bits, outcome matching, d != 0 and
pad-key widths.  So do the input draw, only where a context offers several
inputs, and two rules whose one-row form would slow the scalar path, so
they stay twins of their qsim originals: the Born draw of
measure_observable (_born_pick), which never draws a branch below
qsim.BORN_FLOOR, and the Pauli pad (_pauli).

A chunk draws step by step, not session by session, so a seed gives other
sessions than the scalar engine would, from the same distribution.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import compilers, opad, qfhe, tcf
from .qsim import BORN_FLOOR, PauliKey, check_norms

# A chunk's claw-free tables hold about this many entries.
CHUNK_ENTRIES = 2 ** 16


def chunk_size(lam: int) -> int:
    """Sessions per chunk at this lambda."""
    return max(1, CHUNK_ENTRIES >> lam)


def runs(prover, fhe_backend: str) -> bool:
    """Whether estimate_win_rate batches the sessions of this prover and backend."""
    if fhe_backend not in ("stub", "leaky"):
        return False
    if type(prover) is compilers.HonestQuantumProver:
        return prover.opad_path == "collapsed"
    return type(prover) in (compilers.TruthTableProver, compilers.FeasibleInconsistentProver)


class _Cipher(NamedTuple):
    """Stub ciphertexts of a chunk: (sessions, bits) arrays."""

    masked: np.ndarray
    pad: np.ndarray
    nonce: np.ndarray

    def bits(self) -> np.ndarray:
        """The plaintext, read with each session's own key."""
        return self.masked ^ self.pad


def _encrypt(bits: np.ndarray, rng: np.random.Generator) -> _Cipher:
    """Stub encryption of a (sessions, width) bit array, one 63-bit draw per bit."""
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("payload must be bits")
    pad, nonce = qfhe.split_draw(rng.integers(0, 2 ** 63, size=bits.shape))
    return _Cipher(bits ^ pad, pad, nonce)


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


def _columns(columns: list, n: int) -> np.ndarray:
    """(n, len(columns)) array of per-session columns; a round can carry no bits."""
    return np.stack(columns, axis=1) if columns else np.zeros((n, 0), dtype=np.int64)


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


def _check_slots(d: np.ndarray, y: np.ndarray, size: int) -> None:
    """The checks of an OpadString and of the trapdoor inversion, per slot."""
    if (d == 0).any():
        raise ValueError("d must be nonzero")
    if ((y < 0) | (y >= size)).any():
        raise ValueError("y is not in the image")


class _Oracles:
    """The hash oracles of a chunk's sessions, each with its own database.

    A point is keyed by session * 2^lambda + x and hashed once, on its first
    query, as PhaseOracle.query does.
    """

    def __init__(self, seeds: np.ndarray, lam: int):
        self.seeds = seeds.tolist()
        self.lam = lam
        self.database = {}

    def bits(self, *points: np.ndarray) -> tuple:
        """The bits of each session's oracle at each of its rows of points."""
        lam, db = self.lam, self.database
        rows = np.arange(len(points[0]))[:, None]
        keys = np.stack([(rows << lam) + x for x in points])
        flat = keys.ravel().tolist()
        new = [key for key in dict.fromkeys(flat) if key not in db]
        low = (1 << lam) - 1
        db.update(zip(new, map(opad.hash_bit, [self.seeds[key >> lam] for key in new],
                               [key & low for key in new])))
        return tuple(np.array([db[key] for key in flat]).reshape(keys.shape))


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
        game = plan.game
        self.n = n
        self.key_ids = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        # claw-free keys f_0 = PRP and f_1(x) = PRP(x ^ delta), as their trapdoors
        self.keys = tcf.gen_many(plan.lam, n, rng)
        self.oracles = _Oracles(rng.integers(2 ** 62, size=n), plan.lam)
        self.ctx = game.contexts_at(rng.random(n))
        # one uniform draw only for sessions whose context offers several inputs
        pick = np.zeros(n, dtype=np.int64)
        many = plan.counts[self.ctx] > 1
        if many.any():
            pick[many] = rng.integers(0, plan.counts[self.ctx][many])
        self.inp = plan.choices[self.ctx, pick]
        self.question_cipher = _encrypt(plan.payloads[self.inp], rng)

    def message3(self, plan: _Plan, answer_cipher: _Cipher, pad_cipher: _Cipher,
                 d: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        """Decrypt the round-1 replies and draw the round-2 questions."""
        game, size = plan.game, 1 << plan.lam
        counts = plan.asked_count[self.inp].tolist()
        self.answers1 = [compilers._decode_answers(game, bits[:count * plan.answer_width], count)
                         for bits, count in zip(answer_cipher.bits().tolist(), counts)]
        _check_slots(d, y, size)
        x0, x1 = self.keys.claw(y)
        k_prime = opad.phase_from(d, x0, x1, *self.oracles.bits(x0, x1))
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
        pad_hat = _encrypt(k_in, rng)
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
        pad_cipher = _encrypt(k_out, rng)
        answer_cipher = _encrypt(answer_bits, rng)
        # collapsed opad rounds: slot 2t pads X on qubit t, slot 2t + 1 pads Z
        y = rng.integers(0, size, size=(n, 2 * m))
        d = rng.integers(1, size, size=(n, 2 * m))
        _check_slots(d, y, size)
        # the claw read off the public tables
        x0, x1 = s.keys.claw(y)
        bits = opad.phase_from(d, x0, x1, *s.oracles.bits(x0, x1))
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
        sources = circuit.token_sources
        outputs = circuit.outputs
        answer_cipher = _Cipher(
            _columns([masks[w] for w in outputs], n),
            _columns([pads[w] for w in outputs], n),
            _columns([nonces[w] if sources[w] is None else q.nonce[:, sources[w]]
                      for w in outputs], n))
        # a fresh one-qubit pad key, encrypted, and the string from samp(pk, 1)
        pad_cipher = _encrypt(rng.integers(0, 2, size=(n, 2)), rng)
        x = rng.integers(0, size, size=(n, 2))
        y = s.keys.image(x)
        d = rng.integers(1, size, size=(n, 2))
        _check_slots(d, y, size)
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


def _transcripts(plan: _Plan, s: _Sessions, fhe_backend: str, answer_cipher: _Cipher,
                 pad_cipher: _Cipher, d, y, answers, accepts) -> list:
    """The CompiledTranscript of each session of a chunk, built from its arrays."""
    game, kind = plan.game, plan.kind
    hexed = s.key_ids.tobytes().hex()
    answer_bits = plan.asked_count[s.inp] * plan.answer_width
    out = []
    for i in range(s.n):
        key_id = hexed[32 * i:32 * (i + 1)]
        backend = qfhe._StubBackend(key_id, fhe_backend == "leaky")

        def cipher(c: _Cipher, width=None):
            return qfhe.ClassicalCiphertext(tuple(
                (m, qfhe.StubToken(key_id, nonce, pad))
                for m, pad, nonce in zip(c.masked[i, :width].tolist(), c.pad[i, :width].tolist(),
                                         c.nonce[i, :width].tolist())), backend)

        message1 = compilers.Message1(
            cipher(s.question_cipher), qfhe.QfhePublicHandle(backend.scheme, key_id, backend),
            tcf.IdealKey(s.keys.inv_prp[i], int(s.keys.delta[i])),
            opad.PhaseOracle("hash", seed=s.oracles.seeds[i]), game, kind)
        message2 = compilers.Message2(
            cipher(answer_cipher, int(answer_bits[i])), cipher(pad_cipher),
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
    size = chunk_size(lam)
    return sum(_chunk_wins(plan, run, min(size, trials - start), rng, fhe_backend,
                           transcript_log)
               for start in range(0, trials, size))
