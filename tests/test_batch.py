"""The batched session engine behind estimate_win_rate, pinned to the scalar
state machines and to exact per-cell acceptance probabilities."""
import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_compilers import _compilable_table
from test_games import random_games

from ctxsim import batch, cli, compilers as cp, games, qfhe, tcf
from ctxsim.games import embed_in_qubits, nc_value_with_table
from ctxsim.qsim import (Observable, PauliKey, StateVector, apply_pauli_pad, branch_measure,
                         measure_observable)

LAM = 5
SESSIONS = 4000


def rebuilt_keys(t: cp.CompiledTranscript, lam: int):
    """The session's secret keys, from its qfhe handle and claw-free key."""
    handle = t.message1.fhe_handle
    sk = qfhe.QfheSecretKey(handle.scheme, handle.key_id, lam, handle.backend)
    pk = t.message1.opad_pk
    return sk, tcf.TcfKeyPair(pk, pk, pk.n, None), t.message1.oracle


def accepted(game, ci, asked, given, q2, a2) -> bool:
    """The accept rule, restated: a repeated question must get the same
    answer, and a fully answered context (round 1 first) must satisfy the
    predicate."""
    ok = True
    if q2 in asked:
        ok = given[asked.index(q2)] == a2
    answered = dict(zip(asked, given))
    answered.setdefault(q2, a2)
    ctx = game.contexts[ci]
    if all(q in answered for q in ctx):
        ok = ok and bool(game.predicate(ci, tuple(answered[q] for q in ctx)))
    return ok


def cell_probs(game, kind) -> dict:
    """P(context, round-1 input, round-2 question) under the verifier's draws."""
    spec = cp.spec_of(kind)
    out = {}
    for ci, w in enumerate(game.context_weights):
        choices = spec.context_inputs(game, ci)
        for value in choices:
            for q2 in game.contexts[ci]:
                out[(ci, value, q2)] = float(w) / len(choices) / len(game.contexts[ci])
    return out


def honest_accept_probs(game, strategy, kind) -> dict:
    """Exact P(accept | cell) of the honest prover: the pads cancel, so it
    measures the round-1 questions on psi in order, then the round-2 one."""
    emb = embed_in_qubits(strategy, game.answers[0])
    targets = range(emb.psi.num_registers)
    spec = cp.spec_of(kind)
    out = {}
    for (ci, value, q2) in cell_probs(game, kind):
        asked = spec.questions(game, value)
        total = 0.0

        def walk(state, answers, prob):
            nonlocal total
            question = asked[len(answers)] if len(answers) < len(asked) else q2
            for val, p, post in branch_measure(state, emb.observables[question], targets):
                if post is None:
                    continue
                answers_now = answers + (emb.answer_for(game, val),)
                if len(answers_now) <= len(asked):
                    walk(post, answers_now, prob * p)
                elif accepted(game, ci, asked, answers_now[:-1], q2, answers_now[-1]):
                    total += prob * p

        walk(emb.psi, (), 1.0)
        out[(ci, value, q2)] = total
    return out


def chi_square_ok(observed: Counter, expected: dict, n: int) -> bool:
    """Chi-square of counts against bin probabilities, at about p = 1e-4.

    A bin of probability zero must stay empty; bins expecting fewer than
    five counts are pooled.  The critical value is the Wilson-Hilferty
    approximation.
    """
    if any(expected.get(b, 0.0) == 0.0 for b in observed):
        return False
    stat, dof = 0.0, -1
    pooled_o, pooled_e = 0, 0.0
    for b, p in expected.items():
        if p == 0.0:
            continue
        e = n * p
        if e < 5:
            pooled_o += observed.get(b, 0)
            pooled_e += e
            continue
        stat += (observed.get(b, 0) - e) ** 2 / e
        dof += 1
    if pooled_e:
        stat += (pooled_o - pooled_e) ** 2 / pooled_e
        dof += 1
    z = 3.72
    critical = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
    return stat <= critical


def sessions_of(game, kind, prover, trials, seed, lam=LAM):
    """(rate, transcripts, cells) of a batched run; a cell is (context,
    decrypted round-1 input, round-2 question)."""
    log = []
    rate, _ = cp.estimate_win_rate(game, kind, prover, trials, np.random.default_rng(seed),
                                   lam=lam, transcript_log=log)
    spec = cp.spec_of(kind)
    cells = []
    for t in log:
        sk, _, _ = rebuilt_keys(t, lam)
        value = spec.decode(game, qfhe.dec_classical(sk, t.message1.question_cipher))
        cells.append((t.ctx_index, value, t.question))
    return rate, log, cells


def redecide_every_transcript(game, log, lam=LAM):
    """recompute_decision with rebuilt keys gives each accept bit, and a
    tampered round-2 answer gets the restated rule's verdict: a rejection
    whenever the session was accepted, on these binary-answer games."""
    for t in log:
        sk, opad_keys, oracle = rebuilt_keys(t, lam)
        assert cp.recompute_decision(game, t, sk, opad_keys, oracle) == t.accept
        spec = cp.spec_of(t.kind)
        asked = spec.questions(game, spec.decode(
            game, qfhe.dec_classical(sk, t.message1.question_cipher)))
        given = cp._decode_answers(game, qfhe.dec_classical(sk, t.message2.answer_cipher),
                                   len(asked))
        other = next(a for a in game.answers if a != t.answer)
        verdict = cp.recompute_decision(game, dataclasses.replace(t, answer=other),
                                        sk, opad_keys, oracle)
        assert verdict == accepted(game, t.ctx_index, asked, given, t.question, other)
        assert not (verdict and t.accept)


HONEST = [("kcbs", "1-1"), ("magic-square", "c-1"), ("magic-square", "cm1-1"), ("chsh", "1-1")]


@pytest.mark.parametrize("name,kind", HONEST, ids=[f"{g}-{k}" for g, k in HONEST])
def test_honest_cells_match_exact_probabilities(name, kind):
    game, strategy = cli.BUILTIN_GAMES[name]()
    rate, log, cells = sessions_of(game, kind, cp.honest_quantum_prover(strategy),
                                   SESSIONS, 300 + len(name) + len(kind))
    assert len(log) == SESSIONS
    assert rate == sum(t.accept for t in log) / SESSIONS
    cell_p = cell_probs(game, kind)
    accept_p = honest_accept_probs(game, strategy, kind)
    expected = {}
    for cell, p in cell_p.items():
        expected[cell + (True,)] = p * accept_p[cell]
        expected[cell + (False,)] = p * (1 - accept_p[cell])
    observed = Counter(cell + (t.accept,) for cell, t in zip(cells, log))
    assert chi_square_ok(observed, expected, SESSIONS)
    redecide_every_transcript(game, log)


TABLES = [("kcbs", "1-1", "truthtable"), ("magic-square", "c-1", "truthtable"),
          ("magic-square", "cm1-1", "truthtable"), ("kcbs", "c-1", "feasible"),
          ("magic-square", "c-1", "feasible")]


@pytest.mark.parametrize("name,kind,prover_name", TABLES,
                         ids=[f"{g}-{k}-{p}" for g, k, p in TABLES])
def test_table_sessions_follow_the_faithfulness_rule(name, kind, prover_name):
    game, _ = cli.BUILTIN_GAMES[name]()
    _, table = nc_value_with_table(game)
    if prover_name == "feasible":
        prover = cp.feasible_inconsistent_prover(game)
    else:
        prover = cp.truthtable_prover(table)
    rate, log, cells = sessions_of(game, kind, prover, SESSIONS, 400 + len(name) + len(kind))
    spec = cp.spec_of(kind)
    for (ci, value, q2), t in zip(cells, log):
        context = game.contexts[ci]
        if prover_name == "feasible":
            # only the re-asked coordinate can catch the submitted tuple
            expected = prover._submissions[ci][context.index(q2)] == table(q2)
        else:
            covered = set(context) <= set(spec.questions(game, value)) | {q2}
            expected = not covered or bool(game.predicate(ci, table.on_context(context)))
        assert t.accept == expected
        assert t.answer == table(q2)
    assert chi_square_ok(Counter(cells), cell_probs(game, kind), SESSIONS)
    assert rate == sum(t.accept for t in log) / SESSIONS
    redecide_every_transcript(game, log)


def test_batched_and_scalar_acceptance_agree():
    game, strategy = games.kcbs()
    prover = cp.honest_quantum_prover(strategy)
    _, log, cells = sessions_of(game, "1-1", prover, 3000, 11, lam=4)
    batched = Counter(cell + (t.accept,) for cell, t in zip(cells, log))
    rng = np.random.default_rng(12)
    scalar = Counter()
    for _ in range(1500):
        accept, state = cp.run_session(game, "1-1", prover, rng, lam=4)
        value = cp.spec_of("1-1").decode(
            game, qfhe.dec_classical(state.fhe_sk, state.message1.question_cipher))
        scalar[(state.ctx_index, value, state.question, accept)] += 1
    # two-sample chi-square over the bins both runs can fill
    stat, dof = 0.0, -1
    n1, n2 = sum(batched.values()), sum(scalar.values())
    for b in set(batched) | set(scalar):
        o1, o2 = batched.get(b, 0), scalar.get(b, 0)
        if o1 + o2 < 10:
            continue
        e1 = (o1 + o2) * n1 / (n1 + n2)
        e2 = (o1 + o2) * n2 / (n1 + n2)
        stat += (o1 - e1) ** 2 / e1 + (o2 - e2) ** 2 / e2
        dof += 1
    critical = dof * (1 - 2 / (9 * dof) + 3.72 * math.sqrt(2 / (9 * dof))) ** 3
    assert stat <= critical


def test_honest_magic_square_is_exactly_one():
    game, strategy = games.magic_square()
    prover = cp.honest_quantum_prover(strategy)
    for kind in ("c-1", "cm1-1"):
        rate, _ = cp.estimate_win_rate(game, kind, prover, 20000, np.random.default_rng(13),
                                       lam=LAM)
        assert rate == 1.0


@pytest.mark.parametrize("extra", [0, 1])
def test_trial_counts_across_chunk_edges(extra):
    game, _ = games.kcbs()
    prover = cp.feasible_inconsistent_prover(game)
    size = tcf.chunk_size(LAM)
    for trials in {1, size + extra}:
        log = []
        rate, _ = cp.estimate_win_rate(game, "c-1", prover, trials, np.random.default_rng(14),
                                       lam=LAM, transcript_log=log)
        assert len(log) == trials
        assert rate == sum(t.accept for t in log) / trials
        assert len({t.message1.fhe_handle.key_id for t in log}) == trials


def test_chunks_hold_about_two_to_the_sixteen_table_entries():
    assert tcf.chunk_size(8) == 256
    assert tcf.chunk_size(16) == 1
    assert tcf.chunk_size(20) == 1


def test_transcripts_change_no_draw(tmp_path, capsys):
    argv = ["compile", "--game", "kcbs", "--compiler", "1-1", "--trials", "300",
            "--seed", "15", "--lambda", "6"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    assert cli.main(argv + ["--transcripts", str(tmp_path / "t.jsonl")]) == 0
    assert capsys.readouterr().out == plain
    assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 600


def test_only_batchable_sessions_skip_run_session(monkeypatch):
    calls = []
    scalar = cp.run_session

    def spy(*args, **kwargs):
        calls.append(type(args[2]).__name__)
        return scalar(*args, **kwargs)

    monkeypatch.setattr(cp, "run_session", spy)
    game, strategy = games.kcbs()
    _, table = nc_value_with_table(game)
    rng = np.random.default_rng(16)
    for prover, kind, backend in (
            (cp.honest_quantum_prover(strategy), "1-1", "stub"),
            (cp.truthtable_prover(table), "1-1", "leaky"),
            (cp.feasible_inconsistent_prover(game), "c-1", "stub")):
        cp.estimate_win_rate(game, kind, prover, 3, rng, lam=4, fhe_backend=backend)
    assert calls == []

    class OtherProver(cp.TruthTableProver):
        pass

    for prover, backend in ((cp.truthtable_prover(table), "lwe"),
                            (cp.honest_quantum_prover(strategy, opad_path="circuit"), "stub"),
                            (OtherProver(table), "stub")):
        calls.clear()
        cp.estimate_win_rate(game, "1-1", prover, 2, rng, lam=4, fhe_backend=backend)
        assert calls == [type(prover).__name__] * 2


def test_batched_pad_is_the_pauli_pad():
    rng = np.random.default_rng(17)
    amps = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    for bits in range(64):
        x = np.array([[(bits >> (5 - j)) & 1 for j in range(3)]] * 4)
        z = np.array([[(bits >> (2 - j)) & 1 for j in range(3)]] * 4)
        padded = batch._pauli(amps, x, z)
        key = PauliKey(tuple(x[0]), tuple(z[0]))
        for row in range(4):
            expected = apply_pauli_pad(StateVector((2, 2, 2), amps[row]), key, range(3))
            assert np.array_equal(padded[row], expected.amps)


class Uniform:
    """An rng stand-in whose random() returns a fixed uniform."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def test_born_pick_is_the_scalar_draw():
    # branch weights of diag(p) on a state whose Born weights are p
    rows = [(0.5, 1e-16, 0.5), (1e-16, 1.0 - 1e-16, 0.0), (0.0, 0.0, 1.0), (0.3, 0.3, 0.4)]
    uniforms = np.append(np.linspace(0, 1, 101), [0.5 - 1e-17, 0.6 + 1e-16])
    for row in rows:
        state = StateVector((3,), np.sqrt(row))
        obs = Observable(np.diag([1.0, 2.0, 3.0]))
        probs = np.array([p for _, p, _ in branch_measure(state, obs, [0])])
        picks = batch._born_pick(np.tile(probs, (len(uniforms), 1)), uniforms)
        for r, pick in zip(uniforms, picks):
            value, _ = measure_observable(state, obs, [0], Uniform(r))
            assert value == pytest.approx(pick + 1.0)
        assert row[1] > 1e-15 or 1 not in picks
    assert batch._born_pick(np.zeros((1, 3)), np.zeros(1))[0] == -1


def loop_context(game, r: float) -> int:
    """The context draw as a loop: the first context whose running float sum
    of weights exceeds r, else the last context."""
    acc = 0.0
    for i, w in enumerate(game.context_weights):
        acc += float(w)
        if r < acc:
            return i
    return len(game.contexts) - 1


def test_context_draw_is_sample_context():
    game = games.ContextualityGame(
        questions=(0, 1, 2), answers=(0, 1), contexts=((0,), (1,), (2,), (0, 1)),
        context_weights=("1/3", "1/3", "0", "1/3"), accepts={})
    uniforms = np.append(np.linspace(0, 1, 1001), [1 / 3, 2 / 3, 1 - 1e-16])
    for r, ci in zip(uniforms, game.contexts_at(uniforms)):
        assert ci == game.sample_context(Uniform(r)) == loop_context(game, r)


def test_batched_engine_raises_the_scalar_errors():
    game, strategy = games.kcbs()
    # an eigenvalue that is no answer label: both engines refuse to encode it
    off = games.QuantumStrategy(strategy.dim, strategy.psi, {
        q: Observable(obs.matrix * 0.5) for q, obs in strategy.observables.items()})
    with pytest.raises(ValueError, match="matches no declared outcome"):
        cp.estimate_win_rate(game, "1-1", cp.honest_quantum_prover(off), 50,
                             np.random.default_rng(18), lam=4)
    rng = np.random.default_rng(18)
    with pytest.raises(ValueError, match="matches no declared outcome"):
        for _ in range(50):
            cp.run_session(game, "1-1", cp.honest_quantum_prover(off), rng, lam=4)
    with pytest.raises(ValueError, match="c-1"):
        cp.estimate_win_rate(game, "1-1", cp.feasible_inconsistent_prover(game), 5,
                             np.random.default_rng(19), lam=4)
    for lam in (2, tcf.MAX_DOMAIN_BITS + 1):
        with pytest.raises(ValueError, match="domain must have 3 to"):
            cp.estimate_win_rate(game, "1-1", cp.honest_quantum_prover(strategy), 5,
                                 np.random.default_rng(19), lam=lam)


def widened(c: qfhe.StubCipher) -> qfhe.StubCipher:
    """c with each session's first bit repeated at the end."""
    return qfhe.StubCipher(*(np.hstack([a, a[:, :1]]) for a in c))


@pytest.mark.parametrize("tamper, message", [
    (lambda a, p, d, y: (a, p, d * 0, y), "d must be nonzero"),
    (lambda a, p, d, y: (a, p, d, y + (1 << LAM)), "y is not in the image"),
    (lambda a, p, d, y: (a, widened(p), d, y), "pad key widths disagree"),
])
@pytest.mark.parametrize("name", ["truthtable", "honest"])
def test_batched_verifier_runs_the_scalar_checks(tamper, message, name, monkeypatch):
    game, strategy = games.kcbs()
    _, table = nc_value_with_table(game)
    prover, run = ((cp.truthtable_prover(table), batch._Table) if name == "truthtable"
                   else (cp.honest_quantum_prover(strategy), batch._Honest))
    round1 = run.round1
    monkeypatch.setattr(run, "round1", lambda *args: tamper(*round1(*args)))
    with pytest.raises(ValueError, match=message):
        cp.estimate_win_rate(game, "1-1", prover, 5, np.random.default_rng(21), lam=LAM)


def test_a_one_row_stub_chunk_is_the_scalar_encryption():
    be = qfhe._StubBackend("k" * 32, leaky=False)
    for seed, bits in enumerate(((), (1,), (0, 1, 1, 0, 1), (1,) * 9)):
        chunk = qfhe.stub_encrypt(np.array([bits], dtype=np.int64).reshape(1, -1),
                                  np.random.default_rng(seed))
        assert be.cipher(chunk.row(0)).bits == be.encrypt(bits, np.random.default_rng(seed)).bits
        assert chunk.bits().tolist() == [list(bits)]


@pytest.mark.parametrize("kind", ["1-1", "c-1", "cm1-1"])
@settings(max_examples=25, deadline=None)
@given(game=st.one_of(random_games(), random_games(context_size=2)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_table_sessions_on_random_games(kind, game, seed):
    table = _compilable_table(game, kind)
    assume(table is not None)
    spec = cp.spec_of(kind)
    _, log, cells = sessions_of(game, kind, cp.truthtable_prover(table), 40, seed, lam=3)
    for (ci, value, q2), t in zip(cells, log):
        context = game.contexts[ci]
        covered = set(context) <= set(spec.questions(game, value)) | {q2}
        assert t.accept == (not covered or bool(game.predicate(ci, table.on_context(context))))
        assert cp.recompute_decision(game, t, *rebuilt_keys(t, 3)) == t.accept


def test_stub_wires_on_arrays_match_the_per_session_ints():
    rng = np.random.default_rng(20)
    for name, kind in (("kcbs", "1-1"), ("magic-square", "cm1-1"), ("chsh", "c-1")):
        game, _ = cli.BUILTIN_GAMES[name]()
        _, table = nc_value_with_table(game)
        circuit = cp.truthtable_prover(table)._circuit_for(game, cp.CompilerKind(kind))
        masks = rng.integers(0, 2, size=(circuit.n_inputs, 50))
        pads = rng.integers(0, 2, size=(circuit.n_inputs, 50))
        r = rng.integers(0, 2, size=(circuit.random_gates, 50))
        wire_masks, wire_pads = qfhe.stub_wires(circuit, masks, pads, r)
        for i in range(50):
            expected = qfhe.stub_wires(circuit, masks[:, i].tolist(), pads[:, i].tolist(),
                                       r[:, i].tolist())
            assert [int(w[i]) for w in wire_masks] == expected[0]
            assert [int(w[i]) for w in wire_pads] == expected[1]


def one_question_game():
    """Two one-question contexts, won always by measuring Z on |0>."""
    game = games.ContextualityGame(("a", "b"), (1, -1), (("a",), ("b",)), ("1/2", "1/2"),
                                   {0: [(1,)], 1: [(1,)]})
    z = Observable(np.diag([1.0, -1.0]))
    return game, games.QuantumStrategy(2, StateVector((2,), [1, 0]), {"a": z, "b": z})


@pytest.mark.parametrize("opad_path", ["collapsed", "circuit"])
def test_one_question_contexts_run_under_cm1_1(opad_path):
    # cm1-1 asks no round-1 question here, so the answer ciphertext is empty
    game, strategy = one_question_game()
    prover = cp.honest_quantum_prover(strategy, opad_path=opad_path)
    rng = np.random.default_rng(17)
    accept, state = cp.run_session(game, "cm1-1", prover, rng, lam=4)
    assert accept
    assert len(state.transcript().message2.answer_cipher) == 0
    log = []
    rate, _ = cp.estimate_win_rate(game, "cm1-1", prover, 40, rng, lam=4, transcript_log=log)
    assert rate == 1.0
    assert {len(t.message2.answer_cipher) for t in log} == {0}
    rate, _ = cp.estimate_win_rate(game, "cm1-1", prover, 3, rng, lam=4, fhe_backend="lwe")
    assert rate == 1.0


def test_one_question_contexts_run_from_the_cli(tmp_path, capsys):
    game, strategy = one_question_game()
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"game": json.loads(game.to_json()),
                                "strategy": json.loads(strategy.to_json())}))
    argv = ["compile", "--game", str(path), "--compiler", "cm1-1", "--prover", "honest",
            "--trials", "50", "--seed", "18", "--lambda", "4"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["rate"] == 1.0
