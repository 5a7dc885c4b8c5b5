"""Compiled contextuality games: rates, faithfulness, message discipline."""
import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import consistency_rejected
from test_games import random_games

from ctxsim import compilers as cp
from ctxsim import cli, games, opad, qfhe, tcf
from ctxsim import reductions as rd
from ctxsim.compilers import CompilerKind
from ctxsim.games import ContextualityGame, nc_value_with_table, quantum_value_of
from ctxsim.qsim import (
    I2,
    Observable,
    PauliKey,
    StateVector,
    X,
    Z,
    apply_pauli_pad,
    bits_of,
    branch_measure,
    equal_up_to_global_phase,
    int_of,
    measure_observable,
)


def three_sigma(p: float, n: int) -> float:
    return 3 * math.sqrt(p * (1 - p) / n) + 1e-12


_PAULI = {(0, 0): I2, (1, 0): X, (0, 1): Z, (1, 1): X @ Z}


def pad_matrix(key: PauliKey) -> np.ndarray:
    """U_k = X^x Z^z over all qubits, as one matrix."""
    out = np.eye(1, dtype=complex)
    for x, z in zip(key.x, key.z):
        out = np.kron(out, _PAULI[(x, z)])
    return out


def nonuniform_game() -> ContextualityGame:
    return ContextualityGame(
        questions=(0, 1, 2),
        answers=(0, 1),
        contexts=((0, 1), (0, 1, 2)),
        context_weights=(Fraction(1, 2), Fraction(1, 2)),
        accepts={0: frozenset({(0, 0)}), 1: frozenset({(0, 0, 0)})},
    )


def test_compiler_kind_parses_cli_tokens():
    assert CompilerKind("1-1") is CompilerKind.ONE_ONE
    assert CompilerKind("c-1") is CompilerKind.ALL_ONE
    assert CompilerKind("cm1-1") is CompilerKind.ALL_BUT_ONE
    with pytest.raises(ValueError):
        CompilerKind("2-2")


def test_verifier_rejects_incompatible_games():
    rng = np.random.default_rng(30)
    ms, _ = games.magic_square()
    with pytest.raises(ValueError):
        cp.CompiledVerifier(ms, "1-1", 4, rng)
    with pytest.raises(ValueError):
        cp.CompiledVerifier(nonuniform_game(), "cm1-1", 4, rng)
    # c-1 tolerates ragged contexts on the verifier side
    state = cp.CompiledVerifier(nonuniform_game(), "c-1", 4, rng)
    assert state.round1_questions == state.game.contexts[state.ctx_index]


def test_truthtable_prover_needs_uniform_contexts_for_full_context_kinds():
    rng = np.random.default_rng(31)
    game = nonuniform_game()
    table = games.Assignment({0: 0, 1: 0, 2: 0})
    state = cp.CompiledVerifier(game, "c-1", 4, rng)
    m1 = state.message1
    with pytest.raises(ValueError, match="uniform context size"):
        cp.truthtable_prover(table).round1(m1, rng)


def test_message_order_is_enforced():
    rng = np.random.default_rng(32)
    game, strat = games.kcbs()
    prover = cp.honest_quantum_prover(strat)
    state = cp.CompiledVerifier(game, "1-1", 4, rng)
    m1 = state.message1
    with pytest.raises(RuntimeError):
        state.decide(0)
    with pytest.raises(RuntimeError):
        state.transcript()
    with pytest.raises(ValueError):
        state.message3("not a message")
    m2 = prover.round1(m1, rng)
    q, k = state.message3(m2)
    with pytest.raises(RuntimeError):
        state.message3(m2)
    a = prover.round2(q, k, rng)
    assert state.decide(a) in (True, False)
    with pytest.raises(RuntimeError):
        state.decide(a)
    state.transcript()


def test_honest_prover_round2_requires_round1():
    rng = np.random.default_rng(33)
    _, strat = games.kcbs()
    with pytest.raises(RuntimeError):
        cp.honest_quantum_prover(strat).round2(0, PauliKey.identity(2), rng)


def test_round1_question_sets_are_sampled_from_the_context():
    rng = np.random.default_rng(34)
    game, _ = games.kcbs()
    positions = []
    for _ in range(600):
        state = cp.CompiledVerifier(game, "1-1", 4, rng)
        ctx = game.contexts[state.ctx_index]
        q1 = state.round1_questions[0]
        assert q1 in ctx
        positions.append(ctx.index(q1))
    assert abs(np.mean(positions) - 0.5) < 0.07

    ms, _ = games.magic_square()
    for _ in range(30):
        state = cp.CompiledVerifier(ms, "cm1-1", 4, rng)
        ctx = ms.contexts[state.ctx_index]
        assert len(state.round1_questions) == 2
        assert state.round1_questions == tuple(
            q for i, q in enumerate(ctx) if i != state.skip_pos)
        state = cp.CompiledVerifier(ms, "c-1", 4, rng)
        assert state.round1_questions == ms.contexts[state.ctx_index]


def test_round2_question_always_in_the_context():
    rng = np.random.default_rng(35)
    game, strat = games.kcbs()
    prover = cp.honest_quantum_prover(strat)
    for kind in ("1-1", "c-1", "cm1-1"):
        for _ in range(25):
            state = cp.CompiledVerifier(game, kind, 4, rng)
            m1 = state.message1
            q, _ = state.message3(prover.round1(m1, rng))
            assert q in game.contexts[state.ctx_index]


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=8, max_value=12))
def test_index_bit_codec_roundtrip(value, width):
    bits = bits_of(value, width)
    assert len(bits) == width
    assert int_of(bits) == value


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_selection_circuit_multiplexes(data):
    n_inputs = data.draw(st.integers(min_value=1, max_value=4))
    out_width = data.draw(st.integers(min_value=1, max_value=4))
    universe = list(range(2 ** n_inputs))
    keys = data.draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
    rows = {k: tuple(data.draw(st.integers(0, 1)) for _ in range(out_width))
            for k in keys}
    circuit = cp._selection_circuit(n_inputs, rows, out_width)
    for k, bits in rows.items():
        assert circuit.run_plain(bits_of(k, n_inputs)) == bits


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_selection_circuit_ands_are_live_prefixes(data):
    n_inputs = data.draw(st.integers(min_value=1, max_value=5))
    out_width = data.draw(st.integers(min_value=1, max_value=4))
    keys = data.draw(st.lists(st.sampled_from(range(2 ** n_inputs)), min_size=1, unique=True))
    rows = {k: tuple(data.draw(st.integers(0, 1)) for _ in range(out_width))
            for k in keys}
    circuit = cp._selection_circuit(n_inputs, rows, out_width)
    live = [bits_of(k, n_inputs) for k, bits in rows.items() if any(bits)]
    prefixes = {bits[:n] for bits in live for n in range(2, n_inputs + 1)}
    assert sum(g[0] == "and" for g in circuit.gates) <= len(prefixes)
    zero_columns = sum(not any(bits[pos] for bits in rows.values()) for pos in range(out_width))
    assert sum(g[0] == "const" for g in circuit.gates) == zero_columns


def test_magic_square_cm1_1_table_circuit_has_no_and():
    game, _ = games.magic_square()
    _, table = nc_value_with_table(game)
    circuit = cp.truthtable_prover(table)._circuit_for(game, CompilerKind.ALL_BUT_ONE)
    assert [g[0] for g in circuit.gates] == ["const", "const"]


def test_honest_round2_matches_the_conjugated_observable():
    # The form round 2 replaced: measure U_k M U_k^dagger on the held state.
    rng = np.random.default_rng(41)
    for game, strat in (games.kcbs(), games.chsh(), games.magic_square()):
        emb = games.embed_in_qubits(strat, game.answers[0])
        n = emb.psi.num_registers
        targets = list(range(n))
        prover = cp.honest_quantum_prover(strat)
        prover._embed_for(game)
        for bits in itertools.product((0, 1), repeat=2 * n):
            key = PauliKey.from_bits(bits)
            u = pad_matrix(key)
            for q in game.questions:
                amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
                held = StateVector((2,) * n, amps / np.linalg.norm(amps))
                seed = int(rng.integers(2 ** 32))
                old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                conjugated = Observable(u @ emb.observables[q].matrix @ u.conj().T)
                value, expected = measure_observable(held, conjugated, targets, old_rng)
                prover.held_state = held
                assert prover.round2(q, key, new_rng) == emb.answer_for(game, value)
                assert equal_up_to_global_phase(prover.held_state, expected, 1e-9)
                assert old_rng.bit_generator.state == new_rng.bit_generator.state


def test_answer_decoding_rejects_malformed_payloads():
    game = ContextualityGame(
        questions=(0, 1),
        answers=(0, 1, 2),
        contexts=((0, 1),),
        context_weights=(Fraction(1),),
        accepts={0: frozenset({(0, 0)})},
    )
    with pytest.raises(ValueError, match="wrong width"):
        cp._decode_answers(game, (0, 1, 0), 1)
    with pytest.raises(ValueError, match="outside the label set"):
        cp._decode_answers(game, (1, 1), 1)
    assert cp._decode_answers(game, (1, 0), 1) == (2,)


def test_message3_rejects_wrong_widths():
    rng = np.random.default_rng(36)
    game, strat = games.kcbs()
    prover = cp.honest_quantum_prover(strat)
    donor = cp.CompiledVerifier(game, "c-1", 4, rng)
    m1 = donor.message1
    m2 = prover.round1(m1, rng)
    other = cp.CompiledVerifier(game, "cm1-1", 4, rng)
    with pytest.raises(ValueError, match="wrong width"):
        other.message3(m2)
    short_pad = qfhe.enc_classical(donor.fhe_sk.handle(), (0, 1), rng)
    with pytest.raises(ValueError, match="pad key widths"):
        donor.message3(cp.Message2(m2.answer_cipher, short_pad, m2.pad_string))


def test_key_composition_is_componentwise_xor():
    rng = np.random.default_rng(37)
    game, strat = games.magic_square()
    prover = cp.honest_quantum_prover(strat)
    state = cp.CompiledVerifier(game, "c-1", 5, rng)
    m1 = state.message1
    m2 = prover.round1(m1, rng)
    _, k = state.message3(m2)
    k_prime = opad.dec(state.opad_keys.sk, m2.pad_string, state.oracle)
    k_dbl = PauliKey.from_bits(qfhe.dec_classical(state.fhe_sk, m2.pad_cipher))
    assert k == k_prime ^ k_dbl
    u = pad_matrix(k)
    composed = pad_matrix(k_dbl) @ pad_matrix(k_prime)
    ratio = composed @ u.conj().T
    assert np.allclose(ratio, ratio[0, 0] * np.eye(4), atol=1e-12)
    assert abs(abs(ratio[0, 0]) - 1) < 1e-12


def test_pad_key_from_samp_is_uniform_after_oracle_averaging():
    rng = np.random.default_rng(38)
    keys = opad.gen(6, rng)
    half = Fraction(1, 2)
    for y in range(64):
        x0, x1 = tcf.public_claw(keys.pk, y)
        delta = x0 ^ x1
        assert delta != 0
        ones = sum(tcf.dot_bits(d, delta) for d in range(1, 64))
        assert ones == 32
        # the claw points are distinct, so their oracle bits xor to a
        # uniform bit and the slot's key bit averages to exactly 1/2
        p_one = half * Fraction(ones, 63) + half * Fraction(63 - ones, 63)
        assert p_one == half


def test_held_state_matches_padded_post_measurement_state():
    rng = np.random.default_rng(39)
    game, strat = games.magic_square()
    emb = games.embed_in_qubits(strat, game.answers[0])
    targets = list(range(emb.psi.num_registers))
    for kind in ("c-1", "cm1-1"):
        for _ in range(8):
            prover = cp.honest_quantum_prover(strat)
            state = cp.CompiledVerifier(game, kind, 5, rng)
            m1 = state.message1
            _, k = state.message3(prover.round1(m1, rng))
            psi = emb.psi
            for q, a in zip(state.round1_questions, state.answers1):
                for val, _, post in branch_measure(psi, emb.observables[q], targets):
                    if post is not None and abs(val - a) < 1e-6:
                        psi = post
                        break
            expected = apply_pauli_pad(psi, k, targets)
            assert equal_up_to_global_phase(prover.held_state, expected, tol=1e-9)


def test_context_measurement_order_is_irrelevant():
    game, strat = games.magic_square()
    emb = games.embed_in_qubits(strat, game.answers[0])
    targets = list(range(emb.psi.num_registers))
    for ci, ctx in enumerate(game.contexts):
        forward = games.context_answer_distribution(game, emb, ci)
        backward = {}

        def walk(state, prefix, prob, remaining):
            if not remaining:
                backward[prefix[::-1]] = backward.get(prefix[::-1], 0.0) + prob
                return
            obs = emb.observables[remaining[-1]]
            for val, p, post in branch_measure(state, obs, targets):
                if post is not None:
                    walk(post, prefix + (emb.answer_for(game, val),), prob * p,
                         remaining[:-1])

        walk(emb.psi, (), 1.0, ctx)
        assert set(forward) >= {k for k, v in backward.items() if v > 1e-12}
        for key, p in forward.items():
            assert abs(p - backward.get(key, 0.0)) < 1e-9


def test_honest_one_one_kcbs_rate():
    rng = np.random.default_rng(40)
    game, strat = games.kcbs()
    rate, stderr = cp.estimate_win_rate(game, "1-1", cp.honest_quantum_prover(strat),
                                        4000, rng, lam=6)
    target = (1 + 2 / math.sqrt(5)) / 2
    assert abs(rate - target) <= three_sigma(target, 4000)
    assert abs(stderr - math.sqrt(rate * (1 - rate) / 4000)) < 1e-12


def test_honest_one_one_chsh_rate():
    rng = np.random.default_rng(41)
    game, strat = games.chsh()
    rate, _ = cp.estimate_win_rate(game, "1-1", cp.honest_quantum_prover(strat),
                                   4000, rng, lam=6)
    target = (1 + math.cos(math.pi / 8) ** 2) / 2
    assert abs(rate - target) <= three_sigma(target, 4000)


def test_honest_full_context_magic_square_is_exact():
    rng = np.random.default_rng(42)
    game, strat = games.magic_square()
    prover = cp.honest_quantum_prover(strat)
    for kind in ("c-1", "cm1-1"):
        rate, _ = cp.estimate_win_rate(game, kind, prover, 1200, rng, lam=6)
        assert rate == 1.0


def test_truthtable_one_one_kcbs_rate():
    rng = np.random.default_rng(43)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    rate, _ = cp.estimate_win_rate(game, "1-1", cp.truthtable_prover(table),
                                   4000, rng, lam=6)
    assert abs(rate - 0.9) <= three_sigma(0.9, 4000)


def test_truthtable_consistency_branch_always_accepted():
    rng = np.random.default_rng(44)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    prover = cp.truthtable_prover(table)
    seen = 0
    for _ in range(300):
        accept, state = cp.run_session(game, "1-1", prover, rng, lam=4)
        if state.question == state.round1_questions[0]:
            seen += 1
            assert accept
    assert seen > 50


def test_truthtable_one_one_takes_a_question_in_no_context():
    # the multiplexer has a row for every question, asked or not
    rng = np.random.default_rng(58)
    game = ContextualityGame(
        questions=(0, 1, 2), answers=(0, 1), contexts=((0, 1),),
        context_weights=(Fraction(1),), accepts={0: frozenset({(0, 1)})},
    )
    prover = cp.truthtable_prover(games.Assignment({0: 0, 1: 1, 2: 0}))
    rate, _ = cp.estimate_win_rate(game, "1-1", prover, 50, rng, lam=4)
    assert rate == 1.0


def test_truthtable_round2_ignores_the_key():
    rng = np.random.default_rng(45)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    prover = cp.truthtable_prover(table)
    for q in game.questions:
        answers = {prover.round2(q, PauliKey.uniform(1, rng), rng) for _ in range(8)}
        answers.add(prover.round2(q, PauliKey.identity(1), rng))
        assert answers == {table(q)}


def test_truthtable_all_but_one_magic_square_rate():
    rng = np.random.default_rng(46)
    ms, _ = games.magic_square()
    _, table = nc_value_with_table(ms)
    rate, _ = cp.estimate_win_rate(ms, "cm1-1", cp.truthtable_prover(table),
                                   4000, rng, lam=6)
    assert abs(rate - 17 / 18) <= three_sigma(17 / 18, 4000)


def test_feasible_inconsistent_kcbs_beats_the_quantum_value():
    rng = np.random.default_rng(47)
    game, strat = games.kcbs()
    prover = cp.feasible_inconsistent_prover(game)
    assert prover.analytic_rate == Fraction(9, 10)
    assert float(prover.analytic_rate) > quantum_value_of(game, strat)
    rate, _ = cp.estimate_win_rate(game, "c-1", prover, 4000, rng, lam=6)
    assert abs(rate - 0.9) <= three_sigma(0.9, 4000)


def test_feasible_inconsistent_magic_square_rate():
    rng = np.random.default_rng(48)
    ms, _ = games.magic_square()
    prover = cp.feasible_inconsistent_prover(ms)
    assert prover.analytic_rate == Fraction(17, 18)
    rate, _ = cp.estimate_win_rate(ms, "c-1", prover, 3000, rng, lam=6)
    assert rate <= 1 - Fraction(1, 18) + 0.01 + three_sigma(17 / 18, 3000)


def test_feasible_inconsistent_mismatch_frequency_matches_prediction():
    rng = np.random.default_rng(49)
    game, _ = games.kcbs()
    prover = cp.feasible_inconsistent_prover(game)
    assert prover.predicted_mismatch == Fraction(1, 10)
    misses = 0
    trials = 4000
    for _ in range(trials):
        accept, state = cp.run_session(game, "c-1", prover, rng, lam=6)
        assert state.predicate_ok
        misses += int(not state.consistency_ok)
        assert accept == state.consistency_ok
    assert abs(misses / trials - 0.1) <= three_sigma(0.1, trials)


def test_feasible_inconsistent_targets_the_all_one_kind():
    rng = np.random.default_rng(50)
    game, _ = games.kcbs()
    prover = cp.feasible_inconsistent_prover(game)
    m1 = cp.CompiledVerifier(game, "1-1", 4, rng).message1
    with pytest.raises(ValueError, match="c-1"):
        prover.round1(m1, rng)


def test_theorem_formula_consistency_honest():
    rng = np.random.default_rng(51)
    trials = 1200
    rows = []
    for game, strat in (games.kcbs(), games.chsh()):
        rows += [(game, strat, "1-1"), (game, strat, "c-1"), (game, strat, "cm1-1")]
    ms = games.magic_square()
    rows += [(ms[0], ms[1], "c-1"), (ms[0], ms[1], "cm1-1")]
    for game, strat, kind in rows:
        target = cp.spec_of(kind).completeness(game, quantum_value_of(game, strat))
        prover = cp.honest_quantum_prover(strat)
        rate, _ = cp.estimate_win_rate(game, kind, prover, trials, rng, lam=6)
        assert abs(rate - target) <= three_sigma(target, trials) + 0.005, (kind, rate, target)


def test_theorem_formula_consistency_classical():
    rng = np.random.default_rng(52)
    trials = 1200
    specs = []
    for game, _ in (games.kcbs(), games.chsh()):
        _, table = nc_value_with_table(game)
        specs += [
            (game, "1-1", cp.truthtable_prover(table)),
            (game, "c-1", cp.feasible_inconsistent_prover(game)),
            (game, "cm1-1", cp.truthtable_prover(table)),
        ]
    ms, _ = games.magic_square()
    _, ms_table = nc_value_with_table(ms)
    specs += [
        (ms, "c-1", cp.feasible_inconsistent_prover(ms)),
        (ms, "cm1-1", cp.truthtable_prover(ms_table)),
    ]
    for game, kind, prover in specs:
        bound = float(cp.spec_of(kind).soundness(game))
        rate, _ = cp.estimate_win_rate(game, kind, prover, trials, rng, lam=6)
        assert rate <= bound + three_sigma(bound, trials) + 0.005, (kind, rate, bound)


def test_soundness_formula_values():
    kcbs, _ = games.kcbs()
    ms, _ = games.magic_square()
    chsh, _ = games.chsh()
    assert cp.spec_of("1-1").soundness(kcbs) == Fraction(9, 10)
    assert cp.spec_of("c-1").soundness(kcbs) == Fraction(9, 10)
    assert cp.spec_of("cm1-1").soundness(kcbs) == Fraction(9, 10)
    assert cp.spec_of("c-1").soundness(ms) == Fraction(17, 18)
    assert cp.spec_of("cm1-1").soundness(ms) == Fraction(17, 18)
    assert cp.spec_of("1-1").soundness(chsh) == Fraction(7, 8)
    assert cp.theorem_bounds(ms, "c-1")["soundness_bound"] == pytest.approx(17 / 18)
    report = cp.theorem_bounds(kcbs, "1-1", quantum_value=2 / math.sqrt(5))
    assert report["completeness_bound"] == pytest.approx((1 + 2 / math.sqrt(5)) / 2)
    assert "nc_value" in report["soundness_formula"]


def test_decision_faithfulness_across_kinds():
    rng = np.random.default_rng(53)
    kcbs, _ = games.kcbs()
    ms, _ = games.magic_square()
    _, kcbs_table = nc_value_with_table(kcbs)
    _, ms_table = nc_value_with_table(ms)
    jobs = [(kcbs, "1-1", kcbs_table), (kcbs, "c-1", kcbs_table),
            (kcbs, "cm1-1", kcbs_table), (ms, "c-1", ms_table),
            (ms, "cm1-1", ms_table)]
    for game, kind, table in jobs:
        assert cp.decision_faithfulness_check(game, kind, table, 250, rng, lam=5)


def test_decision_faithfulness_negative_control():
    rng = np.random.default_rng(54)
    kcbs, _ = games.kcbs()
    ms, _ = games.magic_square()
    _, kcbs_table = nc_value_with_table(kcbs)
    _, ms_table = nc_value_with_table(ms)
    for game, kind, table in ((kcbs, "1-1", kcbs_table), (ms, "c-1", ms_table),
                              (ms, "cm1-1", ms_table)):
        with consistency_rejected():
            assert not cp.decision_faithfulness_check(game, kind, table, 250, rng, lam=5)


def test_estimate_win_rate_validates_trials():
    rng = np.random.default_rng(55)
    game, strat = games.kcbs()
    with pytest.raises(ValueError):
        cp.estimate_win_rate(game, "1-1", cp.honest_quantum_prover(strat), 0, rng)


def test_transcripts_serialize_and_recompute():
    rng = np.random.default_rng(56)
    game, strat = games.kcbs()
    prover = cp.honest_quantum_prover(strat)
    for kind in ("1-1", "c-1", "cm1-1"):
        log = []
        cp.estimate_win_rate(game, kind, prover, 5, rng, lam=5, on_transcript=log.append)
        assert len(log) == 5
        for t in log:
            body = json.loads(json.dumps(t.as_dict()))
            assert body["kind"] == kind
            for slot in ("t1_question_cipher", "t2_opad_pk", "t3_answer_cipher",
                         "t4_pad_cipher", "t5_pad_string", "t6_question",
                         "t7_key", "t8_answer"):
                assert slot in body
            assert body["accept"] in (True, False)


def test_recompute_decision_matches_and_detects_tampering():
    rng = np.random.default_rng(57)
    kcbs, kcbs_strat = games.kcbs()
    ms, ms_strat = games.magic_square()
    for game, strat, kind in ((kcbs, kcbs_strat, "1-1"), (ms, ms_strat, "c-1"),
                              (ms, ms_strat, "cm1-1")):
        prover = cp.honest_quantum_prover(strat)
        for _ in range(6):
            accept, state = cp.run_session(game, kind, prover, rng, lam=5)
            t = state.transcript()
            again = cp.recompute_decision(game, t, state.fhe_sk,
                                          state.opad_keys, state.oracle)
            assert again == accept
        keys = (state.fhe_sk, state.opad_keys, state.oracle)
        tampered = dataclasses.replace(t, key=t.key ^ PauliKey.from_bits((1, 0, 0, 0)))
        with pytest.raises(ValueError, match="key disagrees"):
            cp.recompute_decision(game, tampered, *keys)
        # a context sharing no question with round 1 cannot be the sampled one
        other = next(i for i, ctx in enumerate(game.contexts)
                     if not set(ctx) & set(state.round1_questions))
        with pytest.raises(ValueError, match="context disagrees with the t1 payload"):
            cp.recompute_decision(game, dataclasses.replace(t, ctx_index=other), *keys)
        # nor can any other context, unless it holds both the round-1 input and
        # the round-2 question: then the transcript fits it as well
        spec, plan = cp.spec_of(kind), cp.plan_of(game, kind)
        value = plan.inputs[plan.decode(
            qfhe.dec_classical(state.fhe_sk, t.message1.question_cipher))]
        for i in range(len(game.contexts)):
            if i == t.ctx_index:
                continue
            relabelled = dataclasses.replace(t, ctx_index=i)
            if value in spec.context_inputs(game, i) and t.question in game.contexts[i]:
                cp.recompute_decision(game, relabelled, *keys)  # raises nothing
                continue
            with pytest.raises(ValueError, match="disagrees|outside its context"):
                cp.recompute_decision(game, relabelled, *keys)
        if kind == "cm1-1":
            moved = (t.skip_pos + 1) % len(game.contexts[t.ctx_index])
            with pytest.raises(ValueError, match="skip position disagrees"):
                cp.recompute_decision(game, dataclasses.replace(t, skip_pos=moved), *keys)


def _compilable_table(game, kind):
    """The game's optimal table, when the kind and the table prover take the game."""
    spec = cp.spec_of(kind)
    try:
        spec.check(game)
    except ValueError:
        return None
    if len({len(spec.questions(game, v)) for v in spec.inputs(game)}) != 1:
        return None
    return nc_value_with_table(game)[1]


@pytest.mark.parametrize("kind", ["1-1", "c-1", "cm1-1"])
@settings(max_examples=40, deadline=None)
@given(game=st.one_of(random_games(), random_games(context_size=2)),
       lam=st.integers(3, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_recompute_decision_agrees_on_random_games(kind, game, lam, seed):
    table = _compilable_table(game, kind)
    assume(table is not None)
    rng = np.random.default_rng(seed)
    prover = cp.truthtable_prover(table)
    for _ in range(6):
        accept, state = cp.run_session(game, kind, prover, rng, lam=lam)
        t = state.transcript()
        keys = (state.fhe_sk, state.opad_keys, state.oracle)
        assert cp.recompute_decision(game, t, *keys) == accept
        if t.question in state.round1_questions:
            # a round-2 answer that contradicts round 1 is never accepted
            for other in game.answers:
                if other != t.answer:
                    contradicted = dataclasses.replace(t, answer=other)
                    assert cp.recompute_decision(game, contradicted, *keys) is False


@pytest.mark.parametrize("kind", ["1-1", "c-1", "cm1-1"])
@settings(max_examples=40, deadline=None)
@given(game=st.one_of(random_games(), random_games(context_size=2)),
       lam=st.integers(3, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_decision_faithfulness_on_random_games(kind, game, lam, seed):
    table = _compilable_table(game, kind)
    assume(table is not None)
    trials = 12
    assert cp.decision_faithfulness_check(game, kind, table, trials,
                                          np.random.default_rng(seed), lam=lam)
    # The same draws again: the negative control must bite exactly when some
    # accepted session re-asked a round-1 question.
    rng = np.random.default_rng(seed)
    prover = cp.truthtable_prover(table)
    sessions = [cp.run_session(game, kind, prover, rng, lam=lam) for _ in range(trials)]
    bites = any(accept and state.question in state.round1_questions
                for accept, state in sessions)
    with consistency_rejected():
        sabotaged = cp.decision_faithfulness_check(game, kind, table, trials,
                                                   np.random.default_rng(seed), lam=lam)
    assert sabotaged is not bites


RULES = ("check", "inputs", "context_inputs", "skip_pos", "questions", "encode")


def test_spec_rules_run_only_while_the_plan_is_built(monkeypatch):
    """Scalar sessions, batched rows, recompute_decision and extraction read
    the plan; the spec's rule functions run once per (game, kind), in the
    plan builder."""
    game, strategy = games.kcbs()
    _, table = nc_value_with_table(game)
    building, calls, builds = [False], [], []
    for kind, spec in list(cp.SPECS.items()):
        def wrapped(rule, name):
            def call(*args):
                calls.append((name, building[0]))
                return rule(*args)
            return call
        monkeypatch.setitem(cp.SPECS, kind, dataclasses.replace(
            spec, **{name: wrapped(getattr(spec, name), name) for name in RULES}))
    build = cp.KindPlan.__init__

    def spy(self, game, spec):
        builds.append(spec.kind)
        building[0] = True
        try:
            build(self, game, spec)
        finally:
            building[0] = False

    monkeypatch.setattr(cp.KindPlan, "__init__", spy)
    rng = np.random.default_rng(80)
    honest = cp.honest_quantum_prover(strategy)
    for kind in CompilerKind:
        for _ in range(50):
            _, state = cp.run_session(game, kind, honest, rng, lam=4)
        keys = (state.fhe_sk, state.opad_keys, state.oracle)
        cp.recompute_decision(game, state.transcript(), *keys)
        for prover in (honest, cp.truthtable_prover(table)):
            cp.estimate_win_rate(game, kind, prover, 20, rng, lam=4)
        rd.extract_truthtable(rd.CipherPeekingProver(game, kind), game, kind,
                              cp.round1_inputs(game, kind)[-1], 4, rng)
    assert builds == list(CompilerKind)
    assert {name for name, _ in calls} == set(RULES)
    assert all(inside for _, inside in calls)


def assert_plan_inverts_its_encoding(game, kind):
    plan = cp.plan_of(game, kind)
    width = plan.payloads.shape[1]
    for i, value in enumerate(plan.inputs):
        assert plan.decode(plan.payload(value)) == i
        assert plan.payload(value) == bits_of(plan.codes[i], width)
    for code in sorted(set(range(1 << width)) - set(plan.codes)):
        with pytest.raises(ValueError, match="encodes no"):
            plan.decode(bits_of(code, width))
    with pytest.raises(ValueError, match="encodes no"):
        plan.decode((0,) * (width + 1))


@pytest.mark.parametrize("name,kind", [(g, k) for g in ("kcbs", "chsh", "magic-square")
                                       for k in ("1-1", "c-1", "cm1-1")
                                       if (g, k) != ("magic-square", "1-1")])
def test_plan_decode_inverts_the_encoding_on_builtin_games(name, kind):
    game, _ = cli.BUILTIN_GAMES[name]()
    assert_plan_inverts_its_encoding(game, kind)
    assert cp.plan_of(game, kind) is cp.plan_of(game, CompilerKind(kind))


@pytest.mark.parametrize("kind", ["1-1", "c-1", "cm1-1"])
@settings(max_examples=30, deadline=None)
@given(game=st.one_of(random_games(), random_games(context_size=2)))
def test_plan_decode_inverts_the_encoding_on_random_games(kind, game):
    try:
        cp.plan_of(game, kind)
    except ValueError:
        assume(False)
    assert_plan_inverts_its_encoding(game, kind)


@pytest.mark.parametrize("name,kind,value", [
    ("magic-square", "c-1", 9), ("magic-square", "c-1", -1),
    ("magic-square", "cm1-1", (1, 5)), ("magic-square", "cm1-1", (6, 0)),
    ("kcbs", "1-1", 5), ("kcbs", "1-1", "0")])
def test_round1_message_refuses_inputs_the_kind_has_not(name, kind, value):
    game, _ = cli.BUILTIN_GAMES[name]()
    rng = np.random.default_rng(81)
    sk, keys = qfhe.gen(rng), opad.gen(4, rng)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="round-1 input"):
        cp.round1_message(game, kind, value, sk, keys.pk, opad.PhaseOracle("hash", seed=1), rng)
    assert rng.bit_generator.state == before


def test_recompute_decision_refuses_payloads_that_encode_no_input():
    game, strategy = games.kcbs()
    rng = np.random.default_rng(82)
    prover = cp.honest_quantum_prover(strategy)
    _, state = cp.run_session(game, "1-1", prover, rng, lam=4)
    t, keys = state.transcript(), (state.fhe_sk, state.opad_keys, state.oracle)
    # five questions take three bits, so codes 5 to 7 ask none of them
    for code in (5, 6, 7):
        cipher = qfhe.enc_classical(state.fhe_sk, bits_of(code, 3), rng)
        forged = dataclasses.replace(t, message1=dataclasses.replace(t.message1,
                                                                     question_cipher=cipher))
        with pytest.raises(ValueError, match="encodes no 1-1 round-1 input"):
            cp.recompute_decision(game, forged, *keys)
    # under a wrong qfhe key every payload is garbage: refused, or decided
    wrong = qfhe.QfheSecretKey(state.fhe_sk.scheme, "0" * 32)
    for _ in range(40):
        _, state = cp.run_session(game, "1-1", prover, rng, lam=4)
        try:
            verdict = cp.recompute_decision(game, state.transcript(), wrong,
                                            state.opad_keys, state.oracle)
        except ValueError:
            continue
        assert verdict in (True, False)


@pytest.mark.parametrize("lam", [2, tcf.MAX_DOMAIN_BITS + 1])
def test_verifier_refuses_lambda_before_any_draw(lam):
    game, _ = games.kcbs()
    rng = np.random.default_rng(83)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="domain must have"):
        cp.CompiledVerifier(game, "1-1", lam, rng)
    with pytest.raises(ValueError, match="domain must have"):
        cp.estimate_win_rate(game, "1-1", cp.truthtable_prover(nc_value_with_table(game)[1]),
                             5, rng, lam=lam)
    assert rng.bit_generator.state == before
