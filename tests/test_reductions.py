"""Table extraction, the ciphertext-dependence reduction, and its warm-up."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ctxsim import compilers as cp
from ctxsim import games, opad, poq, qfhe, reductions as rd
from ctxsim.games import nc_value_with_table
from ctxsim.qsim import PauliKey


def three_sigma(p: float, n: int) -> float:
    return 3 * math.sqrt(p * (1 - p) / n) + 1e-12


@pytest.fixture
def qfhe_calls(monkeypatch):
    """The names of the qfhe ciphertext readers and of ceval, logged at
    each call."""
    calls = []
    for name in ("peek_bits", "leak_bits", "dec_classical", "ceval"):
        def record(*args, _name=name, _inner=getattr(qfhe, name)):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(qfhe, name, record)
    return calls


def fresh_message1(game, kind, value, lam, rng):
    sk = qfhe.gen(rng)
    keys = opad.gen(lam, rng)
    oracle = opad.PhaseOracle("hash", seed=11)
    return cp.round1_message(game, kind, value, sk.handle(), keys.pk, oracle, rng)


def test_trials_for_precision_schedule():
    assert rd.trials_for_precision(1.0) == 16
    assert rd.trials_for_precision(0.5) == 128
    assert rd.trials_for_precision(2.0) == 2
    with pytest.raises(ValueError):
        rd.trials_for_precision(0.0)
    with pytest.raises(ValueError):
        rd.trials_for_precision(2.5)


def test_extraction_recovers_a_truth_table_exactly():
    rng = np.random.default_rng(70)
    kcbs, _ = games.kcbs()
    ms, _ = games.magic_square()
    for game, kind, value in ((kcbs, "1-1", kcbs.questions[2]),
                              (kcbs, "cm1-1", (1, 0)),
                              (ms, "c-1", 3)):
        _, table = nc_value_with_table(game)
        extracted = rd.extract_truthtable(cp.truthtable_prover(table), game,
                                          kind, value, 5, rng)
        assert extracted.key() == table.key()


def test_extraction_rejects_non_replayable_provers():
    rng = np.random.default_rng(71)
    game, strat = games.kcbs()
    with pytest.raises(TypeError, match="replayable"):
        rd.extract_truthtable(cp.honest_quantum_prover(strat), game, "1-1",
                              game.questions[0], 5, rng)


def test_extraction_is_deterministic_under_a_seed():
    game, _ = games.kcbs()
    keys = []
    for _ in range(2):
        rng = np.random.default_rng(72)
        prover = rd.CipherPeekingProver(game, "1-1", leak_prob=0.5)
        keys.append(rd.extract_truthtable(prover, game, "1-1",
                                          game.questions[1], 5, rng).key())
    assert keys[0] == keys[1]


def test_extracted_tables_differ_across_leaked_inputs():
    rng = np.random.default_rng(73)
    game, _ = games.kcbs()
    prover = rd.CipherPeekingProver(game, "1-1", leak_prob=1.0)
    t0 = rd.extract_truthtable(prover, game, "1-1", game.questions[0], 5, rng)
    t1 = rd.extract_truthtable(prover, game, "1-1", game.questions[1], 5, rng)
    assert t0.key() == prover.table_for(0).key()
    assert t1.key() == prover.table_for(1).key()
    assert t0.key() != t1.key()


def test_extraction_never_touches_decryption_interfaces(qfhe_calls):
    rng = np.random.default_rng(74)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    m1 = fresh_message1(game, "1-1", game.questions[0], 5, rng)
    extracted = rd.extract_truthtable(cp.truthtable_prover(table), game, "1-1",
                                      game.questions[0], 5, rng, message1=m1)
    assert extracted.key() == table.key()
    assert "ceval" in qfhe_calls  # the homomorphic evaluation did run
    assert not {"peek_bits", "leak_bits", "dec_classical"} & set(qfhe_calls)

    # positive control: the white-box prover does peek
    qfhe_calls.clear()
    m1 = fresh_message1(game, "1-1", game.questions[0], 5, rng)
    rd.extract_truthtable(rd.CipherPeekingProver(game, "1-1"), game, "1-1",
                          game.questions[0], 5, rng, message1=m1)
    assert "peek_bits" in qfhe_calls


def test_distributions_are_point_masses_for_table_provers():
    rng = np.random.default_rng(75)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    dist = rd.estimate_table_distributions(cp.truthtable_prover(table), game,
                                           "1-1", game.questions[:3], 40, 5, rng)
    assert dist.trials == 40
    for value in game.questions[:3]:
        freqs = dist.frequencies(value)
        assert freqs == {table.key(): Fraction(1)}
        assert abs(float(sum(freqs.values())) - 1) < 1e-9
    assert dist.l1(game.questions[0], game.questions[1]) == 0


def test_distribution_estimate_meets_the_precision_schedule():
    rng = np.random.default_rng(76)
    game, _ = games.kcbs()
    prover = rd.CipherPeekingProver(game, "1-1", leak_prob=0.5)
    eps = 0.4
    trials = rd.trials_for_precision(eps)
    assert trials == 250
    dist = rd.estimate_table_distributions(prover, game, "1-1",
                                           game.questions[:2], trials, 5, rng)
    zero = Fraction(0)
    for value in game.questions[:2]:
        exact = prover.exact_distribution(value)
        seen = dist.frequencies(value)
        err = sum((abs(seen.get(k, zero) - exact.get(k, zero))
                   for k in set(seen) | set(exact)), zero)
        assert float(err) <= eps


def test_distribution_json_is_inspectable():
    rng = np.random.default_rng(77)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    dist = rd.estimate_table_distributions(cp.truthtable_prover(table), game,
                                           "cm1-1", [(0, 0), (0, 1)], 10, 5, rng)
    body = json.loads(dist.to_json())
    assert body["kind"] == "cm1-1"
    assert body["trials"] == 10
    assert [entry["input"] for entry in body["inputs"]] == [[0, 0], [0, 1]]
    for entry in body["inputs"]:
        assert abs(sum(row["frequency"] for row in entry["tables"]) - 1) < 1e-9


def test_build_distinguisher_needs_two_inputs():
    rng = np.random.default_rng(78)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    dist = rd.estimate_table_distributions(cp.truthtable_prover(table), game,
                                           "1-1", game.questions[:1], 5, 5, rng)
    with pytest.raises(ValueError, match="two round-1 inputs"):
        rd.build_distinguisher(dist)


def test_identical_distributions_give_a_useless_plan():
    rng = np.random.default_rng(79)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    dist = rd.estimate_table_distributions(cp.truthtable_prover(table), game,
                                           "1-1", game.questions, 20, 5, rng)
    plan = rd.build_distinguisher(dist)
    assert plan.l1 == 0
    assert plan.useless
    assert plan.guess(table) == 0  # everything ties into side 0


def test_disjoint_point_masses_give_a_perfect_plan():
    rng = np.random.default_rng(80)
    game, _ = games.kcbs()
    prover = rd.CipherPeekingProver(game, "1-1", leak_prob=1.0)
    dist = rd.estimate_table_distributions(prover, game, "1-1",
                                           game.questions, 30, 5, rng)
    plan = rd.build_distinguisher(dist)
    assert plan.l1 == 2
    assert not plan.useless
    assert not plan.t0 & plan.t1
    p0 = dist.frequencies(plan.input0)
    p1 = dist.frequencies(plan.input1)
    zero = Fraction(0)
    for key in set(p0) | set(p1):
        side0 = p0.get(key, zero) >= p1.get(key, zero)
        assert (key in plan.t0) == side0
        assert (key in plan.t1) == (not side0)
    assert plan.guess(prover.table_for(0)) != plan.guess(prover.table_for(1))


def test_advantage_identity_for_white_box_provers():
    rng = np.random.default_rng(81)
    game, _ = games.kcbs()
    trials = 4000
    for leak_prob in (1.0, 0.5, 0.3):
        prover = rd.CipherPeekingProver(game, "1-1", leak_prob=leak_prob)
        rate, plan = rd.run_a2_reduction(prover, game, "1-1", trials, 6, rng,
                                         phase1_trials=200)
        predicted = 0.5 + float(prover.exact_l1(plan.input0, plan.input1)) / 4
        assert predicted == pytest.approx(0.5 + leak_prob / 2)
        assert abs(rate - predicted) <= three_sigma(predicted, trials) + 0.005
        assert rate >= 0.5 + 0.1


def test_question_independent_prover_stays_at_one_half():
    rng = np.random.default_rng(82)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    rate, _ = rd.run_a2_reduction(cp.truthtable_prover(table), game, "1-1",
                                  3000, 6, rng, phase1_trials=100)
    assert abs(rate - 0.5) <= three_sigma(0.5, 3000) + 0.005


def test_reduction_rate_survives_the_leaky_backend():
    game, _ = games.kcbs()
    rates = {}
    for backend in ("stub", "leaky"):
        rng = np.random.default_rng(83)
        prover = rd.CipherPeekingProver(game, "1-1", leak_prob=0.5)
        rates[backend], _ = rd.run_a2_reduction(prover, game, "1-1", 3000, 6, rng,
                                                fhe_backend=backend, phase1_trials=200)
    for rate in rates.values():
        assert abs(rate - 0.75) <= three_sigma(0.75, 3000) + 0.005
    assert abs(rates["stub"] - rates["leaky"]) < 0.05


def test_reduction_works_for_full_context_kinds():
    rng = np.random.default_rng(84)
    ms, _ = games.magic_square()
    prover = rd.CipherPeekingProver(ms, "c-1", leak_prob=1.0)
    rate, _ = rd.run_a2_reduction(prover, ms, "c-1", 1500, 6, rng, phase1_trials=60)
    assert rate == 1.0
    kcbs, _ = games.kcbs()
    prover = rd.CipherPeekingProver(kcbs, "cm1-1", leak_prob=1.0)
    rate, _ = rd.run_a2_reduction(prover, kcbs, "cm1-1", 1500, 6, rng, phase1_trials=60)
    assert rate == 1.0


KCBS, _ = games.kcbs()
SCALAR_GAMES = {
    "run_protocol": lambda trials, rng: poq.run_protocol(poq.honest(), trials, rng),
    "rewind_experiment": lambda trials, rng: poq.rewind_experiment(
        poq.classical("zero-echo"), trials, rng),
    "security_game": lambda trials, rng: opad.security_game(opad.RandomGuessProver, trials, rng),
    "twoind_game": lambda trials, rng: qfhe.twoind_game(
        lambda h, c, r: 0, (0, 0), (1, 1), trials, rng),
    "dind_prime_game": lambda trials, rng: rd.dind_prime_game(
        lambda h, c, r: 0, [(0,), (1,)], (0.5, 0.5), trials, rng),
    "run_a2_reduction": lambda trials, rng: rd.run_a2_reduction(
        rd.CipherPeekingProver(KCBS, "1-1"), KCBS, "1-1", trials, 4, rng, phase1_trials=5),
}


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("name", sorted(SCALAR_GAMES))
def test_scalar_games_refuse_a_non_positive_trial_count_before_any_draw(name, trials):
    rng = np.random.default_rng(86)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="trials must be positive"):
        SCALAR_GAMES[name](trials, rng)
    assert rng.bit_generator.state == before


def test_dind_prime_game_rates():
    rng = np.random.default_rng(85)
    msgs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    uniform = (0.25,) * 4

    rate = rd.dind_prime_game(lambda h, c, r: int(r.integers(4)), msgs, uniform,
                              4000, rng)
    assert abs(rate - 0.25) <= three_sigma(0.25, 4000) + 0.005

    skewed = (0.5, 0.2, 0.2, 0.1)
    rate = rd.dind_prime_game(lambda h, c, r: 0, msgs, skewed, 4000, rng)
    assert abs(rate - 0.5) <= three_sigma(0.5, 4000) + 0.005

    def leak_reader(handle, cipher, r):
        return msgs.index(tuple(qfhe.leak_bits(cipher)))

    rate = rd.dind_prime_game(leak_reader, msgs, uniform, 400, rng, backend="leaky")
    assert rate == 1.0


def test_dind_prime_game_refuses_a_message_that_is_not_bits_before_any_draw():
    rng = np.random.default_rng(87)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="payload must be bits, got 0.9"):
        rd.dind_prime_game(lambda h, c, r: int(qfhe.peek_bits(c) == (1,)),
                           [(0.9,), (1,)], (0.5, 0.5), 100, rng)
    assert rng.bit_generator.state == before


def test_dind_prime_game_validates_inputs():
    rng = np.random.default_rng(86)
    guesser = lambda h, c, r: 0
    with pytest.raises(ValueError, match="two candidate"):
        rd.dind_prime_game(guesser, [(0, 1)], (1.0,), 5, rng)
    with pytest.raises(ValueError, match="share a length"):
        rd.dind_prime_game(guesser, [(0, 1), (1,)], (0.5, 0.5), 5, rng)
    with pytest.raises(ValueError, match="distribution"):
        rd.dind_prime_game(guesser, [(0,), (1,)], (0.9, 0.2), 5, rng)


def test_cipher_peeking_prover_validates_and_predicts():
    game, _ = games.kcbs()
    with pytest.raises(ValueError):
        rd.CipherPeekingProver(game, "1-1", leak_prob=1.5)
    prover = rd.CipherPeekingProver(game, "1-1", leak_prob=0.25)
    q0, q1 = game.questions[0], game.questions[1]
    assert prover.exact_l1(q0, q1) == Fraction(1, 2)
    assert prover.exact_l1(q0, game.questions[2]) == 0
    dist = prover.exact_distribution(q0)
    assert sum(dist.values()) == 1
    assert dist[prover.table_for(0).key()] == Fraction(1, 4)


def test_reductions_refuse_foreign_games_and_inputs_before_any_draw():
    ms, _ = games.magic_square()
    prover = cp.truthtable_prover(nc_value_with_table(ms)[1])
    rng = np.random.default_rng(88)
    before = rng.bit_generator.state
    # the square's contexts hold three questions, which 1-1 refuses
    with pytest.raises(ValueError, match="uniform context size 2"):
        rd.CipherPeekingProver(ms, "1-1")
    with pytest.raises(ValueError, match="uniform context size 2"):
        rd.extract_truthtable(prover, ms, "1-1", ms.questions[0], 4, rng)
    with pytest.raises(ValueError, match="uniform context size 2"):
        rd.estimate_table_distributions(prover, ms, "1-1", ms.questions[:2], 5, 4, rng)
    # six contexts of three questions: no context 9 or -1, no skip position 5
    for kind, inputs in (("c-1", [0, 9]), ("c-1", [-1]), ("cm1-1", [(1, 5)])):
        with pytest.raises(ValueError, match="round-1 input"):
            rd.estimate_table_distributions(prover, ms, kind, inputs, 5, 4, rng)
        with pytest.raises(ValueError, match="round-1 input"):
            rd.extract_truthtable(prover, ms, kind, inputs[-1], 4, rng)
        with pytest.raises(ValueError, match="round-1 input"):
            rd.CipherPeekingProver(ms, kind).exact_distribution(inputs[-1])
    assert rng.bit_generator.state == before
