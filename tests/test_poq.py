"""Two-round quantumness test: honest rate, classical ceiling, rewinding."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ctxsim import opad, poq, qsim, tcf
from ctxsim.qsim import StateVector, equal_up_to_global_phase

HONEST = math.cos(math.pi / 8) ** 2


def test_verifier_enforces_message_order():
    rng = np.random.default_rng(0)
    v = poq.PoqVerifier(4, rng)
    with pytest.raises(RuntimeError):
        v.round2(0, 0, 0)
    with pytest.raises(RuntimeError):
        v.decide(0)
    v.round1()
    with pytest.raises(RuntimeError):
        v.round1()
    with pytest.raises(RuntimeError):
        v.decide(0)
    c = v.round2(0, 0, 0)
    assert c in (0, 1)
    with pytest.raises(RuntimeError):
        v.round2(0, 0, 0)
    v.decide(1)
    with pytest.raises(RuntimeError):
        v.decide(1)


def test_verifier_validates_commitment():
    rng = np.random.default_rng(1)
    for bad in [(2, 0, 0), (0, 8, 0), (0, 0, 16), (0, 0, -1)]:
        v = poq.PoqVerifier(4, rng)
        v.round1()
        with pytest.raises(ValueError):
            v.round2(*bad)
    v = poq.PoqVerifier(4, rng)
    v.round1()
    v.round2(1, 7, 15)
    with pytest.raises(ValueError):
        v.decide(2)


def test_transcript_roundtrip_and_gating():
    rng = np.random.default_rng(2)
    v = poq.PoqVerifier(4, rng)
    v.round1()
    with pytest.raises(RuntimeError):
        v.transcript()
    c = v.round2(1, 3, 9)
    v.decide(c)
    t = v.transcript()
    assert poq.PoqTranscript.from_json(t.to_json()) == t
    assert t.s == v.hidden_bit
    assert t.lam == 4


def check_honest_leftover_is_the_predicted_bb84_state(lam):
    # the committed qubit is |mu xor mu0(y)> when the key hides 1, and
    # |0> + (-1)^{d.(v0 xor v1)} |1> when it hides 0
    for path in ("circuit", "collapsed"):
        for s in (0, 1):
            rng = np.random.default_rng(10 + s)
            keys = tcf.gen(lam, hidden=s, rng=rng)
            n = keys.domain_bits
            for _ in range(25):
                prover = poq.HonestProver(keys.pk, rng, path=path)
                mu, d, y = prover.round1()
                x0, x1 = tcf.claw(keys.sk, y)
                if s == 1:
                    expected = StateVector.basis((2,), (mu ^ tcf.first_bit(x0, n),))
                else:
                    assert mu == tcf.first_bit(x0, n) == tcf.first_bit(x1, n)
                    sign = 1 - 2 * tcf.dot_bits(
                        d, tcf.trailing_bits(x0, n) ^ tcf.trailing_bits(x1, n))
                    expected = StateVector((2,), np.array([1.0, float(sign)]) / np.sqrt(2))
                assert equal_up_to_global_phase(StateVector((2,), prover.leftover), expected,
                                                tol=1e-10)


def test_honest_leftover_is_the_predicted_bb84_state():
    check_honest_leftover_is_the_predicted_bb84_state(5)


def test_honest_leftover_is_the_predicted_bb84_state_at_lambda_12():
    check_honest_leftover_is_the_predicted_bb84_state(12)


@pytest.mark.parametrize("lam", [3, 4, 5, 6])
def test_circuit_commitments_match_the_dense_reference(lam, dense_claw):
    keys = tcf.gen(lam, hidden=lam % 2, rng=np.random.default_rng(lam))
    for trial in range(20):
        prover = poq.HonestProver(keys.pk, np.random.default_rng(trial), path="circuit")
        commit = prover.round1()
        with dense_claw():
            ref = poq.HonestProver(keys.pk, np.random.default_rng(trial), path="circuit")
            ref_commit = ref.round1()
        assert commit == ref_commit
        assert np.allclose(prover.leftover, ref.leftover, rtol=0, atol=1e-12)
        assert prover.round2(trial % 2) == ref.round2(trial % 2)


def test_honest_commit_labels_look_uniform():
    rng = np.random.default_rng(12)
    keys = tcf.gen(4, hidden=1, rng=rng)
    mus, ds, ys = [], [], []
    for _ in range(10_000):
        prover = poq.HonestProver(keys.pk, rng)
        mu, d, y = prover.round1()
        mus.append(mu)
        ds.append(d)
        ys.append(y)
    assert abs(np.mean(mus) - 0.5) < 0.02
    for value in range(8):
        assert abs(ds.count(value) / 10_000 - 1 / 8) < 0.02
        assert abs(ys.count(value) / 10_000 - 1 / 16) < 0.02


def test_circuit_and_collapsed_commitments_agree_in_distribution():
    rng = np.random.default_rng(13)
    keys = tcf.gen(3, hidden=0, rng=rng)
    counts = {}
    runs = 8000
    for path in ("circuit", "collapsed"):
        tally = {}
        for _ in range(runs):
            prover = poq.HonestProver(keys.pk, rng, path=path)
            commit = prover.round1()
            tally[commit] = tally.get(commit, 0) + 1
        counts[path] = tally
    cells = set(counts["circuit"]) | set(counts["collapsed"])
    tv = sum(abs(counts["circuit"].get(cell, 0) - counts["collapsed"].get(cell, 0))
             for cell in cells) / (2 * runs)
    assert tv < 0.08


def test_honest_rate_collapsed_matches_cos_squared():
    rng = np.random.default_rng(14)
    rate, _ = poq.run_protocol(poq.honest(), 20_000, rng, lam=6)
    assert abs(rate - HONEST) < 0.011


def test_honest_rate_circuit_path():
    rng = np.random.default_rng(15)
    rate, _ = poq.run_protocol(poq.honest("circuit"), 1200, rng, lam=4)
    assert abs(rate - HONEST) < 0.035


def test_honest_prover_rejects_a_bad_path():
    rng = np.random.default_rng(16)
    ideal = tcf.gen(4, rng=rng)
    with pytest.raises(ValueError):
        poq.HonestProver(ideal.pk, rng, path="warp")


def test_circuit_prover_refuses_oversized_state_before_allocating(monkeypatch):
    # every lambda fits the real bound now, so lower it: the claw state at
    # lambda 12 needs 2 * 2^12 amplitudes
    monkeypatch.setattr(qsim, "MAX_AMPS", 1 << 12)
    rng = np.random.default_rng(17)
    prover = poq.HonestProver(tcf.gen(12, rng=rng).pk, rng, path="circuit")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_AMPS"):
            prover.round1()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_circuit_prover_runs_at_the_domain_bound():
    rng = np.random.default_rng(18)
    keys = tcf.gen(tcf.MAX_DOMAIN_BITS, hidden=1, rng=rng)
    prover = poq.HonestProver(keys.pk, rng, path="circuit")
    mu, d, y = prover.round1()
    x0, _ = tcf.claw(keys.sk, y)
    expected = StateVector.basis((2,), (mu ^ tcf.first_bit(x0, tcf.MAX_DOMAIN_BITS),))
    assert equal_up_to_global_phase(StateVector((2,), prover.leftover), expected, tol=1e-10)


def test_circuit_paths_read_every_target_list_through_a_view(monkeypatch):
    transposed = []
    blocks = qsim._blocks

    def spy(amps, dims, targets):
        arr, perm = blocks(amps, dims, targets)
        if perm is not None:
            transposed.append(list(targets))
        return arr, perm

    monkeypatch.setattr(qsim, "_blocks", spy)
    rng = np.random.default_rng(19)
    prover = poq.HonestProver(tcf.gen(5, rng=rng).pk, rng, path="circuit")
    prover.round1()
    prover.round2(1)
    keys = opad.gen(4, rng)
    state = StateVector((2, 2), np.array([0.5, 0.5, 0.5, -0.5]))
    opad.enc(keys.pk, state, [0, 1], opad.PhaseOracle("hash", seed=19), rng, path="circuit")
    assert transposed == []


def test_honest_round2_consumes_the_qubit():
    rng = np.random.default_rng(17)
    keys = tcf.gen(4, rng=rng)
    prover = poq.HonestProver(keys.pk, rng)
    with pytest.raises(RuntimeError):
        prover.round2(0)
    prover.round1()
    prover.round2(0)
    with pytest.raises(RuntimeError):
        prover.round2(1)


def test_classical_zoo_rates_are_exact_and_capped():
    rng = np.random.default_rng(18)
    for kind in poq.CLASSICAL_KINDS:
        factory = poq.classical(kind)
        analytic = factory(poq.PoqVerifier(4, rng), rng).analytic_rate
        assert analytic <= Fraction(3, 4)
        rate, _ = poq.run_protocol(factory, 20_000, rng, lam=6)
        assert abs(rate - float(analytic)) < 0.011, kind


def test_zero_echo_is_exactly_three_quarters_in_distribution():
    # conditioned on the hidden bit: accepts always at s = 0, coin at s = 1
    rng = np.random.default_rng(19)
    by_s = {0: [], 1: []}
    for _ in range(4000):
        v = poq.PoqVerifier(5, rng)
        p = poq.ZeroCommitEchoProver(v.pk, rng)
        v.round1()
        c = v.round2(*p.round1())
        by_s[v.hidden_bit].append(v.decide(p.round2(c)))
    assert np.mean(by_s[0]) == 1.0
    assert abs(np.mean(by_s[1]) - 0.5) < 0.04


def test_rewinding_meets_the_advantage_bound():
    rng = np.random.default_rng(20)
    for kind in poq.CLASSICAL_KINDS:
        factory = poq.classical(kind)
        analytic = float(factory(poq.PoqVerifier(4, rng), rng).analytic_rate)
        freq = poq.rewind_experiment(factory, 20_000, rng, lam=6)
        assert freq >= 2 * analytic - 1 - 0.03, kind


def test_rewinding_peeking_prover_is_tight():
    rng = np.random.default_rng(21)
    rate, _ = poq.run_protocol(poq.peeking(0.2), 20_000, rng, lam=6)
    assert abs(rate - 0.8) < 0.011
    freq = poq.rewind_experiment(poq.peeking(0.2), 20_000, rng, lam=6)
    assert abs(freq - 0.6) < 0.011
    assert freq >= 2 * rate - 1 - 0.03


def test_rewinding_full_cheat_recovers_the_bit_always():
    rng = np.random.default_rng(22)
    rate, _ = poq.run_protocol(poq.peeking(1.0), 2000, rng, lam=5)
    assert rate == 1.0
    assert poq.rewind_experiment(poq.peeking(1.0), 2000, rng, lam=5) == 1.0


def test_honest_rate_beats_every_classical_prover():
    rng = np.random.default_rng(23)
    honest_rate, _ = poq.run_protocol(poq.honest(), 20_000, rng, lam=6)
    assert honest_rate > poq.CLASSICAL_BOUND + 0.05


def test_transcripts_collected_when_requested():
    rng = np.random.default_rng(24)
    rate, transcripts = poq.run_protocol(poq.honest(), 50, rng, lam=4,
                                         keep_transcripts=True)
    assert len(transcripts) == 50
    assert abs(rate - np.mean([t.accepted for t in transcripts])) < 1e-12

