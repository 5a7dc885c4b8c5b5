"""Oblivious Pauli pad: round-trips, exact marginals, security game, extraction."""
import copy
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxsim import opad, qsim, tcf
from ctxsim.qsim import (
    H,
    PauliKey,
    StateVector,
    apply_pauli_pad,
    apply_unitary,
    equal_up_to_global_phase,
    measure_registers,
    register_distribution,
    remove_registers,
)


def random_state(dims, rng):
    amps = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return StateVector(dims, amps / np.linalg.norm(amps))


def fresh(lam, seed):
    rng = np.random.default_rng(seed)
    keys = opad.gen(lam, rng)
    oracle = opad.PhaseOracle("hash", seed=seed)
    return keys, oracle, rng


def test_phase_oracle_hash_is_deterministic():
    a = opad.PhaseOracle("hash", seed=7)
    b = opad.PhaseOracle("hash", seed=7)
    bits = [a.query(x) for x in range(40)]
    assert bits == [b.query(x) for x in range(40)]
    assert all(bit in (0, 1) for bit in bits)
    assert a.query(3) == a.query(3)
    assert 0 < sum(bits) < 40


@pytest.mark.parametrize("lam", [3, 8, 9, 12])
def test_chunk_bits_are_the_scalar_oracle_bits(lam):
    rng = np.random.default_rng(60 + lam)
    seeds = opad.hash_seeds(rng, 6)
    size = 1 << lam
    # each 256-point boundary in the domain, with its two neighbours
    edges = [p for b in range(256, size, 256) for p in (b - 1, b)]
    points = [np.column_stack([rng.integers(0, size, size=(6, 8)),
                               np.tile(edges + [0, size - 1], (6, 1))])
              for _ in range(2)]
    chunk = opad.PhaseOracleChunk(seeds, lam)
    for _ in range(2):  # the second call reads the digests of the first
        h0, h1 = chunk.bits(*points)
        for i, seed in enumerate(seeds.tolist()):
            oracle = opad.PhaseOracle("hash", seed=seed)
            assert h0[i].tolist() == list(oracle.bits(*points[0][i].tolist()))
            assert h1[i].tolist() == list(oracle.bits(*points[1][i].tolist()))


def test_hash_mode_reads_one_digest_per_block(monkeypatch):
    digests = []
    hash_block = opad.hash_block

    def counted(seed, block):
        digests.append((seed, block))
        return hash_block(seed, block)

    monkeypatch.setattr(opad, "hash_block", counted)
    oracle = opad.PhaseOracle("hash", seed=3)
    points = [5, 255, 256, 9, 700, 1023, 511, 5, 256]
    bits = oracle.bits(*points)
    assert sorted(digests) == [(3, 0), (3, 1), (3, 2), (3, 3)]
    # bit x mod 256 of the block's digest, little-endian within each byte
    for x, bit in zip(points, bits):
        digest = hash_block(3, x // 256)
        assert bit == digest[(x % 256) // 8] >> (x % 8) & 1
    digests.clear()
    opad.PhaseOracleChunk(np.array([3, 4]), 10).bits(np.array([[5, 300], [5, 5]]))
    assert sorted(digests) == [(3, 0), (3, 1), (4, 0)]


def test_hash_mode_bits_are_balanced():
    bits = opad.PhaseOracle("hash", seed=11).bits(*range(1 << 12))
    # 3 sigma of a fair coin over 2^12 bits is 96
    assert abs(sum(bits) - (1 << 11)) <= 96


def test_phase_oracle_lazy_logs_queries():
    oracle = opad.PhaseOracle("lazy", rng=np.random.default_rng(1))
    first = oracle.query(5)
    assert oracle.query(5) == first
    second = oracle.query(9)
    assert oracle.database == {5: first, 9: second}


def test_phase_oracle_validation():
    with pytest.raises(ValueError):
        opad.PhaseOracle("hash")
    with pytest.raises(ValueError):
        opad.PhaseOracle("lazy")
    with pytest.raises(ValueError):
        opad.PhaseOracle("table")


def test_opad_string_validation_and_json():
    s = opad.OpadString(((3, 10), (1, 15)), "pauli")
    again = opad.OpadString.from_json(json.dumps(s.as_dict()))
    assert again == s
    with pytest.raises(ValueError):
        opad.OpadString(((0, 4), (1, 1)))
    with pytest.raises(ValueError):
        opad.OpadString(((1, 4),), "pauli")
    with pytest.raises(ValueError):
        opad.OpadString(((1, 4),), "phases")


def test_opad_string_refuses_non_integers():
    for slot in ((1.5, 4), (1.0, 4), (1, 4.0), ("1", 4)):
        with pytest.raises(ValueError):
            opad.OpadString((slot, (1, 1)), "pauli")
    s = opad.OpadString(((np.int64(3), np.array(10)), (np.uint8(1), 15)), "pauli")
    assert s == opad.OpadString(((3, 10), (1, 15)), "pauli")
    assert all(type(v) is int for slot in s.slots for v in slot)


@given(st.lists(st.tuples(st.integers(1, 255), st.integers(0, 255)), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_opad_string_json_roundtrip_property(slots):
    s = opad.OpadString(tuple(slots), "bits")
    assert opad.OpadString.from_json(json.dumps(s.as_dict())) == s


def test_qubit_enc_applies_exactly_the_returned_key():
    keys, oracle, rng = fresh(4, 11)
    for _ in range(30):
        psi = random_state((2,), rng)
        out, (slot_x, slot_z), (x_bit, z_bit) = opad.qubit_enc(keys.pk, psi, 0, oracle, rng)
        expected = apply_pauli_pad(psi, PauliKey((x_bit,), (z_bit,)), [0])
        assert equal_up_to_global_phase(out, expected, tol=1e-10)
        # trapdoor route recomputes the same bits
        for (d, y), bit in ((slot_x, x_bit), (slot_z, z_bit)):
            x0, x1 = keys.sk.claw(y)
            assert bit == tcf.dot_bits(d, x0 ^ x1) ^ oracle.query(x0) ^ oracle.query(x1)
            assert d != 0


def check_roundtrip_both_paths_all_widths(lam):
    for j in (1, 2, 3):
        for path in ("circuit", "collapsed"):
            keys, oracle, rng = fresh(lam, 90 + j)
            targets = list(range(j))
            for _ in range(10):
                psi = random_state((2,) * j, rng)
                padded, s, key = opad.enc(keys.pk, psi, targets, oracle, rng,
                                          path=path, with_key=True)
                assert opad.dec(keys.sk, s, oracle) == key
                restored = apply_pauli_pad(padded, key, targets)
                assert equal_up_to_global_phase(restored, psi, tol=1e-10)


def test_roundtrip_both_paths_all_widths():
    check_roundtrip_both_paths_all_widths(4)


def test_roundtrip_both_paths_all_widths_at_lambda_12():
    check_roundtrip_both_paths_all_widths(12)


def test_enc_without_key_returns_pair():
    keys, oracle, rng = fresh(4, 5)
    out = opad.enc(keys.pk, StateVector.basis((2,), (0,)), [0], oracle, rng)
    assert len(out) == 2
    assert isinstance(out[1], opad.OpadString)
    assert len(out[1].slots) == 2


def test_enc_rejects_bad_path_and_non_qubit():
    keys, oracle, rng = fresh(4, 6)
    qutrit = StateVector.basis((3,), (0,))
    with pytest.raises(ValueError):
        opad.enc(keys.pk, qutrit, [0], oracle, rng, path="collapsed")
    with pytest.raises(ValueError):
        opad.enc(keys.pk, StateVector.basis((2,), (0,)), [0], oracle, rng, path="fast")
    with pytest.raises(ValueError):
        opad.qubit_enc(keys.pk, qutrit, 0, oracle, rng)


def test_dec_rejects_y_outside_image():
    keys, oracle, rng = fresh(4, 7)
    bad = opad.OpadString(((1, 16), (1, 0)), "pauli")
    with pytest.raises(ValueError):
        opad.dec(keys.sk, bad, oracle)


def test_tampering_d_flips_bit_iff_claw_difference_hits():
    # exhaustive at 4 bits: flipping d at position i flips the decoded bit
    # exactly when bit i of x0 xor x1 is set
    keys, oracle, _ = fresh(4, 21)
    for y in range(16):
        x0, x1 = keys.sk.claw(y)
        delta = x0 ^ x1
        for d in range(1, 16):
            base = opad.dec(keys.sk, opad.OpadString(((d, y),), "bits"), oracle)[0]
            for i in range(4):
                d2 = d ^ (1 << i)
                if d2 == 0:
                    continue
                other = opad.dec(keys.sk, opad.OpadString(((d2, y),), "bits"), oracle)[0]
                assert (base != other) == bool((delta >> i) & 1)


def test_samp_marginal_equals_enc_marginal_exactly():
    # exact rational computation at 6 bits: both sides put mass
    # 1/size on each y and 1/(size-1) on each nonzero d, independently
    keys, _, rng = fresh(6, 50)
    size = 64
    t0 = keys.pk.tables[0]
    t1 = keys.pk.tables[1]
    for t in (t0, t1):
        counts = np.bincount(t, minlength=size)
        assert counts.min() == counts.max() == 1
    # enc: two amplitude branches of squared weight 1/(2*size) per y, and
    # per fixed y every Hadamard outcome d carries the same two unit signs,
    # so d is uniform before conditioning and uniform on 1..size-1 after
    p_enc = {(y, d): Fraction(2, 2 * size) * Fraction(1, size - 1)
             for y in range(size) for d in range(1, size)}
    p_samp = {(y, d): Fraction(int((t0 == y).sum()), size) * Fraction(1, size - 1)
              for y in range(size) for d in range(1, size)}
    tv = sum(abs(p_enc[cell] - p_samp[cell]) for cell in p_enc) / 2
    assert tv == Fraction(0)
    assert sum(p_enc.values()) == 1 == sum(p_samp.values())


def test_circuit_round_y_and_d_are_analytically_uniform():
    # float cross-check of the exact model above, on the actual circuit
    keys, oracle, rng = fresh(6, 51)
    size = 64
    n = keys.pk.n
    plus = StateVector((2,), np.array([1, 1]) / np.sqrt(2))
    tail = StateVector.basis((2,) * n + (size,), (0,) * (n + 1))
    work = tcf.coherent_samp(keys.pk, plus.tensor(tail), 0, list(range(1, n + 2)))
    y_dist = register_distribution(work, [n + 1])
    assert all(abs(p - 1 / size) < 1e-12 for p in y_dist.values())
    for _ in range(3):
        (y,), post = measure_registers(work, [n + 1], rng=rng)
        post = remove_registers(post, [n + 1])
        x0, x1 = keys.sk.claw(y)
        signs = np.ones(size, dtype=complex)
        signs[x0] = 1 - 2 * oracle.query(x0)
        signs[x1] = 1 - 2 * oracle.query(x1)
        post = apply_unitary(post, np.diag(signs), list(range(1, n + 1)))
        d_dist = register_distribution(post, list(range(1, n + 1)), basis="hadamard")
        assert len(d_dist) == size
        assert all(abs(p - 1 / size) < 1e-12 for p in d_dist.values())


def test_samp_never_emits_zero_d_and_y_in_image():
    keys, _, rng = fresh(5, 52)
    for _ in range(200):
        s = opad.samp(keys.pk, 2, rng)
        assert len(s.slots) == 4
        for d, y in s.slots:
            assert d != 0
            assert 0 <= y < 32


def test_enc_collapsed_matches_formula_bits():
    keys, oracle, rng = fresh(4, 53)
    for _ in range(50):
        psi = random_state((2,), rng)
        _, s, key = opad.enc(keys.pk, psi, [0], oracle, rng, path="collapsed", with_key=True)
        assert opad.dec(keys.sk, s, oracle) == key


def test_security_game_classical_guess_is_half():
    rng = np.random.default_rng(60)
    rate = opad.security_game(opad.RandomGuessProver, 10_000, rng, lam=6)
    assert abs(rate - 0.5) < 0.02


def test_security_game_quantum_prover_hits_three_quarters():
    rng = np.random.default_rng(61)
    rate = opad.security_game(opad.PadHolderProver, 10_000, rng, lam=6)
    assert abs(rate - 0.75) < 0.02


def test_security_game_quantum_prover_circuit_path():
    rng = np.random.default_rng(62)
    factory = lambda keys, oracle: opad.PadHolderProver(keys, oracle, path="circuit")
    rate = opad.security_game(factory, 400, rng, lam=4)
    assert rate > 0.68


def test_security_game_rejects_malformed_string():
    class Bad:
        def __init__(self, keys, oracle):
            self.pk = keys.pk

        def round1(self, rng):
            return opad.samp(self.pk, 2, rng)

        def round2(self, k, rng):
            return 0

    rng = np.random.default_rng(63)
    with pytest.raises(ValueError):
        opad.security_game(Bad, 5, rng, lam=4, j=1)


def test_whitebox_prover_wins_always_and_plants_claws():
    rng = np.random.default_rng(64)
    factory = lambda keys, oracle: opad.ClawPlantingProver(keys, oracle, j=7)
    rate = opad.security_game(factory, 1500, rng, lam=6, j=7, oracle_mode="lazy")
    assert rate == 1.0
    for _ in range(30):
        keys = opad.gen(6, rng)
        oracle = opad.PhaseOracle("lazy", rng=rng)
        prover = opad.ClawPlantingProver(keys, oracle, j=7)
        prover.round1(rng)
        found = opad.extract_claw(oracle, keys.pk)
        assert found is not None
        x0, x1 = found
        y = tcf.eval(keys.pk, 0, x0)
        assert tcf.chk(keys.pk, 0, x0, y) == 1
        assert tcf.chk(keys.pk, 1, x1, y) == 1


def test_extract_claw_requires_lazy_mode():
    keys, oracle, _ = fresh(4, 65)
    with pytest.raises(ValueError):
        opad.extract_claw(oracle, keys.pk)


def test_random_queries_rarely_contain_a_claw():
    # 20 random points at 10 bits: claw frequency stays under 2*Q^2/2^n
    rng = np.random.default_rng(66)
    q = 20
    bound = 2 * q * q / 1024
    hits = 0
    experiments = 400
    for _ in range(experiments):
        keys = opad.gen(10, rng)
        oracle = opad.PhaseOracle("lazy", rng=rng)
        for x in rng.integers(0, 1024, size=q):
            oracle.query(int(x))
        found = opad.extract_claw(oracle, keys.pk)
        if found is not None:
            x0, x1 = found
            assert tcf.eval(keys.pk, 0, x0) == tcf.eval(keys.pk, 1, x1)
            hits += 1
    assert hits / experiments <= bound


def test_general_u_identity_family_is_noop():
    keys, oracle, rng = fresh(4, 70)
    psi = random_state((2, 2), rng)
    out, s = opad.general_u_enc(keys.pk, psi, opad.identity_family(), oracle, rng)
    assert s.slots == ()
    assert s.kind == "bits"
    assert equal_up_to_global_phase(out, psi, tol=1e-12)


def test_general_u_pauli_family_roundtrip_and_dec():
    keys, oracle, rng = fresh(4, 71)
    family = opad.pauli_family([0])
    for _ in range(20):
        psi = random_state((2,), rng)
        out, s, bits = opad.general_u_enc(keys.pk, psi, family, oracle, rng, with_key=True)
        assert len(s.slots) == 2
        assert opad.dec(keys.sk, s, oracle) == bits
        expected = apply_pauli_pad(psi, PauliKey.from_bits(bits), [0])
        assert equal_up_to_global_phase(out, expected, tol=1e-10)


def test_general_u_key_distribution_matches_qubit_enc():
    # per-slot bit frequencies agree between the auxiliary-qubit sampler
    # and the direct qubit pad, under one fixed oracle and key
    keys, oracle, rng = fresh(4, 72)
    family = opad.pauli_family([0])
    runs = 600
    keys_general = []
    keys_qubit = []
    for _ in range(runs):
        _, _, bits = opad.general_u_enc(keys.pk, StateVector.basis((2,), (0,)),
                                        family, oracle, rng, with_key=True)
        keys_general.append(bits)
        _, _, kj = opad.qubit_enc(keys.pk, StateVector.basis((2,), (0,)), 0, oracle, rng)
        keys_qubit.append(kj)
    tv = 0.0
    for key in {(a, b) for a in (0, 1) for b in (0, 1)}:
        tv += abs(keys_general.count(key) - keys_qubit.count(key)) / runs
    assert tv / 2 < 0.1


def check_collapsed_and_circuit_paths_share_slot_statistics(lam):
    keys, oracle, rng = fresh(lam, 73)
    counts = {"circuit": [], "collapsed": []}
    for path in counts:
        for _ in range(500):
            _, s, key = opad.enc(keys.pk, StateVector.basis((2,), (0,)), [0],
                                 oracle, rng, path=path, with_key=True)
            counts[path].append(key)
    for bit in range(2):
        a = np.mean([k.bits()[bit] for k in counts["circuit"]])
        b = np.mean([k.bits()[bit] for k in counts["collapsed"]])
        assert abs(a - b) < 0.1


def test_collapsed_and_circuit_paths_share_slot_statistics():
    check_collapsed_and_circuit_paths_share_slot_statistics(4)


def test_collapsed_and_circuit_paths_share_slot_statistics_at_lambda_12():
    check_collapsed_and_circuit_paths_share_slot_statistics(12)


# (lambda, data qubits, target): the target first, in the middle and last
ROUND_SWEEP = [(lam, data, target) for lam in (3, 4, 5, 6) for data in (1, 2, 3)
               for target in sorted({0, data // 2, data - 1})]


@pytest.mark.parametrize("lam,data,target", ROUND_SWEEP)
def test_circuit_rounds_match_the_dense_reference(lam, data, target, dense_claw):
    keys, oracle, rng = fresh(lam, 200 + 10 * data + target)
    # the dense reference reads all of P: fix it before the two paths share rng
    keys.pk.tables
    state = random_state((2,) * data, rng)
    for _ in range(6):
        ref_rng = copy.deepcopy(rng)
        work, slot, bit = opad._circuit_round(keys.pk, state, target, oracle, rng)
        with dense_claw():
            ref_work, ref_slot, ref_bit = opad._circuit_round(keys.pk, state, target, oracle, ref_rng)
        assert (slot, bit) == (ref_slot, ref_bit)
        assert work.dims == ref_work.dims == state.dims
        assert np.allclose(work.amps, ref_work.amps, rtol=0, atol=1e-12)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # alternate the Z and X frames, as qubit_enc does
        state = apply_unitary(work, H, [target])


@pytest.mark.parametrize("lam", [3, 4, 5, 6])
@pytest.mark.parametrize("data", [1, 2, 3])
def test_general_u_enc_matches_the_dense_reference(lam, data, dense_claw):
    # each key bit runs a round on an auxiliary qubit appended after the data
    keys, oracle, rng = fresh(lam, 300 + data)
    family = opad.pauli_family(range(data))
    for trial in range(3):
        psi = random_state((2,) * data, rng)
        out, s, bits = opad.general_u_enc(keys.pk, psi, family, oracle,
                                          np.random.default_rng(trial), with_key=True)
        with dense_claw():
            ref_out, ref_s, ref_bits = opad.general_u_enc(keys.pk, psi, family, oracle,
                                                          np.random.default_rng(trial),
                                                          with_key=True)
        assert (s, bits) == (ref_s, ref_bits)
        assert np.allclose(out.amps, ref_out.amps, rtol=0, atol=1e-12)


def test_circuit_pad_runs_on_two_qubits_at_every_lambda():
    # a round holds 2^2 * 2^lambda amplitudes; the largest lambda still fits
    assert 4 << tcf.MAX_DOMAIN_BITS <= qsim.MAX_AMPS
    for lam in range(3, 17):
        keys, oracle, rng = fresh(lam, 400 + lam)
        psi = random_state((2, 2), rng)
        padded, s = opad.enc(keys.pk, psi, [0, 1], oracle, rng, path="circuit")
        restored = apply_pauli_pad(padded, opad.dec(keys.sk, s, oracle), [0, 1])
        assert equal_up_to_global_phase(restored, psi, tol=1e-10)


def test_circuit_enc_refuses_oversized_state_before_allocating():
    # A round on three qubits at the domain bound needs 2^3 * 2^20 = 2^23
    # amplitudes, twice MAX_AMPS.
    keys, oracle, rng = fresh(tcf.MAX_DOMAIN_BITS, 18)
    state = StateVector.basis((2, 2, 2), (0, 1, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_AMPS"):
            opad.enc(keys.pk, state, [0, 1, 2], oracle, rng, path="circuit")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
