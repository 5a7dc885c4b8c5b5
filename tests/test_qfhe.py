import itertools
import json
import math

import numpy as np
import pytest

from ctxsim import qfhe
from ctxsim.games import magic_square
from ctxsim.qsim import (
    H,
    Observable,
    PauliKey,
    StateVector,
    X,
    Z,
    apply_pauli_pad,
    apply_unitary,
    branch_measure,
    equal_up_to_global_phase,
)


def fresh(backend="stub", seed=0):
    rng = np.random.default_rng(seed)
    return qfhe.gen(rng, backend), rng


def test_classical_roundtrip_many():
    sk, rng = fresh()
    for _ in range(100):
        m = tuple(rng.integers(0, 2, 8))
        assert qfhe.dec_classical(sk, qfhe.enc_classical(sk, m, rng)) == tuple(int(b) for b in m)


def test_fresh_keys_have_distinct_ids():
    sk1, _ = fresh(seed=1)
    sk2, _ = fresh(seed=2)
    assert sk1.key_id != sk2.key_id


def test_equal_messages_encrypt_differently():
    sk, rng = fresh(seed=3)
    a = qfhe.enc_classical(sk, (1, 0, 1), rng)
    b = qfhe.enc_classical(sk, (1, 0, 1), rng)
    assert a != b


def test_wrong_key_decrypts_to_garbage():
    sk, rng = fresh(seed=4)
    other, _ = fresh(seed=5)
    matches = 0
    for _ in range(1000):
        m = tuple(int(b) for b in rng.integers(0, 2, 8))
        c = qfhe.enc_classical(sk, m, rng)
        matches += int(qfhe.dec_classical(other, c) == m)
    assert matches / 1000 <= 0.02


def test_quantum_roundtrip_fidelity():
    sk, rng = fresh(seed=6)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = StateVector((2, 2), v / np.linalg.norm(v))
    back = qfhe.dec_quantum(sk, qfhe.enc_quantum(sk, psi, rng))
    assert equal_up_to_global_phase(back, psi, 1e-10)


def test_pad_keys_uniform_on_one_qubit():
    sk, rng = fresh(seed=7)
    psi = StateVector((2,), [1, 0])
    counts = {}
    trials = 10_000
    for _ in range(trials):
        c = qfhe.enc_quantum(sk, psi, rng)
        k = qfhe.dec_classical(sk, c.pad_hat)
        counts[k] = counts.get(k, 0) + 1
    assert len(counts) == 4
    for n in counts.values():
        assert abs(n / trials - 0.25) < 0.02


def test_known_pad_gives_known_padded_state():
    sk, rng = fresh(seed=8)
    k = PauliKey((1,), (0,))
    psi = StateVector((2,), [1, 0])
    cipher = qfhe.QfheCiphertext(
        apply_pauli_pad(psi, k, [0]), qfhe.enc_classical(sk, k.bits(), rng)
    )
    assert np.allclose(cipher.padded_state.amps, [0, 1])
    assert equal_up_to_global_phase(qfhe.dec_quantum(sk, cipher), psi)


def sign_bit(value):
    """The answer bits of a +1/-1 eigenvalue: (0,) for +1, (1,) for -1."""
    return (0,) if value > 0 else (1,)


def test_eval_identity_preserves_state():
    # an empty program measures nothing; the state comes back under a fresh pad
    sk, rng = fresh(seed=9)
    psi = apply_unitary(StateVector((2, 2), [1, 0, 0, 0]), np.kron(H, H), [0, 1])
    cipher = qfhe.enc_quantum(sk, psi, rng)
    answer, out = qfhe.eval(qfhe.enc_classical(sk, (0,), rng), {0: []}, sign_bit, cipher, rng)
    assert len(answer) == 0
    assert len(out.pad_hat) == 4 and out.pad_hat != cipher.pad_hat
    assert equal_up_to_global_phase(qfhe.dec_quantum(sk, out), psi, 1e-10)


def test_eval_measurement_matches_born_rule():
    sk, rng = fresh(seed=10)
    _, strat = magic_square()
    obs = strat.observables["11"]  # I(x)X on |00>: +1/-1 each with prob 1/2
    psi = StateVector((2, 2), [1, 0, 0, 0])

    analytic = {sign_bit(v): p for v, p, _ in branch_measure(psi, obs, [0, 1])}
    counts = {(0,): 0, (1,): 0}
    trials = 4000
    for _ in range(trials):
        cipher = qfhe.enc_quantum(sk, psi, rng)
        index = qfhe.enc_classical(sk, (0,), rng)
        answer, _ = qfhe.eval(index, {0: [obs]}, sign_bit, cipher, rng)
        counts[qfhe.dec_classical(sk, answer)] += 1
    for bits, p in analytic.items():
        assert abs(counts[bits] / trials - p) < 0.03


def test_eval_output_keeps_padded_form():
    # After measuring inside eval, the emitted ciphertext must decrypt to a
    # valid post-measurement state consistent with the decrypted answer.
    sk, rng = fresh(seed=11)
    _, strat = magic_square()
    obs = strat.observables["11"]
    psi = StateVector((2, 2), [1, 0, 0, 0])
    posts = {sign_bit(v): post for v, p, post in branch_measure(psi, obs, [0, 1])}
    for _ in range(20):
        cipher = qfhe.enc_quantum(sk, psi, rng)
        index = qfhe.enc_classical(sk, (0,), rng)
        answer, out = qfhe.eval(index, {0: [obs]}, sign_bit, cipher, rng)
        bits = qfhe.dec_classical(sk, answer)
        assert equal_up_to_global_phase(qfhe.dec_quantum(sk, out), posts[bits], 1e-9)


def test_eval_encrypted_index_picks_its_program():
    # Z and -Z are deterministic on |0>: +1 gives bit 0, -1 bit 1
    sk, rng = fresh(seed=12)
    z, minus_z = Observable(Z), Observable(-Z)
    programs = {0: [z], 1: [minus_z], 2: [z, minus_z, z], 3: []}
    expected = {0: (0,), 1: (1,), 2: (0, 1, 0), 3: ()}
    for index, bits in expected.items():
        selector = qfhe.enc_classical(sk, ((index >> 1) & 1, index & 1), rng)
        cipher = qfhe.enc_quantum(sk, StateVector((2,), [1, 0]), rng)
        answer, _ = qfhe.eval(selector, programs, sign_bit, cipher, rng)
        assert qfhe.dec_classical(sk, answer) == bits


def test_eval_rejects_a_missing_program_index():
    sk, rng = fresh(seed=13)
    cipher = qfhe.enc_quantum(sk, StateVector((2,), [1, 0]), rng)
    index = qfhe.enc_classical(sk, (1,), rng)
    with pytest.raises(ValueError, match="encrypted selector 1 has no program"):
        qfhe.eval(index, {0: []}, sign_bit, cipher, rng)


def xor_circuit():
    return qfhe.ClassicalCircuit(2, (("xor", 0, 1),), (2,))


def and_circuit():
    return qfhe.ClassicalCircuit(2, (("and", 0, 1),), (2,))


def test_ceval_xor_and_trivials():
    sk, rng = fresh(seed=14)
    c11 = qfhe.enc_classical(sk, (1, 1), rng)
    assert qfhe.dec_classical(sk, qfhe.ceval(xor_circuit(), c11, rng)) == (0,)
    c10 = qfhe.enc_classical(sk, (1, 0), rng)
    assert qfhe.dec_classical(sk, qfhe.ceval(and_circuit(), c10, rng)) == (0,)


def test_ceval_matches_plain_semantics_on_random_circuits():
    sk, rng = fresh(seed=15)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        gates = []
        width = n
        for _ in range(int(rng.integers(1, 8))):
            kind = ("xor", "and", "not", "const")[rng.integers(0, 4)]
            if kind in ("xor", "and"):
                gates.append((kind, int(rng.integers(0, width)), int(rng.integers(0, width))))
            elif kind == "not":
                gates.append((kind, int(rng.integers(0, width))))
            else:
                gates.append((kind, int(rng.integers(0, 2))))
            width += 1
        outputs = tuple(int(o) for o in rng.integers(0, width, size=2))
        circ = qfhe.ClassicalCircuit(n, tuple(gates), outputs)
        m = tuple(int(b) for b in rng.integers(0, 2, n))
        got = qfhe.dec_classical(sk, qfhe.ceval(circ, qfhe.enc_classical(sk, m, rng), rng))
        assert got == circ.run_plain(m)


def test_ceval_and_output_pad_is_uniform():
    sk, rng = fresh(seed=16)
    trials = 10_000
    masked_ones = 0
    pad_ones = 0
    for _ in range(trials):
        c = qfhe.enc_classical(sk, (1, 0), rng)
        out = qfhe.ceval(and_circuit(), c, rng)
        masked, pad = out.masked[0], out.pad[0]
        masked_ones += masked
        pad_ones += pad
        assert masked ^ pad == 0
    assert abs(masked_ones / trials - 0.5) < 0.02
    assert abs(pad_ones / trials - 0.5) < 0.02


def test_ceval_output_distribution_equals_fresh_encryption():
    # On classical inputs the (masked, pad) pairs emitted by homomorphic
    # evaluation and by fresh encryption of the plain result must agree.
    sk, rng = fresh(seed=17)
    trials = 4000

    def pair_freq(samples):
        freq = {}
        for s in samples:
            freq[s] = freq.get(s, 0) + 1
        return {k: v / len(samples) for k, v in freq.items()}

    via_ceval = []
    via_fresh = []
    for _ in range(trials):
        c = qfhe.enc_classical(sk, (1, 1), rng)
        out = qfhe.ceval(and_circuit(), c, rng)
        via_ceval.append((out.masked[0], out.pad[0]))
        fresh_c = qfhe.enc_classical(sk, (1,), rng)
        via_fresh.append((fresh_c.masked[0], fresh_c.pad[0]))
    fa, fb = pair_freq(via_ceval), pair_freq(via_fresh)
    tv = 0.5 * sum(abs(fa.get(k, 0.0) - fb.get(k, 0.0)) for k in set(fa) | set(fb))
    assert tv < 0.05


class ScriptedRng:
    """Feeds scripted bits to integers(0, 2) draws, scalar or array, and
    counting nonces to integers(0, 2**62) draws."""

    def __init__(self, r):
        self.r = list(r)
        self.nonce = 0

    def integers(self, low, high, size=None):
        assert low == 0
        n = 1 if size is None else size
        if high == 2:
            out, self.r = self.r[:n], self.r[n:]
            assert len(out) == n, "more pad-bit draws than scripted bits"
        else:
            assert high == 2 ** 62
            out = list(range(self.nonce, self.nonce + n))
            self.nonce += n
        return out[0] if size is None else np.array(out, dtype=np.int64)


def gate_by_gate_ceval(circuit, wires, rng):
    """The homomorphic evaluation that ceval ran before stub_wires, on
    (mask, pad, nonce) triples: gate by gate, the output of each xor, and
    or const gate gets a nonce of its own, and a not keeps its input's.
    Kept as the reference for stub_wires and for the nonces ceval carries."""
    def nonce():
        return int(rng.integers(0, 2 ** 62))

    wires = list(wires)
    for g in circuit.gates:
        op = g[0]
        if op == "xor":
            (m0, k0, _), (m1, k1, _) = wires[g[1]], wires[g[2]]
            wires.append((m0 ^ m1, k0 ^ k1, nonce()))
        elif op == "and":
            (m0, k0, _), (m1, k1, _) = wires[g[1]], wires[g[2]]
            r = int(rng.integers(0, 2))
            # pad_out = k0*k1 ^ k0*m1 ^ k1*m0 ^ r, one term at a time
            pad = k0 & k1
            if m1:
                pad ^= k0
            if m0:
                pad ^= k1
            wires.append(((m0 & m1) ^ r, pad ^ r, nonce()))
        elif op == "not":
            m, k, n = wires[g[1]]
            wires.append((m ^ 1, k, n))
        else:
            r = int(rng.integers(0, 2))
            wires.append((int(g[1]) ^ r, r, nonce()))
    return tuple(wires[w] for w in circuit.outputs)


def random_circuits(rng, count, max_random_gates=6):
    """Random circuits over all four gate kinds with few and/const gates."""
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 5))
        gates = []
        width = n
        for _ in range(int(rng.integers(1, 9))):
            kind = ("xor", "and", "not", "const")[rng.integers(0, 4)]
            if kind in ("xor", "and"):
                gates.append((kind, int(rng.integers(0, width)), int(rng.integers(0, width))))
            elif kind == "not":
                gates.append((kind, int(rng.integers(0, width))))
            else:
                gates.append((kind, int(rng.integers(0, 2))))
            width += 1
        outputs = tuple(int(o) for o in rng.integers(0, width, size=int(rng.integers(1, 4))))
        circ = qfhe.ClassicalCircuit(n, tuple(gates), outputs)
        if circ.random_gates <= max_random_gates:
            out.append(circ)
    return out


def nonce_pattern(nonces, inputs):
    """Per output: the input whose nonce it carries, and the first output
    holding the same nonce."""
    return ([inputs.index(n) if n in inputs else None for n in nonces],
            [nonces.index(n) for n in nonces])


@pytest.mark.parametrize("backend", ["stub", "leaky"])
def test_stub_ceval_matches_the_token_loop_for_every_pad_draw(backend):
    sk, rng = fresh(backend, seed=30)
    circuits = random_circuits(rng, 25)
    assert {g[0] for c in circuits for g in c.gates} == {"xor", "and", "not", "const"}
    for circ in circuits:
        masks = [int(b) for b in rng.integers(0, 2, circ.n_inputs)]
        pads = [int(b) for b in rng.integers(0, 2, circ.n_inputs)]
        nonces = [10 ** 6 + i for i in range(circ.n_inputs)]
        c = qfhe.ClassicalCiphertext(tuple(masks), tuple(pads), tuple(nonces), sk.key_id,
                                     sk.scheme)
        for r in itertools.product((0, 1), repeat=circ.random_gates):
            loop_rng, fast_rng = ScriptedRng(r), ScriptedRng(r)
            loop = gate_by_gate_ceval(circ, zip(masks, pads, nonces), loop_rng)
            fast = qfhe.ceval(circ, c, fast_rng)
            assert not loop_rng.r and not fast_rng.r
            wire_masks, wire_pads = qfhe.stub_wires(circ, masks, pads, r)
            expected = [(wire_masks[w], wire_pads[w]) for w in circ.outputs]
            assert [(m, k) for m, k, _ in loop] == expected
            assert list(zip(fast.masked, fast.pad)) == expected
            assert nonce_pattern(list(fast.nonce), nonces) == \
                nonce_pattern([n for _, _, n in loop], nonces)
            assert (fast.key_id, fast.scheme) == (sk.key_id, backend)


def test_stub_ceval_draws_pad_bits_then_output_nonces_in_two_calls():
    sk, rng = fresh(seed=31)
    circ = qfhe.ClassicalCircuit(2, (("and", 0, 1), ("const", 1), ("not", 0), ("xor", 2, 3)),
                                 (5, 4, 2, 0, 5))
    c = qfhe.enc_classical(sk, (1, 1), rng)
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    out = qfhe.ceval(circ, c, rng)
    r = twin.integers(0, 2, size=2).tolist()
    nonces = twin.integers(0, 2 ** 62, size=2).tolist()  # wires 5 and 2
    assert rng.bit_generator.state == twin.bit_generator.state
    input_nonce = c.nonce[0]  # wires 4 and 0 carry input 0's nonce
    assert out.nonce == (nonces[0], input_nonce, nonces[1], input_nonce, nonces[0])
    masks, pads = qfhe.stub_wires(circ, c.masked, c.pad, r)
    assert list(zip(out.masked, out.pad)) == [(masks[w], pads[w]) for w in circ.outputs]
    assert qfhe.dec_classical(sk, out) == circ.run_plain((1, 1))


class FixedDraws:
    def __init__(self, values):
        self.values = values

    def integers(self, low, high, size=None):
        assert (low, high, size) == (0, 2 ** 63, len(self.values))
        return np.array(self.values, dtype=np.int64)


def test_stub_encryption_splits_one_63_bit_draw_into_pad_and_nonce():
    sk, _ = fresh(seed=32)
    draws = [0, 2 ** 62, 2 ** 62 - 1, 2 ** 63 - 1, 2 ** 62 | 12345]
    c = qfhe.enc_classical(sk, (1, 0, 1, 1, 0), FixedDraws(draws))
    assert list(zip(c.masked, c.pad, c.nonce)) == [
        (1, 0, 0), (1, 1, 0), (1, 0, 2 ** 62 - 1), (0, 1, 2 ** 62 - 1), (1, 1, 12345)]


def test_stub_encryption_pad_is_uniform_and_independent_of_the_nonce():
    sk, rng = fresh(seed=33)
    n = 40_000
    c = qfhe.enc_classical(sk, (0,) * n, rng)
    pads = np.array(c.pad)
    nonces = np.array(c.nonce, dtype=np.int64)
    assert np.array_equal(pads, c.masked)
    assert nonces.min() >= 0 and nonces.max() < 2 ** 62
    tol = 3 * math.sqrt(0.25 / n) + 0.002
    assert abs(pads.mean() - 0.5) < tol
    for j in (0, 1, 31, 60, 61):
        bit = (nonces >> j) & 1
        assert abs(bit.mean() - 0.5) < tol
        # the pad agrees with each nonce bit half the time when independent
        assert abs((bit == pads).mean() - 0.5) < tol
    assert len(set(nonces.tolist())) == n


@pytest.mark.parametrize("backend", ["stub", "leaky"])
def test_enc_classical_accepts_only_integer_bits(backend):
    sk, rng = fresh(backend, seed=34)
    for payload in ((0.5, 1.9, "1"), (0.0,), (1.0,), ("1",), (2,), (-1,), (None,)):
        with pytest.raises(ValueError, match="payload must be bits"):
            qfhe.enc_classical(sk, payload, rng)
    c = qfhe.enc_classical(sk, (True, np.int64(1), np.uint8(0), False), rng)
    assert qfhe.dec_classical(sk, c) == (1, 1, 0, 0)
    assert all(type(v) is int for v in c.masked + c.pad + c.nonce)


def test_twoind_game_random_guess():
    rng = np.random.default_rng(18)
    rate = qfhe.twoind_game(
        lambda handle, c, r: int(r.integers(0, 2)), (0, 0), (1, 1), 10_000, rng
    )
    assert abs(rate - 0.5) < 0.02


def test_twoind_game_leaky_backend_is_broken():
    rng = np.random.default_rng(19)

    def reader(handle, c, r):
        return int(qfhe.leak_bits(c) == (1, 1))

    rate = qfhe.twoind_game(reader, (0, 0), (1, 1), 2000, rng, backend="leaky")
    assert rate == 1.0


def test_twoind_game_refuses_a_challenge_that_is_not_bits_before_any_draw():
    # int() would play (0.9,) as (0,), and a pad reader would always win
    rng = np.random.default_rng(22)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="payload must be bits, got 0.9"):
        qfhe.twoind_game(lambda h, c, r: int(qfhe.peek_bits(c) == (1,)),
                         (0.9,), (1,), 100, rng)
    assert rng.bit_generator.state == before


def test_stub_json_hides_pads_leaky_json_exposes_them():
    sk, rng = fresh(seed=20)
    c = qfhe.enc_classical(sk, (1, 0), rng)
    blob = json.loads(json.dumps(c.as_dict()))
    assert all("pad" not in b for b in blob["bits"])

    lk, lrng = fresh("leaky", seed=21)
    c2 = qfhe.enc_classical(lk, (1, 0), lrng)
    blob2 = json.loads(json.dumps(c2.as_dict()))
    assert all("pad" in b for b in blob2["bits"])
    assert qfhe.leak_bits(c2) == (1, 0)


def test_gen_rejects_unknown_backend():
    for backend in ("paillier", "lwe"):
        with pytest.raises(ValueError, match="unsupported backend"):
            qfhe.gen(np.random.default_rng(0), backend)
