import gc
import json
import weakref

import numpy as np
import pytest

from ctxsim import compilers, games, tcf
from ctxsim.qsim import H, StateVector, apply_unitary, measure_registers, register_distribution, remove_registers

# chi-square critical value, df = 15, p = 0.001
CHI2_CRIT_DF15 = 37.697


def ideal_pair(bits=8, hidden=None, seed=0):
    return tcf.gen(bits, hidden=hidden, rng=np.random.default_rng(seed))


def test_hidden_bit_one_on_every_claw():
    kp = ideal_pair(8, hidden=1)
    for y in range(256):
        x0, x1 = tcf.claw(kp.sk, y)
        assert tcf.first_bit(x0, 8) ^ tcf.first_bit(x1, 8) == 1


def test_hidden_bit_zero_on_every_claw():
    kp = ideal_pair(8, hidden=0)
    for y in range(256):
        x0, x1 = tcf.claw(kp.sk, y)
        assert tcf.first_bit(x0, 8) == tcf.first_bit(x1, 8)


def test_distinct_seeds_distinct_pk():
    assert ideal_pair(seed=1).pk != ideal_pair(seed=2).pk


def test_claw_definition_exhaustive():
    kp = ideal_pair(8)
    delta = kp.sk.delta
    for x in range(256):
        assert tcf.eval(kp.pk, 0, x) == tcf.eval(kp.pk, 1, x ^ delta)


def test_chk_accepts_eval_and_rejects_others():
    kp = ideal_pair(8)
    for x in range(256):
        for b in (0, 1):
            y = tcf.eval(kp.pk, b, x)
            assert tcf.chk(kp.pk, b, x, y) == 1
    y0 = tcf.eval(kp.pk, 0, 0)
    assert tcf.chk(kp.pk, 0, 1, y0) == 0
    assert tcf.chk(kp.pk, 0, -1, y0) == 0
    assert tcf.chk(kp.pk, 0, 0, (y0, y0)) == 0


def test_branch_injectivity_exhaustive():
    kp = ideal_pair(8)
    for b in (0, 1):
        images = {tcf.eval(kp.pk, b, x) for x in range(256)}
        assert len(images) == 256


def test_inv_round_trip_exhaustive():
    kp = ideal_pair(8)
    for x in range(256):
        for b in (0, 1):
            assert tcf.inv(kp.sk, b, tcf.eval(kp.pk, b, x)) == x


def test_inv_claw_consistency():
    kp = ideal_pair(8)
    for y in (0, 17, 255):
        assert tcf.inv(kp.sk, 0, y) ^ tcf.inv(kp.sk, 1, y) == kp.sk.delta


def test_inv_rejects_bad_y():
    kp = ideal_pair(8)
    with pytest.raises(ValueError):
        tcf.inv(kp.sk, 0, 256)
    with pytest.raises(ValueError):
        tcf.inv(kp.sk, 0, "nope")


def test_eval_rejects_out_of_domain():
    kp = ideal_pair(8)
    with pytest.raises(ValueError):
        tcf.eval(kp.pk, 0, 256)


def test_gen_rejects_tiny_domain_and_bad_backend():
    with pytest.raises(ValueError):
        tcf.gen(2, rng=np.random.default_rng(0))


def fresh_samp_state(bits, control_plus=True):
    dims = (2,) + (2,) * bits + (1 << bits,)
    state = StateVector.basis(dims, (0,) * (bits + 2))
    if control_plus:
        state = apply_unitary(state, H, [0])
    return state


def test_coherent_samp_plus_control_leaves_claw_superposition():
    bits = 4
    kp = ideal_pair(bits, seed=3)
    state = tcf.coherent_samp(kp.pk, fresh_samp_state(bits), 0, list(range(1, bits + 2)))

    rng = np.random.default_rng(5)
    (y,), post = measure_registers(state, [bits + 1], rng=rng)
    leftover = remove_registers(post, [bits + 1])

    x0, x1 = tcf.claw(kp.sk, y)
    expected = np.zeros(2 ** (bits + 1), dtype=complex)
    expected[x0] = 1 / np.sqrt(2)  # |0>|x0>
    expected[(1 << bits) | x1] = 1 / np.sqrt(2)  # |1>|x1>
    assert np.allclose(leftover.amps, expected, atol=1e-12)


def test_coherent_samp_zero_control_single_preimage():
    bits = 4
    kp = ideal_pair(bits, seed=4)
    state = tcf.coherent_samp(kp.pk, fresh_samp_state(bits, control_plus=False), 0, list(range(1, bits + 2)))
    rng = np.random.default_rng(6)
    (y,), post = measure_registers(state, [bits + 1], rng=rng)
    digits, _ = measure_registers(remove_registers(post, [bits + 1]), list(range(1, bits + 1)), rng=rng)
    x = int("".join(map(str, digits)), 2)
    assert tcf.eval(kp.pk, 0, x) == y


def test_coherent_samp_y_marginal_exactly_uniform():
    bits = 4
    kp = ideal_pair(bits, seed=7)
    state = tcf.coherent_samp(kp.pk, fresh_samp_state(bits), 0, list(range(1, bits + 2)))
    dist = register_distribution(state, [bits + 1])
    assert all(abs(p - 1 / 16) < 1e-12 for p in dist.values())


def test_coherent_samp_y_samples_pass_chi_square():
    bits = 4
    kp = ideal_pair(bits, seed=8)
    state = tcf.coherent_samp(kp.pk, fresh_samp_state(bits), 0, list(range(1, bits + 2)))
    rng = np.random.default_rng(9)
    counts = np.zeros(16)
    trials = 10_000
    for _ in range(trials):
        (y,), _ = measure_registers(state, [bits + 1], rng=rng)
        counts[y] += 1
    expected = trials / 16
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < CHI2_CRIT_DF15


def test_coherent_samp_deterministic_given_seed():
    bits = 4
    kp = ideal_pair(bits, seed=10)
    state = tcf.coherent_samp(kp.pk, fresh_samp_state(bits), 0, list(range(1, bits + 2)))
    ys = set()
    for _ in range(3):
        rng = np.random.default_rng(11)
        (y,), _ = measure_registers(state, [bits + 1], rng=rng)
        ys.add(y)
    assert len(ys) == 1


def test_coherent_samp_register_validation():
    bits = 4
    kp = ideal_pair(bits)
    with pytest.raises(ValueError):
        tcf.coherent_samp(kp.pk, fresh_samp_state(bits), 0, list(range(1, bits + 1)))
    bad_dims = (2,) + (2,) * bits + (8,)
    bad = StateVector.basis(bad_dims, (0,) * (bits + 2))
    with pytest.raises(ValueError):
        tcf.coherent_samp(kp.pk, bad, 0, list(range(1, bits + 2)))


def test_coherent_samp_requires_cleared_out_registers():
    bits = 4
    kp = ideal_pair(bits)
    dims = (2,) + (2,) * bits + (1 << bits,)
    dirty = StateVector.basis(dims, (0, 1) + (0,) * bits)
    with pytest.raises(ValueError):
        tcf.coherent_samp(kp.pk, dirty, 0, list(range(1, bits + 2)))


def random_state(dims, rng):
    amps = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return StateVector(dims, amps / np.linalg.norm(amps))


# (dims, control): the control first, in the middle and last, next to a qutrit
CLAW_LAYOUTS = [((2,), 0), ((2, 2), 0), ((2, 2), 1), ((2, 2, 2), 0), ((2, 2, 2), 1),
                ((2, 2, 2), 2), ((3, 2, 2), 1), ((2, 3, 2), 2), ((2, 2, 3), 0)]


@pytest.mark.parametrize("bits", [3, 4, 5, 6])
@pytest.mark.parametrize("dims,control", CLAW_LAYOUTS)
def test_measure_claw_matches_the_dense_reference(bits, dims, control, dense_claw):
    kp = ideal_pair(bits, seed=bits)
    states = np.random.default_rng(20 + bits)
    for trial in range(8):
        state = random_state(dims, states)
        rng, ref_rng = (np.random.default_rng(100 * bits + trial) for _ in range(2))
        y, x0, x1, post = tcf.measure_claw(kp.pk, state, control, rng)
        with dense_claw():
            ref_y, ref_x0, ref_x1, ref_post = tcf.measure_claw(kp.pk, state, control, ref_rng)
        assert (y, x0, x1) == (ref_y, ref_x0, ref_x1) == (y,) + tcf.claw(kp.sk, y)
        assert post.dims == ref_post.dims == dims + (2,) * bits
        assert np.allclose(post.amps, ref_post.amps, rtol=0, atol=1e-12)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_measure_claw_validates_its_inputs():
    kp = ideal_pair(4)
    rng = np.random.default_rng(21)
    state = StateVector.basis((2, 3), (0, 0))
    for control in (1, 2, -1):
        with pytest.raises(ValueError, match="control must be a qubit"):
            tcf.measure_claw(kp.pk, state, control, rng)
    with pytest.raises(ValueError, match="explicit rng"):
        tcf.measure_claw(kp.pk, state, 0, None)


def test_keypair_json_roundtrip():
    kp = ideal_pair(6, hidden=1, seed=12)
    back = tcf.TcfKeyPair.from_json(kp.to_json())
    assert back.pk == kp.pk
    assert back.sk == kp.sk
    assert back.hidden_bit == 1
    other = ideal_pair(6, hidden=1, seed=13)
    assert other.pk != kp.pk
    assert other.sk != kp.sk


class _NoDrawRng:
    """An rng that fails on any draw, so a check that runs late shows up."""

    def permutation(self, *args, **kwargs):
        raise AssertionError("gen drew a permutation before checking the domain")

    def integers(self, *args, **kwargs):
        raise AssertionError("gen drew a mask before checking the domain")


@pytest.mark.parametrize("bits", [tcf.MAX_DOMAIN_BITS + 1, 64])
def test_gen_bounds_the_domain_before_drawing(bits):
    with pytest.raises(ValueError, match=f"3 to {tcf.MAX_DOMAIN_BITS} bits"):
        tcf.gen(bits, rng=_NoDrawRng())


def test_key_tables_are_read_only():
    kp = ideal_pair(6)
    for table in (*kp.pk.tables, kp.sk.inv_prp, *kp.pk.inverse_tables):
        assert table.dtype == np.int64
        with pytest.raises(ValueError):
            table[0] = 1
    back = tcf.TcfKeyPair.from_json(kp.to_json())
    with pytest.raises(ValueError):
        back.pk.table_array(1)[0] = 1


def test_public_claw_is_the_inverse_of_both_tables():
    kp = ideal_pair(6, seed=15)
    t0, t1 = kp.pk.tables
    for y in range(64):
        claw = tcf.public_claw(kp.pk, y)
        assert claw == (int(np.argsort(t0)[y]), int(np.argsort(t1)[y]))
        assert claw == tcf.claw(kp.sk, y)
        assert all(type(x) is int for x in claw)


def test_key_lookups_take_ints_and_arrays():
    kp = ideal_pair(5, seed=17)
    points = np.arange(32)
    assert np.array_equal(kp.pk.image(points), [tcf.eval(kp.pk, 0, x) for x in range(32)])
    assert kp.pk.image(7) == tcf.eval(kp.pk, 0, 7)
    x0, x1 = kp.pk.claw(points)
    assert list(zip(x0.tolist(), x1.tolist())) == [tcf.public_claw(kp.pk, y) for y in range(32)]
    assert tuple(map(int, kp.pk.claw(7))) == tcf.public_claw(kp.pk, 7)
    assert kp.pk.count is None and kp.pk.n == 5


def test_a_key_chunk_reads_each_row_with_its_own_key():
    rng = np.random.default_rng(18)
    chunk = tcf.gen_many(5, 6, rng)
    assert (chunk.n, chunk.count) == (5, 6)
    points = rng.integers(0, 32, size=(6, 3))
    for i, (inv_prp, delta) in enumerate(zip(*chunk)):
        prp = np.argsort(inv_prp)
        pk = tcf.IdealPublicKey(5, (prp, prp[np.arange(32) ^ delta]))
        assert np.array_equal(chunk.image(points)[i], pk.image(points[i]))
        assert chunk.image(points[:, 0])[i] == pk.image(points[i, 0])
        for got, want in zip(chunk.claw(points), pk.claw(points[i])):
            assert np.array_equal(got[i], want)
        assert tuple(int(x[i]) for x in chunk.claw(points[:, 0])) == \
            tcf.public_claw(pk, int(points[i, 0]))


def test_used_public_key_is_not_kept_alive():
    kp = ideal_pair(6, seed=16)
    tcf.public_claw(kp.pk, 3)
    ref = weakref.ref(kp.pk)
    del kp
    gc.collect()
    assert ref() is None


def test_transcript_table_digest_is_stable():
    # the digest hashes the JSON text of the tables; this value predates
    # the array representation of keys
    game, strategy = games.kcbs()
    _, state = compilers.run_session(game, "1-1", compilers.honest_quantum_prover(strategy),
                                     np.random.default_rng(3))
    body = json.loads(state.transcript().to_json())
    assert body["t2_opad_pk"] == {"domain_bits": 8, "table_digest": "7c1cc4c7137dcbdc"}

