import gc
import json
import tracemalloc
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


def test_eval_and_chk_refuse_non_integer_points():
    kp = ideal_pair(8)
    y = tcf.eval(kp.pk, 0, 1)
    for x in (1.0, 1.5, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            tcf.eval(kp.pk, 0, x)
        assert tcf.chk(kp.pk, 0, x, y) == 0
    assert tcf.eval(kp.pk, 0, np.array(1)) == tcf.eval(kp.pk, 0, np.uint8(1)) == y


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
    for table in (*kp.pk.tables, kp.sk.inv_prp):
        assert table.dtype == np.int64
        with pytest.raises(ValueError):
            table[0] = 1
    back = tcf.TcfKeyPair.from_json(kp.to_json())
    with pytest.raises(ValueError):
        back.pk.tables[1][0] = 1


def test_chunk_arrays_are_read_only():
    chunk = tcf.gen_many(5, 4, np.random.default_rng(19), hidden=[0, 1, 1, 0])
    row = tcf.IdealKey(chunk.inv_prp[2], int(chunk.delta[2]))
    for array in (chunk.inv_prp, chunk.delta, row.inv_prp, *row.tables):
        assert array.dtype == np.int64
        with pytest.raises(ValueError):
            array[0] = 1


def test_gen_returns_one_key_as_pk_and_sk():
    kp = ideal_pair(5, hidden=1, seed=20)
    assert kp.pk is kp.sk
    assert (kp.pk.n, kp.pk.count, kp.pk.inv_prp.shape) == (5, None, (32,))
    assert type(kp.pk.delta) is int and tcf.first_bit(kp.pk.delta, 5) == 1
    # the cached forward tables are those the trapdoor gives
    fresh = tcf.IdealKey(kp.sk.inv_prp, kp.sk.delta)
    assert all(np.array_equal(a, b) for a, b in zip(fresh.tables, kp.pk.tables))
    assert isinstance(tcf.gen_many(5, 3, np.random.default_rng(20)), tcf.IdealKey)


def test_gen_refuses_non_integer_hidden_bits():
    for hidden in (0.0, 1.0, 2, "1"):
        with pytest.raises(ValueError, match="hidden bit must be 0 or 1"):
            tcf.gen(4, hidden=hidden, rng=_NoDrawRng())
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError, match="one bit per key"):
        tcf.gen_many(4, 2, rng, hidden=[0.0, 1.0])
    chunk = tcf.gen_many(4, 3, rng, hidden=np.array([True, False, True]))
    assert (chunk.delta >> 3).tolist() == [1, 0, 1]


def test_from_json_refuses_tables_the_trapdoor_does_not_give():
    kp = ideal_pair(5, seed=21)
    body = json.loads(kp.to_json())
    for edit in (lambda b: b["tables"][1].reverse(),
                 lambda b: b["tables"][0].__setitem__(0, b["tables"][0][1]),
                 lambda b: b["secret"].__setitem__("delta", b["secret"]["delta"] ^ 1),
                 lambda b: b["secret"].__setitem__("delta", 0),
                 lambda b: b["secret"]["inv_prp"].__setitem__(0, b["secret"]["inv_prp"][1]),
                 lambda b: b.__setitem__("domain_bits", 6)):
        bad = json.loads(json.dumps(body))
        edit(bad)
        with pytest.raises(ValueError, match="disagree with the trapdoor"):
            tcf.TcfKeyPair.from_json(json.dumps(bad))


def test_public_claw_is_the_inverse_of_both_tables():
    kp = ideal_pair(6, seed=15)
    t0, t1 = kp.pk.tables
    for y in range(64):
        claw = tcf.public_claw(kp.pk, y)
        assert claw == (int(np.argsort(t0)[y]), int(np.argsort(t1)[y]))
        assert claw == tcf.claw(kp.sk, y)
        assert all(type(x) is int for x in claw)


def test_the_first_claw_lookup_builds_no_table():
    kp = ideal_pair(16, seed=23)
    tracemalloc.start()
    try:
        claws = [tcf.public_claw(kp.pk, 12345), tcf.claw(kp.sk, 54321)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 12  # a 2^16-entry int64 table takes 2^19 bytes
    assert claws[0][0] ^ claws[0][1] == claws[1][0] ^ claws[1][1] == kp.sk.delta


def test_claw_lookups_refuse_non_integers():
    kp = ideal_pair(5, seed=24)
    for y in (3.7, 3.0, "3", None):
        for lookup in (tcf.public_claw, tcf.claw):
            with pytest.raises(ValueError, match="not in the image"):
                lookup(kp.pk, y)
    for y in (np.int64(3), np.uint8(3), np.array(3)):
        assert tcf.public_claw(kp.pk, y) == tcf.claw(kp.sk, y) == tcf.claw(kp.sk, 3)


def test_key_lookups_take_ints_and_arrays():
    kp = ideal_pair(5, seed=17)
    points = np.arange(32)
    assert np.array_equal(kp.pk.image(points), [tcf.eval(kp.pk, 0, x) for x in range(32)])
    assert kp.pk.image(7) == tcf.eval(kp.pk, 0, 7)
    x0, x1 = kp.pk.claw(points)
    assert list(zip(x0.tolist(), x1.tolist())) == [tcf.public_claw(kp.pk, y) for y in range(32)]
    assert tuple(map(int, kp.pk.claw(7))) == tcf.public_claw(kp.pk, 7)
    assert kp.pk.count is None and kp.pk.n == 5


def test_a_key_and_its_one_row_chunk_answer_alike():
    for seed in range(6):
        key = ideal_pair(5, hidden=seed % 2, seed=30 + seed).pk
        row = tcf.IdealKey(key.inv_prp[None], np.array([key.delta]))
        assert (row.n, row.count) == (5, 1)
        points = np.arange(32)
        assert np.array_equal(row.image(points[None]), key.image(points)[None])
        assert np.array_equal(row.image(points[:1]), [key.image(0)])
        for got, want in zip(row.claw(points[None]), key.claw(points)):
            assert np.array_equal(got, want[None])
        assert tuple(int(x[0]) for x in row.claw(np.array([7]))) == tcf.claw(key, 7)


def test_a_key_chunk_reads_each_row_with_its_own_key():
    rng = np.random.default_rng(18)
    chunk = tcf.gen_many(5, 6, rng)
    assert (chunk.n, chunk.count) == (5, 6)
    points = rng.integers(0, 32, size=(6, 3))
    for i in range(6):
        pk = tcf.IdealKey(chunk.inv_prp[i], int(chunk.delta[i]))
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

