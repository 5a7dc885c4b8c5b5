import copy
import gc
import hashlib
import itertools
import json
import math
import tracemalloc
import weakref
from fractions import Fraction

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
        x0, x1 = kp.sk.claw(y)
        assert tcf.first_bit(x0, 8) ^ tcf.first_bit(x1, 8) == 1


def test_hidden_bit_zero_on_every_claw():
    kp = ideal_pair(8, hidden=0)
    for y in range(256):
        x0, x1 = kp.sk.claw(y)
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

    x0, x1 = kp.sk.claw(y)
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
        assert (y, x0, x1) == (ref_y, ref_x0, ref_x1) == (y,) + kp.sk.claw(y)
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
    for table in kp.pk.tables:
        assert table.dtype == np.int64
        with pytest.raises(ValueError):
            table[0] = 1
    back = tcf.TcfKeyPair.from_json(kp.to_json())
    with pytest.raises(ValueError):
        back.pk.tables[1][0] = 1


def test_chunk_arrays_are_read_only():
    chunk = tcf.gen_many(5, 4, np.random.default_rng(19), hidden=[0, 1, 1, 0])
    tables = chunk.tables
    row = chunk.row(2)
    for array in (chunk.delta, *tables, *row.tables):
        assert array.dtype == np.int64
        with pytest.raises(ValueError):
            array[0] = 1


def test_gen_returns_one_key_as_pk_and_sk():
    kp = ideal_pair(5, hidden=1, seed=20)
    assert kp.pk is kp.sk
    assert (kp.pk.n, kp.pk.count, kp.pk.pairs()) == (5, None, [])
    assert type(kp.pk.delta) is int and tcf.first_bit(kp.pk.delta, 5) == 1
    # the completed tables keep the points fixed before completion
    y, (x0, x1) = kp.pk.image(3), kp.sk.claw(9)
    t0, t1 = kp.pk.tables
    assert (t0[3], t0[x0], t1[x1]) == (y, 9, 9)
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


def lazy_key_json(edit):
    """The JSON of a 5-bit key with three points fixed, after edit(body)."""
    kp = ideal_pair(5, hidden=0, seed=21)
    kp.pk.image(1), kp.pk.image(4), kp.sk.claw(7)
    body = json.loads(kp.to_json())
    edit(body)
    return json.dumps(body)


def test_from_json_refuses_a_repeated_x():
    def edit(body):
        body["assigned"][1][0] = body["assigned"][0][0]
    with pytest.raises(ValueError, match="fixed x or y repeats"):
        tcf.TcfKeyPair.from_json(lazy_key_json(edit))


def test_from_json_refuses_a_repeated_y():
    def edit(body):
        body["assigned"][2][1] = body["assigned"][0][1]
    with pytest.raises(ValueError, match="fixed x or y repeats"):
        tcf.TcfKeyPair.from_json(lazy_key_json(edit))


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("point", [-1, 32, 1.0, "3"])
def test_from_json_refuses_a_point_outside_the_domain(side, point):
    def edit(body):
        body["assigned"][0][side] = point
    with pytest.raises(ValueError, match="outside the domain"):
        tcf.TcfKeyPair.from_json(lazy_key_json(edit))


@pytest.mark.parametrize("delta", [0, 32, -3, 2.0])
def test_from_json_refuses_a_delta_outside_the_domain(delta):
    def edit(body):
        body["delta"], body["hidden_bit"] = delta, None
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 2\^n\)"):
        tcf.TcfKeyPair.from_json(lazy_key_json(edit))


def test_from_json_refuses_a_delta_off_the_hidden_bit():
    def edit(body):
        body["hidden_bit"] = 1
    with pytest.raises(ValueError, match="hidden bit disagrees"):
        tcf.TcfKeyPair.from_json(lazy_key_json(edit))


@pytest.mark.parametrize("field, value, message", [
    ("domain_bits", 5.0, "domain_bits must be an integer"),
    ("domain_bits", "5", "domain_bits must be an integer"),
    ("hidden_bit", 2, "hidden bit must be 0 or 1"),
    ("hidden_bit", 0.0, "hidden bit must be 0 or 1"),
])
def test_from_json_refuses_a_non_integer_width_or_hidden_bit(field, value, message):
    def edit(body):
        body[field] = value
    with pytest.raises(ValueError, match=message):
        tcf.TcfKeyPair.from_json(lazy_key_json(edit))


def test_key_json_holds_delta_and_the_fixed_points_and_draws_nothing():
    rng = np.random.default_rng(25)
    kp = tcf.gen(12, hidden=1, rng=rng)
    fixed = [kp.pk.image(5), kp.sk.claw(3)[0], kp.pk.image(4000)]
    before = rng.bit_generator.state
    text = kp.to_json()
    body = json.loads(text)
    assert rng.bit_generator.state == before
    assert body["delta"] == kp.sk.delta and body["hidden_bit"] == 1
    assert body["assigned"] == sorted([[5, fixed[0]], [fixed[1], 3], [4000, fixed[2]]])
    back = tcf.TcfKeyPair.from_json(text)
    assert back == kp and back.pk == kp.pk and back.pk.rng is None
    assert back.sk.claw(3) == kp.sk.claw(3)
    with pytest.raises(ValueError, match="no generator"):
        back.pk.image(6)


def test_keys_are_equal_when_delta_and_the_fixed_points_are():
    a, b = (tcf.gen(6, rng=np.random.default_rng(27)).pk for _ in range(2))
    assert a == b
    a.image(2)
    assert a != b
    b.image(2)
    assert a == b
    b.claw(0)
    assert a != b
    rows = [tcf.gen_many(6, 3, np.random.default_rng(28)) for _ in range(2)]
    assert rows[0] == rows[1]
    rows[0].claw(np.array([1, 2, 3]))
    assert rows[0] != rows[1]
    rows[1].claw(np.array([1, 2, 3]))
    assert rows[0] == rows[1] and rows[0].row(1) == rows[1].row(1) != rows[1].row(2)


def test_public_claw_is_the_inverse_of_both_tables():
    kp = ideal_pair(6, seed=15)
    t0, t1 = kp.pk.tables
    for y in range(64):
        claw = tcf.public_claw(kp.pk, y)
        assert claw == (int(np.argsort(t0)[y]), int(np.argsort(t1)[y]))
        assert claw == kp.sk.claw(y)
        assert all(type(x) is int for x in claw)


def test_the_first_claw_lookup_builds_no_table():
    kp = ideal_pair(16, seed=23)
    tracemalloc.start()
    try:
        claws = [tcf.public_claw(kp.pk, 12345), kp.sk.claw(54321)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 12  # a 2^16-entry int64 table takes 2^19 bytes
    assert claws[0][0] ^ claws[0][1] == claws[1][0] ^ claws[1][1] == kp.sk.delta


def test_claw_lookups_refuse_non_integers():
    kp = ideal_pair(5, seed=24)
    for y in (3.7, 3.0, "3", None):
        for lookup in (tcf.public_claw, tcf.IdealKey.claw):
            with pytest.raises(ValueError, match="not in the image"):
                lookup(kp.pk, y)
    for y in (np.int64(3), np.uint8(3), np.array(3)):
        assert tcf.public_claw(kp.pk, y) == kp.sk.claw(y) == kp.sk.claw(3)


def test_key_lookups_take_ints_and_arrays():
    # one key reads ints; arrays go to a chunk
    kp = ideal_pair(5, seed=17)
    assert [kp.pk.image(x) for x in range(32)] == [tcf.eval(kp.pk, 0, x) for x in range(32)]
    assert kp.pk.image(7) == tcf.eval(kp.pk, 0, 7)
    assert [kp.pk.claw(y) for y in range(32)] == [tcf.public_claw(kp.pk, y) for y in range(32)]
    assert tuple(map(int, kp.pk.claw(7))) == tcf.public_claw(kp.pk, 7)
    assert kp.pk.count is None and kp.pk.n == 5
    with pytest.raises(ValueError, match="outside the domain"):
        kp.pk.image(np.arange(2))
    with pytest.raises(ValueError, match="not in the image"):
        kp.pk.claw(np.array([[1]]))


def test_a_key_and_its_one_row_chunk_answer_alike():
    # drawn from equal generators, they fix the same points in the same order
    for seed in range(6):
        key = ideal_pair(5, hidden=seed % 2, seed=30 + seed).pk
        row = tcf.gen_many(5, 1, np.random.default_rng(30 + seed), hidden=[seed % 2])
        assert (row.n, row.count, row.delta.tolist()) == (5, 1, [key.delta])
        assert tuple(int(x[0]) for x in row.claw(np.array([7]))) == key.claw(7)
        points = np.arange(32)
        assert np.array_equal(row.image(points[:1]), [key.image(0)])
        assert np.array_equal(row.image(points[None]), [[key.image(x) for x in range(32)]])
        for got, want in zip(row.claw(points[None]), zip(*[key.claw(y) for y in range(32)])):
            assert np.array_equal(got, [want])
        assert row.row(0) == key


def test_a_key_chunk_reads_each_row_with_its_own_key():
    rng = np.random.default_rng(18)
    chunk = tcf.gen_many(5, 6, rng)
    assert (chunk.n, chunk.count) == (5, 6)
    points = rng.integers(0, 32, size=(6, 3))
    images, first = chunk.image(points), chunk.image(points[:, 0])
    claws, first_claws = chunk.claw(points), chunk.claw(points[:, 0])
    before = rng.bit_generator.state
    for i in range(6):
        # row i holds the points the chunk fixed on its row, and reads them without a draw
        pk = chunk.row(i)
        assert images[i].tolist() == [pk.image(x) for x in points[i].tolist()]
        assert first[i] == images[i, 0] == pk.image(int(points[i, 0]))
        assert (list(zip(claws[0][i].tolist(), claws[1][i].tolist()))
                == [pk.claw(y) for y in points[i].tolist()])
        assert tuple(int(x[i]) for x in first_claws) == tcf.public_claw(pk, int(points[i, 0]))
        # a row is detached: it cannot fix a point the chunk would not record
        free = next(x for x in range(32) if x not in dict(pk.pairs()))
        with pytest.raises(ValueError, match="no generator"):
            pk.image(free)
    assert rng.bit_generator.state == before
    assert (np.sort(chunk.tables[0], axis=1) == np.arange(32)).all()


@pytest.mark.parametrize("bits", [4, 5])
def test_a_chunk_call_reads_its_columns_as_separate_calls_would(bits):
    chunk = tcf.gen_many(bits, 5, np.random.default_rng(40 + bits))
    # earlier lookups fix x = 1 by image and y = 2 by claw on every row
    y1 = chunk.image(np.full(5, 1))
    x2, _ = chunk.claw(np.full(5, 2))
    for lookup, known, other in (("image", x2, 1), ("claw", y1, 2)):
        # per row: a point fixed earlier, twice, then a fresh one; a fresh
        # point thrice; three fresh points; a fixed point between fresh ones;
        # only points fixed earlier
        k = known.tolist()
        points = np.array([[k[0], k[0], 3], [5, 5, 5], [5, 6, 7], [8, k[3], 9],
                           [k[4], other, k[4]]])
        ref = copy.deepcopy(chunk)
        got = getattr(chunk, lookup)(points)
        cols = [getattr(ref, lookup)(points[:, j]) for j in range(3)]
        if lookup == "image":
            assert np.array_equal(got, np.column_stack(cols))
        else:
            for side in (0, 1):
                assert np.array_equal(got[side], np.column_stack([c[side] for c in cols]))
        assert [chunk.row(i).pairs() for i in range(5)] == [ref.row(i).pairs() for i in range(5)]
        assert chunk.rng.bit_generator.state == ref.rng.bit_generator.state
        assert chunk == ref


def test_used_public_key_is_not_kept_alive():
    kp = ideal_pair(6, seed=16)
    tcf.public_claw(kp.pk, 3)
    ref = weakref.ref(kp.pk)
    del kp
    gc.collect()
    assert ref() is None


def test_transcript_table_digest_is_stable():
    # the digest hashes the JSON text of [delta, the fixed (x, P(x)) pairs]
    game, strategy = games.kcbs()
    _, state = compilers.run_session(game, "1-1", compilers.honest_quantum_prover(strategy),
                                     np.random.default_rng(3))
    pk = state.message1.opad_pk
    text = json.dumps([pk.delta, pk.pairs()])
    assert len(pk.pairs()) == 4  # two qubits, an X and a Z slot each
    body = json.loads(json.dumps(state.transcript().as_dict()))
    assert body["t2_opad_pk"] == {"domain_bits": 8,
                                  "table_digest": hashlib.sha256(text.encode()).hexdigest()[:16]}
    assert body["t2_opad_pk"]["table_digest"] == "92a5d521ddb1e581"



def test_key_lookups_refuse_points_outside_the_domain():
    kp = tcf.gen(4, rng=np.random.default_rng(29))
    for point in (-1, 16, 99):
        with pytest.raises(ValueError, match="outside the domain"):
            kp.pk.image(point)
        with pytest.raises(ValueError, match="not in the image"):
            kp.pk.claw(point)
        with pytest.raises(ValueError):
            kp.pk.image(np.array([3, point]))
    chunk = tcf.gen_many(4, 3, np.random.default_rng(30))
    for points in (np.array([16, 99, -1]), np.array([0, 1, -1]), np.array([[0, 1], [2, 16], [3, 4]])):
        with pytest.raises(ValueError, match="outside the domain"):
            chunk.image(points)
        with pytest.raises(ValueError, match="not in the image"):
            chunk.claw(points)
    assert kp.pk.pairs() == [] and chunk == tcf.gen_many(4, 3, np.random.default_rng(30))


def test_gen_draws_only_the_mask():
    for hidden in (None, 0, 1):
        rng, ref = np.random.default_rng(31), np.random.default_rng(31)
        kp = tcf.gen(20, hidden=hidden, rng=rng)
        assert kp.pk.delta == int(tcf._masks(20, hidden, ref))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert kp.pk.rng is rng and kp.pk.pairs() == []
    rng, ref = np.random.default_rng(32), np.random.default_rng(32)
    chunk = tcf.gen_many(20, 256, rng, hidden=np.arange(256) % 2)
    assert chunk.delta.tolist() == tcf._masks(20, np.arange(256) % 2, ref, 256).tolist()
    assert rng.bit_generator.state == ref.bit_generator.state


class ScriptedRng:
    """Stands in for the generator of a lazy key: integers(0, high) answers
    each entry of high with the next scripted choice (0 once the script
    runs out) and records the entry's range.  The key asks for whole 64-bit
    outputs, integers(0, m << 32) >> 32, so a choice c comes back as c << 32."""

    def __init__(self, script):
        self.script = script
        self.ranges = []

    def _next(self, m: int) -> int:
        at = len(self.ranges)
        self.ranges.append(m)
        return (self.script[at] if at < len(self.script) else 0) << 32

    def integers(self, low, high):
        assert low == 0
        if np.ndim(high):
            return np.array([self._next(m) for m in (high >> 32).tolist()], dtype=np.int64)
        return self._next(high >> 32)


def choice_tree(run) -> dict:
    """{leaf: 1/probability} over every path of run's scripted choices, each
    choice uniform over its range; run(rng) returns the leaf."""
    leaves, script = {}, []
    while True:
        rng = ScriptedRng(script)
        leaf = run(rng)
        assert leaf not in leaves
        leaves[leaf] = math.prod(rng.ranges)
        # the next path: bump the last choice below its range, drop the rest
        script = script + [0] * (len(rng.ranges) - len(script))
        while script and script[-1] == rng.ranges[len(script) - 1] - 1:
            script.pop()
        if not script:
            return leaves
        script[-1] += 1


def lazy_law(queries) -> dict:
    """{P: probability} of a 3-bit key after queries(rng), which returns the
    key it read, and then completion; completion is enumerated from each
    assignment the queries leave, on one key holding it."""
    law = {}
    fixed = choice_tree(lambda rng: tuple(map(tuple, queries(rng).pairs())))
    for pairs, p in fixed.items():
        completed = choice_tree(lambda rng: tuple(tcf.IdealKey(3, 5, rng, pairs).tables[0].tolist()))
        for perm, q in completed.items():
            assert perm not in law
            law[perm] = Fraction(1, p * q)
    return law


def test_lazy_sampling_has_the_law_of_a_uniform_permutation():
    # claw, image, a repeated point and a point fixed by the other side, then completion
    def one_key(rng):
        key = tcf.IdealKey(3, 5, rng)
        key.claw(6), key.image(2), key.claw(6), key.image(key.claw(1)[0]), key.claw(3)
        return key

    def chunk_row(i):
        # the other row starts complete, so every draw is row i's
        other = [[x, (3 * x + 1) % 8] for x in range(8)]
        pairs = [[], other] if i == 0 else [other, []]

        def queries(rng):
            chunk = tcf.IdealKey(3, np.array([5, 3]), rng, pairs)
            chunk.claw(np.array([6, 6])), chunk.image(np.array([[2, 0], [2, 0]]))
            chunk.claw(np.array([[6, 1], [6, 1]])), chunk.claw(np.array([3, 3]))
            assert chunk.row(1 - i).pairs() == other
            return chunk.row(i)
        return queries

    for queries in (one_key, chunk_row(0), chunk_row(1)):
        law = lazy_law(queries)
        assert len(law) == math.factorial(8)
        assert set(law.values()) == {Fraction(1, 40320)}
        assert set(law) == set(itertools.permutations(range(8)))


def test_a_chunk_completes_each_row_as_its_one_key_would():
    chunk = tcf.gen_many(4, 3, np.random.default_rng(33))
    chunk.claw(np.array([[1, 5], [2, 2], [0, 15]]))
    # one keys with the rows' points and a copy of the chunk's generator, completed in row order
    ref = copy.deepcopy(chunk.rng)
    keys = [tcf.IdealKey(4, chunk.delta[i], ref, chunk.row(i).pairs()) for i in range(3)]
    tables = chunk.tables
    for i, key in enumerate(keys):
        assert np.array_equal(tables[0][i], key.tables[0])
        assert np.array_equal(tables[1][i], key.tables[1])
    assert chunk.row(1).pairs() == keys[1].pairs() == [[x, int(tables[0][1, x])] for x in range(16)]
