import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxsim import qsim
from ctxsim.qsim import (
    H,
    I2,
    Observable,
    PauliKey,
    StateVector,
    X,
    Z,
    apply_diagonal,
    apply_pauli_pad,
    apply_unitary,
    branch_measure,
    equal_up_to_global_phase,
    measure_observable,
    measure_registers,
    register_distribution,
    remove_registers,
)


def ket(*digits, dims=None):
    if dims is None:
        dims = (2,) * len(digits)
    return StateVector.basis(dims, digits)


def random_state(dims, rng):
    n = int(np.prod(dims))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(dims, v / np.linalg.norm(v))


def test_basis_index_is_msb_first():
    s = StateVector.basis((2, 2), (1, 0))
    assert s.amps[2] == 1.0


def test_norm_validation():
    with pytest.raises(ValueError):
        StateVector((2,), [1.0, 1.0])


def test_apply_x_flips():
    assert np.allclose(apply_unitary(ket(0), X, [0]).amps, ket(1).amps)


def test_identity_is_noop():
    rng = np.random.default_rng(7)
    s = random_state((2, 3), rng)
    assert np.allclose(apply_unitary(s, np.eye(6), [0, 1]).amps, s.amps)


def test_h_involution():
    s = apply_unitary(apply_unitary(ket(0), H, [0]), H, [0])
    assert np.allclose(s.amps, ket(0).amps, atol=1e-9)


def test_apply_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        apply_unitary(ket(0), np.array([[1, 1], [0, 1]]), [0])


def test_apply_unitary_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_unitary(ket(0, 0), np.kron(X, X), [0])


def test_measure_z_on_zero_is_deterministic():
    rng = np.random.default_rng(0)
    val, post = measure_observable(ket(0), Observable(Z), [0], rng)
    assert val == pytest.approx(1.0)
    assert np.allclose(post.amps, ket(0).amps)


def test_measure_x_on_zero_is_balanced():
    rng = np.random.default_rng(42)
    obs = Observable(X)
    hits = sum(measure_observable(ket(0), obs, [0], rng)[0] > 0 for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.01


def test_repeated_measurement_is_idempotent():
    rng = np.random.default_rng(3)
    obs = Observable(X)
    for _ in range(20):
        val, post = measure_observable(ket(0), obs, [0], rng)
        val2, _ = measure_observable(post, obs, [0], rng)
        assert val2 == pytest.approx(val)


def test_commuting_joint_distribution_order_independent():
    # X(x)X then Z(x)Z on |00> versus the reverse order, exact from projectors.
    xx = Observable(np.kron(X, X))
    zz = Observable(np.kron(Z, Z))
    s = ket(0, 0)

    def joint(first, second):
        table = {}
        for v1, p1, post in branch_measure(s, first, [0, 1]):
            if post is None:
                continue
            for v2, p2, _ in branch_measure(post, second, [0, 1]):
                table[(round(v1), round(v2))] = table.get((round(v1), round(v2)), 0.0) + p1 * p2
        return table

    ab = joint(xx, zz)
    ba = {(k[1], k[0]): v for k, v in joint(zz, xx).items()}
    for k in set(ab) | set(ba):
        assert ab.get(k, 0.0) == pytest.approx(ba.get(k, 0.0), abs=1e-12)


def test_standard_measure_of_plus_is_balanced():
    rng = np.random.default_rng(5)
    plus = apply_unitary(ket(0), H, [0])
    hits = sum(measure_registers(plus, [0], "standard", rng)[0][0] for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_hadamard_measure_of_plus_is_deterministic():
    rng = np.random.default_rng(6)
    plus = apply_unitary(ket(0), H, [0])
    digits, _ = measure_registers(plus, [0], "hadamard", rng)
    assert digits == (0,)


def test_hadamard_measure_rejects_qutrit():
    rng = np.random.default_rng(0)
    s = StateVector.basis((3,), (0,))
    with pytest.raises(ValueError):
        measure_registers(s, [0], "hadamard", rng)


def test_hadamard_measure_leaves_phase_kickback():
    # (|0>|x0> + |1>|x1>)/sqrt(2) with x0=00, x1=11; measuring the x block in
    # the hadamard basis gives d and leaves Z^(d.(x0^x1)) |+> on the control.
    # Hand expansion: H(x)H maps the block to (1/2) sum_d (-1)^(d.x) |d>, so the
    # leftover control amplitude at d is |0> + (-1)^(d1+d2) |1> up to norm.
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = 1 / np.sqrt(2)
    amps[0b111] = 1 / np.sqrt(2)
    s = StateVector((2, 2, 2), amps)

    dist = register_distribution(s, [1, 2], "hadamard")
    assert dist == pytest.approx({d: 0.25 for d in dist})
    assert len(dist) == 4

    plus = apply_unitary(ket(0), H, [0])
    seen = set()
    for seed in range(64):
        rng = np.random.default_rng(seed)
        d, post = measure_registers(s, [1, 2], "hadamard", rng)
        seen.add(d)
        leftover = remove_registers(post, [1, 2])
        parity = d[0] ^ d[1]
        expected = apply_pauli_pad(plus, PauliKey((0,), (parity,)), [0])
        assert equal_up_to_global_phase(leftover, expected, 1e-9)
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_remove_registers_rejects_entangled_block():
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = amps[0b11] = 1 / np.sqrt(2)
    s = StateVector((2, 2), amps)
    with pytest.raises(ValueError):
        remove_registers(s, [1])


def test_pauli_pad_trivials():
    assert np.allclose(apply_pauli_pad(ket(0), PauliKey((1,), (0,)), [0]).amps, ket(1).amps)
    plus = apply_unitary(ket(0), H, [0])
    minus = apply_unitary(ket(1), H, [0])
    assert equal_up_to_global_phase(apply_pauli_pad(plus, PauliKey((0,), (1,)), [0]), minus)


def test_pauli_pad_length_mismatch():
    with pytest.raises(ValueError):
        apply_pauli_pad(ket(0, 0), PauliKey((1,), (0,)), [0, 1])


def test_pauli_key_xor_is_componentwise_and_needs_equal_lengths():
    k = PauliKey((1, 0), (1, 1)) ^ PauliKey((1, 1), (0, 1))
    assert k == PauliKey((0, 1), (1, 0))
    assert all(type(b) is int for b in k.bits())
    with pytest.raises(ValueError, match="key length mismatch"):
        PauliKey((1,), (0,)) ^ PauliKey((1, 0), (0, 0))


def test_equal_up_to_global_phase_examples():
    e = np.exp(1j * np.pi / 3)
    assert equal_up_to_global_phase(ket(0), StateVector((2,), [e, 0]))
    assert not equal_up_to_global_phase(ket(0), ket(1))
    plus = apply_unitary(ket(0), H, [0])
    minus = apply_unitary(ket(1), H, [0])
    assert equal_up_to_global_phase(apply_unitary(plus, Z, [0]), minus)
    with pytest.raises(ValueError):
        equal_up_to_global_phase(ket(0), ket(0, 0))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pad_involution_up_to_phase(seed):
    rng = np.random.default_rng(seed)
    s = random_state((2, 2), rng)
    k = PauliKey.uniform(2, rng)
    twice = apply_pauli_pad(apply_pauli_pad(s, k, [0, 1]), k, [0, 1])
    assert equal_up_to_global_phase(twice, s, 1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pad_composition_is_xor(seed):
    rng = np.random.default_rng(seed)
    s = random_state((2, 2, 2), rng)
    a = PauliKey.uniform(3, rng)
    b = PauliKey.uniform(3, rng)
    lhs = apply_pauli_pad(apply_pauli_pad(s, a, [0, 1, 2]), b, [0, 1, 2])
    rhs = apply_pauli_pad(s, b ^ a, [0, 1, 2])
    assert equal_up_to_global_phase(lhs, rhs, 1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_norm_preserved_by_random_unitary(seed):
    rng = np.random.default_rng(seed)
    s = random_state((2, 3), rng)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u, _ = np.linalg.qr(g)
    out = apply_unitary(s, u, [0, 1])
    assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-9


def test_observable_requires_hermitian():
    with pytest.raises(ValueError):
        Observable(np.array([[0, 1], [0, 0]]))


def test_observable_eigensystem_clusters_and_resolves_identity():
    obs = Observable(np.kron(Z, I2))
    assert len(obs.eigensystem) == 2
    total = sum(p for _, p in obs.eigensystem)
    assert np.allclose(total, np.eye(4), atol=1e-9)
    for _, p in obs.eigensystem:
        assert np.allclose(p @ p, p, atol=1e-9)


def test_measure_targets_out_of_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        measure_observable(ket(0), Observable(Z), [1], rng)


def test_pauli_key_payload_roundtrip():
    k = PauliKey((1, 0, 1), (0, 0, 1))
    assert PauliKey.from_bits(k.bits()) == k


def test_pauli_key_refuses_non_integers():
    for x, z in (((1.0,), (0.2,)), ((0.5,), (0,)), ((1,), (1.0,)), ((2,), (0,))):
        with pytest.raises(ValueError, match="pad keys are bit strings"):
            PauliKey(x, z)
    with pytest.raises(ValueError, match="pad keys are bit strings"):
        PauliKey.from_bits((1.0, 0.4))
    k = PauliKey((np.int64(1), np.array(0)), (np.uint8(1), True))
    assert k == PauliKey((1, 0), (1, 1))
    assert all(type(b) is int for b in k.x + k.z)


# Reference kernels: move the targets to the front by a transpose, act on
# the (block, rest) matrix, transpose back.  The kernels under test read
# consecutive targets through views instead.

def ref_to_front(amps, dims, targets):
    rest = [i for i in range(len(dims)) if i not in targets]
    perm = list(targets) + rest
    block = int(np.prod([dims[t] for t in targets]))
    return amps.reshape(dims).transpose(perm).reshape(block, -1), perm


def ref_from_front(arr, dims, perm):
    return arr.reshape([dims[p] for p in perm]).transpose(np.argsort(perm)).reshape(-1)


def ref_apply(state, m, targets):
    arr, perm = ref_to_front(state.amps, state.dims, targets)
    return ref_from_front(m @ arr, state.dims, perm)


def ref_rotate(state, targets, basis):
    amps = state.amps
    if basis == "hadamard":
        for t in targets:
            amps = ref_apply(StateVector(state.dims, amps), H, [t])
    return amps


def ref_measure_registers(state, targets, basis, rng):
    amps = ref_rotate(state, targets, basis)
    arr, perm = ref_to_front(amps, state.dims, targets)
    probs = np.einsum("ij,ij->i", arr, arr.conj()).real
    r = rng.random() * float(probs.sum())
    acc = 0.0
    idx = len(probs) - 1
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            idx = i
            break
    collapsed = np.zeros_like(arr)
    collapsed[idx] = arr[idx] / np.sqrt(probs[idx])
    return idx, ref_from_front(collapsed, state.dims, perm)


def ref_remove_registers(state, targets):
    arr, _ = ref_to_front(state.amps, state.dims, targets)
    weights = np.einsum("ij,ij->i", arr, arr.conj()).real
    row = arr[int(np.argmax(weights))]
    return row / np.linalg.norm(row)


def ref_distribution(state, targets, basis):
    arr, _ = ref_to_front(ref_rotate(state, targets, basis), state.dims, targets)
    return np.einsum("ij,ij->i", arr, arr.conj()).real


def pauli_matrix(dims, key, targets):
    """kron of X^x Z^z on the padded qubits and identities elsewhere."""
    factors = [np.eye(d) for d in dims]
    for t, x, z in zip(targets, key.x, key.z):
        factors[t] = np.linalg.matrix_power(X, x) @ np.linalg.matrix_power(Z, z) @ factors[t]
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


# (dims, targets): a qutrit sits between padded qubits in the last layouts.
PAD_LAYOUTS = [((2,), [0]), ((2, 2), [0, 1]), ((2, 2), [1, 0]), ((2, 2, 2), [0, 1, 2]),
               ((2, 2, 2), [2, 0, 1]), ((2, 3, 2), [0, 2]), ((2, 3, 2), [2, 0]),
               ((2, 3, 2, 2), [0, 2, 3])]


@pytest.mark.parametrize("dims,targets", PAD_LAYOUTS)
def test_pauli_pad_equals_kron_reference_for_every_key(dims, targets):
    rng = np.random.default_rng(11)
    s = random_state(dims, rng)
    n = len(targets)
    for bits in itertools.product((0, 1), repeat=2 * n):
        key = PauliKey(bits[:n], bits[n:])
        out = apply_pauli_pad(s, key, targets)
        assert np.allclose(out.amps, pauli_matrix(dims, key, targets) @ s.amps, rtol=0, atol=1e-12)


def test_pauli_pad_rejects_bad_targets():
    with pytest.raises(ValueError):
        apply_pauli_pad(ket(0, dims=(3,)), PauliKey((1,), (0,)), [0])
    with pytest.raises(ValueError):
        apply_pauli_pad(ket(0), PauliKey((1,), (0,)), [1])


# (dims, targets): consecutive, non-consecutive and reversed target lists.
TARGET_LAYOUTS = [((2, 3, 2), [1]), ((2, 2, 2, 2), [1, 2]), ((2, 3, 2, 2), [1, 2, 3]),
                  ((2, 2, 2, 2), [0, 2]), ((2, 3, 2, 2), [3, 1]), ((2, 2, 2), [2, 1, 0]),
                  ((2, 2, 2, 2), [3, 2]), ((2, 2, 2, 2, 2), [1]), ((3, 2, 2), [])]


@pytest.mark.parametrize("dims,targets", TARGET_LAYOUTS)
def test_apply_diagonal_equals_dense_unitary(dims, targets):
    rng = np.random.default_rng(12)
    s = random_state(dims, rng)
    block = int(np.prod([dims[t] for t in targets]))
    phases = np.exp(2j * np.pi * rng.random(block))
    out = apply_diagonal(s, phases, targets)
    assert np.allclose(out.amps, apply_unitary(s, np.diag(phases), targets).amps, rtol=0, atol=1e-12)
    assert np.allclose(out.amps, ref_apply(s, np.diag(phases), targets), rtol=0, atol=1e-12)


def test_apply_diagonal_rejects_bad_phases():
    s = ket(0, 0)
    with pytest.raises(ValueError):
        apply_diagonal(s, [1.0, 1.0, 1.0, 1.001], [0, 1])
    with pytest.raises(ValueError):
        apply_diagonal(s, [1.0, 0.5j], [0])
    with pytest.raises(ValueError):
        apply_diagonal(s, [1.0, 1.0, 1.0], [0])
    with pytest.raises(ValueError):
        apply_diagonal(s, [1.0, -1.0], [0, 1])


@pytest.mark.parametrize("dims,targets", TARGET_LAYOUTS)
def test_unitary_and_branch_measure_match_reference(dims, targets):
    rng = np.random.default_rng(13)
    s = random_state(dims, rng)
    block = int(np.prod([dims[t] for t in targets]))
    u, _ = np.linalg.qr(rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block)))
    assert np.allclose(apply_unitary(s, u, targets).amps, ref_apply(s, u, targets), rtol=0, atol=1e-12)
    g = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
    obs = Observable(g + g.conj().T)
    for (val, p, post), (_, proj) in zip(branch_measure(s, obs, targets), obs.eigensystem):
        raw = ref_apply(s, proj, targets)
        assert p == pytest.approx(float(np.vdot(raw, raw).real), abs=1e-12)
        assert np.allclose(post.amps, raw / np.sqrt(p), rtol=0, atol=1e-12)


@pytest.mark.parametrize("basis", ["standard", "hadamard"])
@pytest.mark.parametrize("dims,targets", TARGET_LAYOUTS)
def test_register_measurement_matches_reference(dims, targets, basis):
    if basis == "hadamard" and any(dims[t] != 2 for t in targets):
        return
    rng = np.random.default_rng(14)
    tdims = [dims[t] for t in targets]
    for trial in range(20):
        s = random_state(dims, rng)
        probs = ref_distribution(s, targets, basis)
        dist = register_distribution(s, targets, basis)
        for i, p in enumerate(probs):
            assert dist[qsim._digits_of(i, tdims)] == pytest.approx(p, abs=1e-12)

        seed = 1000 * trial + len(targets)
        idx, ref_post = ref_measure_registers(s, targets, basis, np.random.default_rng(seed))
        digits, post = measure_registers(s, targets, basis, np.random.default_rng(seed))
        assert digits == qsim._digits_of(idx, tdims)
        assert np.allclose(post.amps, ref_post, rtol=0, atol=1e-12)

        kept = remove_registers(post, targets)
        assert kept.dims == tuple(d for i, d in enumerate(dims) if i not in targets)
        assert np.allclose(kept.amps, ref_remove_registers(post, targets), rtol=0, atol=1e-12)


class FixedDraw:
    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def test_measure_registers_falls_back_to_the_last_outcome():
    # r equals the total weight, so no running sum exceeds it.
    digits, post = measure_registers(apply_unitary(ket(0, 0), np.kron(H, H), [0, 1]), [0, 1], rng=FixedDraw(1.0))
    assert digits == (1, 1)
    assert np.allclose(post.amps, ket(1, 1).amps)


def test_measure_registers_never_picks_a_zero_weight_outcome():
    # A draw of exactly 0 equals the running sum of the leading zero weights.
    s = StateVector((3,), np.array([0, 1, 1]) / np.sqrt(2))
    assert measure_registers(s, [0], rng=FixedDraw(0.0))[0] == (1,)
    assert measure_registers(s, [0], rng=FixedDraw(0.5))[0] == (2,)


def test_every_result_is_read_only():
    rng = np.random.default_rng(15)
    s = random_state((2, 2, 2), rng)
    obs = Observable(np.kron(X, Z))
    _, measured = measure_registers(s, [1, 2], "hadamard", rng)
    results = [s, ket(0, 1), s.tensor(ket(1)), apply_unitary(s, H, [1]),
               apply_diagonal(s, [1, -1], [2]), apply_pauli_pad(s, PauliKey((1, 0), (1, 1)), [0, 2]),
               measure_observable(s, obs, [0, 2], rng)[1], measured,
               remove_registers(measured, [1, 2])]
    results += [post for _, _, post in branch_measure(s, obs, [2, 0]) if post is not None]
    for state in results:
        assert not state.amps.flags.writeable
        with pytest.raises(ValueError):
            state.amps[0] = 0


def test_public_constructor_copies_caller_data():
    amps = np.array([1.0, 0.0], dtype=complex)
    s = StateVector((2,), amps)
    amps[:] = [0.0, 1.0]
    assert np.array_equal(s.amps, [1.0, 0.0])
    assert amps.flags.writeable


def test_check_norms_takes_any_leading_shape():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    qsim.check_norms(plus)
    qsim.check_norms(np.tile(plus, (3, 2, 1)))
    for bad in (2 * plus, np.array([[1.0, 0.0], [0.5, 0.5]])):
        with pytest.raises(ValueError, match="is not 1"):
            qsim.check_norms(bad)


def test_private_constructor_still_checks_norm_and_size():
    with pytest.raises(ValueError):
        StateVector._own((2,), np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector._own((2, 2), np.array([1.0, 0.0], dtype=complex))


def test_state_size_is_bounded_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_AMPS"):
            StateVector.basis((2,) * 23, (0,) * 23)
        with pytest.raises(ValueError, match="MAX_AMPS"):
            ket(*(0,) * 12).tensor(ket(*(0,) * 11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_state_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(qsim, "MAX_AMPS", 16)
    assert StateVector.basis((2,) * 4, (0,) * 4).tensor(StateVector.basis((), ())).dims == (2,) * 4
    with pytest.raises(ValueError):
        StateVector.basis((2,) * 5, (0,) * 5)
    with pytest.raises(ValueError):
        ket(0, 0, 0).tensor(ket(0, 0))


@pytest.mark.parametrize("targets", [[13, 14, 15], [0, 1, 2], [0, 15], [7, 2, 11]])
def test_hadamard_measurement_past_one_rotation_block(targets):
    # 2^16 amplitudes: the butterfly runs in several blocks of rows
    rng = np.random.default_rng(15)
    s = random_state((2,) * 16, rng)
    idx, ref_post = ref_measure_registers(s, targets, "hadamard", np.random.default_rng(16))
    digits, post = measure_registers(s, targets, "hadamard", np.random.default_rng(16))
    assert digits == qsim._digits_of(idx, [2] * len(targets))
    assert np.allclose(post.amps, ref_post, rtol=0, atol=1e-12)


def test_hadamard_measurement_collapses_in_place():
    rng = np.random.default_rng(17)
    s = random_state((2,) * 20, rng)
    for targets in (range(12, 20), range(0, 8)):
        tracemalloc.start()
        measure_registers(s, targets, "hadamard", rng)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 1.25 * s.amps.nbytes
