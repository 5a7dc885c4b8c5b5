"""Dense statevector simulator for small composite registers of qudits.

Registers are indexed by their position in ``dims``.  Bit strings spread
over consecutive qubit registers are read most-significant-bit first:
register j of an n-qubit block carries the bit of weight 2**(n-1-j).

All randomness flows through an injected ``numpy.random.Generator``;
there is no global RNG.  States are immutable, operations return new
states, and the global phase is never normalized away (comparisons go
through :func:`equal_up_to_global_phase`).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

ATOL_STATE = 1e-9
ATOL_EIG = 1e-8
# Measurement branches of smaller weight are numerically zero: never drawn.
BORN_FLOOR = 1e-15
# Largest state basis() and tensor() build: 2^22 complex128 amplitudes,
# 64 MiB.  One basis() at the bound takes about 3 ms (6 ms cold) and holds
# 64 MiB (tracemalloc; one core of a 2-vCPU Xeon VM, numpy 2.4).  A circuit
# pad round holds data * 2^lambda amplitudes: on two qubits it fills the
# bound at lambda 20 (tcf.MAX_DOMAIN_BITS), on three it is refused there.
MAX_AMPS = 2 ** 22

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


class StateVector:
    """Unit-norm amplitude vector over a composite register."""

    __slots__ = ("dims", "amps")

    def __init__(self, dims, amps):
        self._adopt(_checked_dims(dims), np.array(amps, dtype=complex))

    @classmethod
    def _own(cls, dims: tuple, amps) -> "StateVector":
        """Adopt an array that was just computed and has no other holder.

        dims must be a tuple already validated by a StateVector.  Unlike
        the public constructor this does not copy amps; size and norm are
        checked all the same, and the array is frozen in place.
        """
        state = cls.__new__(cls)
        state._adopt(dims, amps)
        return state

    def _adopt(self, dims: tuple, amps) -> None:
        amps = np.ascontiguousarray(amps, dtype=complex).reshape(-1)
        size = math.prod(dims)
        if amps.size != size:
            raise ValueError(f"expected {size} amplitudes for dims {dims}, got {amps.size}")
        norm = _norm(amps)
        if abs(norm - 1.0) > ATOL_STATE:
            raise ValueError(f"state norm {norm} is not 1 within {ATOL_STATE}")
        amps.setflags(write=False)
        self.dims = dims
        self.amps = amps

    @classmethod
    def basis(cls, dims, digits) -> "StateVector":
        """Computational basis state |digits> (one digit per register)."""
        dims = _checked_dims(dims)
        digits = tuple(int(v) for v in digits)
        if len(digits) != len(dims):
            raise ValueError("one digit per register required")
        idx = 0
        for d, v in zip(dims, digits):
            if not 0 <= v < d:
                raise ValueError(f"digit {v} out of range for dimension {d}")
            idx = idx * d + v
        amps = np.zeros(_checked_size(dims), dtype=complex)
        amps[idx] = 1.0
        return cls._own(dims, amps)

    @property
    def num_registers(self) -> int:
        return len(self.dims)

    def tensor(self, other: "StateVector") -> "StateVector":
        dims = self.dims + other.dims
        _checked_size(dims)
        return StateVector._own(dims, np.multiply.outer(self.amps, other.amps))

    def __repr__(self) -> str:
        return f"StateVector(dims={self.dims})"


# OpenBLAS runs a dot product of more than 10^4 elements on several threads;
# between kernels those threads sleep, and waking them took about 6 ms per
# call on a 2-vCPU Xeon VM (a lambda-12 pad round on two qubits took 32 ms
# with one dot, 1.9 ms with dots of this block size, which stay on one thread).
_DOT_BLOCK = 2 ** 13


def _norm(amps: np.ndarray) -> float:
    """Euclidean norm of a flat amplitude array, in single-threaded blocks."""
    if amps.size <= _DOT_BLOCK:
        return math.sqrt(np.vdot(amps, amps).real)
    blocks = (amps[i:i + _DOT_BLOCK] for i in range(0, amps.size, _DOT_BLOCK))
    return math.sqrt(math.fsum(np.vdot(b, b).real for b in blocks))


def check_norms(states: np.ndarray) -> None:
    """StateVector's norm check on each state of a (..., amplitudes) array."""
    norms = np.sqrt(np.einsum("...i,...i->...", states.conj(), states).real)
    bad = np.abs(norms - 1.0) > ATOL_STATE
    if bad.any():
        raise ValueError(f"state norm {norms[bad][0]} is not 1 within {ATOL_STATE}")


def checked_int(value, message: str, bound: int | None = None) -> int:
    """value as a Python int, in [0, bound) when a bound is given.  Ints,
    numpy ints and 0-d int arrays pass; anything else, a float included, is
    refused with ValueError(message), never truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(message) from None
    if bound is not None and not 0 <= value < bound:
        raise ValueError(message)
    return value


def bits_of(value: int, width: int) -> tuple:
    """The width bits of value, most significant first."""
    return tuple((value >> (width - 1 - j)) & 1 for j in range(width))


def int_of(bits) -> int:
    """The integer whose bits, most significant first, are bits."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def _checked_dims(dims) -> tuple:
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise ValueError("register dimensions must be at least 2")
    return dims


def _checked_size(dims: tuple) -> int:
    """Amplitude count of dims, refused past MAX_AMPS before any allocation."""
    size = math.prod(dims)
    if size > MAX_AMPS:
        raise ValueError(f"a state over dims {dims} needs {size} amplitudes, "
                         f"more than MAX_AMPS = {MAX_AMPS}")
    return size


@dataclass(frozen=True)
class PauliKey:
    """Qubit-wise Pauli pad key k = (x, z) for U_k = X^x Z^z."""

    x: tuple
    z: tuple

    def __post_init__(self):
        x = tuple(checked_int(b, "pad keys are bit strings", 2) for b in self.x)
        z = tuple(checked_int(b, "pad keys are bit strings", 2) for b in self.z)
        if len(x) != len(z):
            raise ValueError("x and z must have equal length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    def __len__(self) -> int:
        return len(self.x)

    def __xor__(self, other: "PauliKey") -> "PauliKey":
        # Group law up to global phase: X^x Z^z X^x' Z^z' ~ X^(x^x') Z^(z^z').
        if len(other) != len(self):
            raise ValueError("key length mismatch")
        return PauliKey._trusted(tuple(a ^ b for a, b in zip(self.x, other.x)),
                                 tuple(a ^ b for a, b in zip(self.z, other.z)))

    @classmethod
    def identity(cls, n: int) -> "PauliKey":
        return cls((0,) * n, (0,) * n)

    @classmethod
    def uniform(cls, n: int, rng: np.random.Generator) -> "PauliKey":
        return cls._trusted(tuple(rng.integers(0, 2, n).tolist()),
                            tuple(rng.integers(0, 2, n).tolist()))

    @classmethod
    def _trusted(cls, x: tuple, z: tuple) -> "PauliKey":
        """A key from tuples of int bits of equal length, taken unchecked."""
        key = object.__new__(cls)
        object.__setattr__(key, "x", x)
        object.__setattr__(key, "z", z)
        return key

    def bits(self) -> tuple:
        """Flat (x..., z...) bit tuple, the canonical encryption payload."""
        return self.x + self.z

    @classmethod
    def from_bits(cls, bits) -> "PauliKey":
        bits = tuple(bits)  # the constructor refuses non-bits
        if len(bits) % 2:
            raise ValueError("pad bit payload must have even length")
        n = len(bits) // 2
        return cls(bits[:n], bits[n:])


class Observable:
    """Hermitian matrix with a cached eigensystem of distinct eigenvalues.

    Eigenvalues within ATOL_EIG of each other are clustered into a single
    (eigenvalue, projector) pair; projectors are built from the clustered
    eigenvector columns so they are exactly idempotent up to float error.
    """

    __slots__ = ("dim", "matrix", "eigensystem")

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("observable must be a square matrix")
        if np.max(np.abs(matrix - matrix.conj().T)) > 1e-9:
            raise ValueError("observable must be Hermitian within 1e-9")
        self.dim = matrix.shape[0]
        self.matrix = matrix
        self.matrix.setflags(write=False)
        vals, vecs = np.linalg.eigh(matrix)
        pairs = []
        i = 0
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and vals[j + 1] - vals[i] <= ATOL_EIG:
                j += 1
            block = vecs[:, i:j + 1]
            proj = block @ block.conj().T
            pairs.append((float(np.mean(vals[i:j + 1])), proj))
            i = j + 1
        self.eigensystem = tuple(pairs)

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim}, eigenvalues={[v for v, _ in self.eigensystem]})"


def _blocks(amps: np.ndarray, dims, targets):
    """View amps as a (left, block, right) array with the targets in the middle.

    Consecutive ascending targets give a view of amps.  Any other order
    moves the targets to the front in a transposed copy of shape
    (1, block, rest); the returned permutation lets _unblock undo it.
    """
    n = len(dims)
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target registers")
    if any(not 0 <= t < n for t in targets):
        raise ValueError(f"target out of range for {n} registers")
    block = math.prod(dims[t] for t in targets)
    lo = targets[0] if targets else 0
    if targets == list(range(lo, lo + len(targets))):
        return amps.reshape(math.prod(dims[:lo]), block, -1), None
    perm = targets + [i for i in range(n) if i not in targets]
    arr = amps.reshape(dims).transpose(perm).reshape(1, block, -1)
    return np.ascontiguousarray(arr), perm


def _unblock(arr: np.ndarray, dims, perm) -> np.ndarray:
    """Flat amplitudes of a (left, block, right) array from _blocks."""
    if perm is None:
        return arr.reshape(-1)
    return arr.reshape([dims[p] for p in perm]).transpose(np.argsort(perm)).reshape(-1)


def _matmul(m: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Apply a square matrix to the middle axis of a block array."""
    if m.shape != (arr.shape[1], arr.shape[1]):
        raise ValueError(f"matrix of dimension {m.shape[0]} does not match target dimension {arr.shape[1]}")
    return np.matmul(m, arr)


def _born_weights(arr: np.ndarray) -> np.ndarray:
    """Squared norm of each middle-axis slice of a C-contiguous block array."""
    f = arr.view(np.float64)
    # einsum's inner loop runs over the last axis; a short one is summed after.
    if f.shape[2] < 16:
        return np.einsum("ibj,ibj->bj", f, f).sum(axis=1)
    return np.einsum("ibj,ibj->b", f, f)


def apply_unitary(state: StateVector, u, targets) -> StateVector:
    """Apply unitary u to the given registers, returning the new state."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be a square matrix")
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-9:
        raise ValueError("matrix is not unitary within 1e-9")
    arr, perm = _blocks(state.amps, state.dims, targets)
    return StateVector._own(state.dims, _unblock(_matmul(u, arr), state.dims, perm))


def apply_diagonal(state: StateVector, phases, targets) -> StateVector:
    """Apply the diagonal unitary diag(phases) to the given registers."""
    phases = np.asarray(phases, dtype=complex)
    arr, perm = _blocks(state.amps, state.dims, targets)
    if phases.shape != (arr.shape[1],):
        raise ValueError(f"{phases.size} phases do not match target dimension {arr.shape[1]}")
    if np.max(np.abs(np.abs(phases) ** 2 - 1.0)) > 1e-9:
        raise ValueError("diagonal is not unitary within 1e-9")
    return StateVector._own(state.dims, _unblock(arr * phases[:, None], state.dims, perm))


def branch_measure(state: StateVector, obs: Observable, targets):
    """Analytic measurement branches of obs on the targeted registers.

    Returns a list of (eigenvalue, probability, post_state) triples covering
    the full eigensystem; post_state is None for (numerically) zero branches.
    """
    arr, perm = _blocks(state.amps, state.dims, targets)
    branches = []
    for val, proj in obs.eigensystem:
        raw = _unblock(_matmul(proj, arr), state.dims, perm)
        p = float(np.vdot(raw, raw).real)
        if p < BORN_FLOOR:
            branches.append((val, 0.0, None))
        else:
            branches.append((val, p, StateVector._own(state.dims, raw / np.sqrt(p))))
    return branches


def measure_observable(state: StateVector, obs: Observable, targets, rng: np.random.Generator):
    """Born-rule measurement; returns (eigenvalue, post-measurement state)."""
    branches = branch_measure(state, obs, targets)
    r = rng.random()
    acc = 0.0
    for val, p, post in branches:
        acc += p
        if r < acc and post is not None:
            return val, post
    for val, p, post in reversed(branches):
        if post is not None:
            return val, post
    raise AssertionError("no measurement branch has positive probability")


def _digits_of(index: int, dims) -> tuple:
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return tuple(reversed(out))


def register_distribution(state: StateVector, targets, basis: str = "standard"):
    """Exact outcome distribution of measuring the targeted registers.

    Returns {digit tuple: probability} with one entry per joint outcome.
    """
    targets = list(targets)
    arr, _ = _blocks(_rotated_amps(state, targets, basis), state.dims, targets)
    probs = _born_weights(arr)
    tdims = [state.dims[t] for t in targets]
    return {_digits_of(i, tdims): float(p) for i, p in enumerate(probs)}


# Floats per matmul step of the Hadamard rotation: a step's product is at most
# 64 KiB, whatever the state's size.  At 2^14 OpenBLAS ran the steps on two threads,
# and a lambda-20 pad round beside a busy process took 2-5 s, not 2 s (2-vCPU Xeon VM).
_ROTATE_BLOCK = 2 ** 13


@functools.lru_cache(maxsize=None)
def _sylvester(m: int) -> np.ndarray:
    """2^(m/2) H^(x)m as a real matrix: entry (i, j) is (-1)^popcount(i & j)."""
    i = np.arange(1 << m)
    h = 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)
    h.setflags(write=False)  # cached: every caller shares it
    return h


def _rotated_amps(state: StateVector, targets, basis: str) -> np.ndarray:
    """Amplitudes of state with each targeted qubit rotated into basis.

    The standard basis gives the state's own frozen array; the Hadamard
    basis a private, writable copy.
    """
    if basis == "standard":
        return state.amps
    if basis != "hadamard":
        raise ValueError(f"unknown basis {basis!r}")
    targets = sorted(int(t) for t in targets)
    if any(not 0 <= t < len(state.dims) or state.dims[t] != 2 for t in targets):
        raise ValueError("hadamard basis requires qubit registers")
    # H on each run of up to 6 consecutive targets as one real matmul by the
    # Sylvester matrix on the (left, 2^m, right) float view of one working copy,
    # in blocks of rows and columns; the 1/sqrt(2) factors are applied at the end.
    work = state.amps.copy()
    rest = targets
    while rest:
        m = 1
        while m < min(len(rest), 6) and rest[m] == rest[0] + m:
            m += 1
        f = work.view(np.float64).reshape(math.prod(state.dims[:rest[0]]), 1 << m, -1)
        cols = min(f.shape[2], max(2, _ROTATE_BLOCK >> m))
        rows = max(1, _ROTATE_BLOCK // (cols << m))
        for i in range(0, f.shape[0], rows):
            for j in range(0, f.shape[2], cols):
                block = f[i:i + rows, :, j:j + cols]
                block[...] = np.matmul(_sylvester(m), block)
        rest = rest[m:]
    work *= 2.0 ** (-len(targets) / 2)
    return work


def _sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to probs, from one uniform."""
    r = rng.random() * float(probs.sum())
    # The first outcome whose running sum exceeds r, else the last one.
    return min(int(np.searchsorted(np.cumsum(probs), r, side="right")), len(probs) - 1)


def _draw(state: StateVector, targets, basis: str, rng):
    """(block array, perm, Born weights, drawn index) of state rotated into basis."""
    if rng is None:
        raise ValueError("an explicit rng is required")
    arr, perm = _blocks(_rotated_amps(state, targets, basis), state.dims, targets)
    probs = _born_weights(arr)
    return arr, perm, probs, _sample_index(probs, rng)


def measure_registers(state: StateVector, targets, basis: str = "standard", rng: np.random.Generator = None):
    """Measure registers jointly; returns (digit tuple, post-measurement state).

    With basis="hadamard" each targeted qubit is rotated by H first; the
    measured registers are left in the post-rotation basis state, so they
    carry no remaining entanglement and may be dropped via remove_registers.
    A rotated copy is private, so the collapse happens inside it; the
    standard basis reads the frozen input and collapses into a new array.
    """
    targets = list(targets)
    arr, perm, probs, idx = _draw(state, targets, basis, rng)
    if arr.flags.writeable:
        arr[:, :idx] = 0
        arr[:, idx + 1:] = 0
        arr[:, idx] /= np.sqrt(probs[idx])
        collapsed = arr
    else:
        collapsed = np.zeros_like(arr)
        collapsed[:, idx] = arr[:, idx] / np.sqrt(probs[idx])
    tdims = [state.dims[t] for t in targets]
    return _digits_of(idx, tdims), StateVector._own(state.dims, _unblock(collapsed, state.dims, perm))


def remove_registers(state: StateVector, targets) -> StateVector:
    """Drop registers that hold a definite computational basis value.

    Valid immediately after measuring those registers; errors if any
    amplitude weight lies outside a single joint basis value.
    """
    targets = list(targets)
    arr, _ = _blocks(state.amps, state.dims, targets)
    weights = _born_weights(arr)
    idx = int(np.argmax(weights))
    if weights[idx] < 1.0 - ATOL_STATE:
        raise ValueError("registers to remove are still entangled or in superposition")
    rest_dims = tuple(d for i, d in enumerate(state.dims) if i not in targets)
    return StateVector._own(rest_dims, arr[:, idx] / np.sqrt(weights[idx]))


def measure_and_remove(state: StateVector, targets, basis: str = "standard", rng: np.random.Generator = None):
    """measure_registers then remove_registers in one step, with the same draw;
    returns (digit tuple, state over the other registers)."""
    targets = list(targets)
    arr, _, probs, idx = _draw(state, targets, basis, rng)
    rest_dims = tuple(d for i, d in enumerate(state.dims) if i not in targets)
    return (_digits_of(idx, [state.dims[t] for t in targets]),
            StateVector._own(rest_dims, arr[:, idx] / np.sqrt(probs[idx])))


def apply_pauli_pad(state: StateVector, key: PauliKey, targets) -> StateVector:
    """Apply X^x Z^z qubit-wise (Z first, then X, per qubit)."""
    targets = list(targets)
    if len(key) != len(targets):
        raise ValueError(f"key length {len(key)} does not match {len(targets)} targets")
    n = state.num_registers
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target out of range for {n} registers")
        if state.dims[t] != 2:
            raise ValueError("pauli pads act on qubit registers")
    work = state.amps.reshape(state.dims).copy()
    for t, xb, zb in zip(targets, key.x, key.z):
        zero = (slice(None),) * t + (0,)
        one = (slice(None),) * t + (1,)
        if zb:
            work[one] *= -1
        if xb:
            work[zero], work[one] = work[one], work[zero].copy()
    return StateVector._own(state.dims, work)


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """True iff |<a|b>| >= 1 - tol."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return bool(abs(np.vdot(a.amps, b.amps)) >= 1.0 - tol)
