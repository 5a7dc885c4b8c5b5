"""Trapdoor claw-free function layer, idealized.

The family realizes the claw relation exactly: a seeded random
permutation PRP over n-bit strings and a secret nonzero mask delta define
f_b(x) = PRP(x xor b*delta), so f_0(x0) = f_1(x1) iff x1 = x0 xor delta.
Both branch tables are part of the public key, held (like the secret
inverse table) as read-only int64 arrays that become lists only in JSON;
claw-freeness is a cryptographic property this toolkit never asserts,
only the functional ones (injectivity per branch, perfect claw matching,
hidden-bit xor).

Domain parsing: X = {0,1} x V, the first (most significant) bit carrying
the hidden-bit role; helpers first_bit/trailing_bits/dot_bits implement
that convention.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qsim import StateVector, _checked_size, _norm, _sample_index


# One ideal gen at the bound takes about 64 ms and leaves three 2^20-entry
# int64 tables (24 MB, 32 MB at peak); the first public_claw on the key adds
# its two inverse tables (16 MB, about 26 ms). Measured on one core of a
# 2-vCPU Xeon VM, CPython 3.11, numpy 2.4.
MAX_DOMAIN_BITS = 20


def first_bit(x: int, n: int) -> int:
    """Most significant of the n bits of x."""
    return (x >> (n - 1)) & 1


def trailing_bits(x: int, n: int) -> int:
    """x with its most significant bit cleared (the V part of X = {0,1} x V)."""
    return x & ((1 << (n - 1)) - 1)


def dot_bits(a, b):
    """Inner product of bit strings modulo 2; a and b may be int arrays."""
    both = a & b
    if isinstance(both, np.ndarray):
        return (np.bitwise_count(both) & 1).astype(np.int64)
    return both.bit_count() & 1


def _readonly(values) -> np.ndarray:
    """values as a read-only int64 array; an int64 array is frozen in place, not copied."""
    table = np.asarray(values, dtype=np.int64)
    table.setflags(write=False)
    return table


def _inverse_permutation(table: np.ndarray) -> np.ndarray:
    inverse = np.empty_like(table)
    inverse[table] = np.arange(len(table))
    return _readonly(inverse)


@dataclass(frozen=True, eq=False)
class IdealPublicKey:
    n: int
    tables: tuple  # tables[b][x] = f_b(x), both branches public, read-only int64 arrays

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(_readonly(t) for t in self.tables))

    def __eq__(self, other):
        if not isinstance(other, IdealPublicKey):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(a, b) for a, b in zip(self.tables, other.tables))

    def table_array(self, b: int) -> np.ndarray:
        return self.tables[b]

    @cached_property
    def inverse_tables(self) -> tuple:
        """inverse_tables[b][y] = the branch-b preimage of y, built once per key."""
        return tuple(_inverse_permutation(t) for t in self.tables)


@dataclass(frozen=True, eq=False)
class IdealSecretKey:
    n: int
    inv_prp: np.ndarray  # PRP^-1 as a read-only table
    delta: int

    def __post_init__(self):
        object.__setattr__(self, "inv_prp", _readonly(self.inv_prp))

    def __eq__(self, other):
        if not isinstance(other, IdealSecretKey):
            return NotImplemented
        return (self.n, self.delta) == (other.n, other.delta) and np.array_equal(
            self.inv_prp, other.inv_prp)


@dataclass(frozen=True)
class TcfKeyPair:
    pk: IdealPublicKey
    sk: IdealSecretKey
    domain_bits: int
    hidden_bit: int | None

    def to_json(self) -> str:
        return json.dumps({
            "domain_bits": self.domain_bits,
            "hidden_bit": self.hidden_bit,
            "tables": [t.tolist() for t in self.pk.tables],
            "secret": {"inv_prp": self.sk.inv_prp.tolist(), "delta": self.sk.delta},
        })

    @classmethod
    def from_json(cls, text: str) -> "TcfKeyPair":
        d = json.loads(text)
        n = d["domain_bits"]
        pk = IdealPublicKey(n, tuple(d["tables"]))
        sk = IdealSecretKey(n, d["secret"]["inv_prp"], d["secret"]["delta"])
        return cls(pk, sk, n, d["hidden_bit"])


def _sample_mask(bits: int, hidden, rng: np.random.Generator) -> int:
    """Nonzero n-bit mask whose first bit equals hidden when requested."""
    if hidden is None:
        return int(rng.integers(1, 1 << bits))
    if hidden:
        return (1 << (bits - 1)) | int(rng.integers(0, 1 << (bits - 1)))
    return int(rng.integers(1, 1 << (bits - 1)))


def check_domain_bits(bits: int) -> None:
    """Raises ValueError unless keys of this many domain bits are allowed."""
    if not 3 <= bits <= MAX_DOMAIN_BITS:
        raise ValueError(f"domain must have 3 to {MAX_DOMAIN_BITS} bits, not {bits}")


def gen(bits: int, hidden=None, rng: np.random.Generator = None) -> TcfKeyPair:
    """Key generation; bits is the domain size n of X = {0,1}^n."""
    if rng is None:
        raise ValueError("an explicit rng is required")
    check_domain_bits(bits)
    if hidden is not None and hidden not in (0, 1):
        raise ValueError("hidden bit must be 0 or 1")
    size = 1 << bits
    prp = rng.permutation(size)
    delta = _sample_mask(bits, hidden, rng)
    pk = IdealPublicKey(bits, (prp, prp[np.arange(size) ^ delta]))
    sk = IdealSecretKey(bits, _inverse_permutation(prp), delta)
    return TcfKeyPair(pk, sk, bits, hidden)


def gen_many(bits: int, n: int, rng: np.random.Generator, hidden=None) -> tuple:
    """Trapdoors of n fresh keys, drawn step by step: (inv_prp, delta).

    Row i of the (n, 2^bits) array inv_prp is key i's PRP^-1, drawn as such
    because the inverse of a uniform permutation is uniform; it is also the
    public inverse of key i's branch-0 table.  delta[i] is its mask, whose
    first bit is hidden[i] when an array of hidden bits is given.  One rng
    call draws every permutation and one every mask.
    """
    check_domain_bits(bits)
    if hidden is not None:
        hidden = np.asarray(hidden, dtype=np.int64)
        if hidden.shape != (n,) or ((hidden != 0) & (hidden != 1)).any():
            raise ValueError("hidden must hold one bit per key")
    size = 1 << bits
    inv_prp = np.tile(np.arange(size), (n, 1))
    rng.permuted(inv_prp, axis=1, out=inv_prp)
    if hidden is None:
        return inv_prp, rng.integers(1, size, size=n)
    # _sample_mask's rule: below the first bit, nonzero unless the first bit is set
    return inv_prp, (hidden << (bits - 1)) | rng.integers(1 - hidden, size >> 1)


def images_many(inv_prp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f_0 of each row's key at each of its points: x is (keys, points)."""
    return np.argmax(inv_prp[:, None, :] == x[:, :, None], axis=2)


def claws_many(inv_prp: np.ndarray, delta: np.ndarray, y: np.ndarray) -> tuple:
    """(x0, x1) of each row's key at each of its image points: y is (keys, points)."""
    x0 = np.take_along_axis(inv_prp, y, axis=1)
    return x0, x0 ^ delta[:, None]


def _check_domain(pk: IdealPublicKey, x: int) -> None:
    if not 0 <= x < (1 << pk.n):
        raise ValueError(f"x={x} outside the {pk.n}-bit domain")


def eval(pk: IdealPublicKey, b: int, x: int) -> int:
    """f_{pk,b}(x)."""
    if b not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    _check_domain(pk, x)
    return int(pk.tables[b][x])


def chk(pk: IdealPublicKey, b: int, x: int, y) -> int:
    """1 iff y = f_{pk,b}(x); total over inputs."""
    if b not in (0, 1):
        return 0
    try:
        _check_domain(pk, x)
    except ValueError:
        return 0
    # a Python int, so a tuple y compares unequal instead of broadcasting
    return int(int(pk.tables[b][x]) == y)


def inv(sk: IdealSecretKey, b: int, y):
    """The unique branch-b preimage of y; errors when y is not in the image."""
    if b not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    if not isinstance(y, (int, np.integer)) or not 0 <= y < (1 << sk.n):
        raise ValueError(f"y={y!r} is not in the image")
    return int(sk.inv_prp[y]) ^ (sk.delta if b else 0)


def claw(sk: IdealSecretKey, y: int):
    """(x0, x1) with f_0(x0) = f_1(x1) = y, via the trapdoor."""
    x0 = inv(sk, 0, y)
    return x0, x0 ^ sk.delta


def public_claw(pk: IdealPublicKey, y: int):
    """(x0, x1) for y, read off the published branch tables.

    The family publishes both tables, so simulators may look claws up
    without the trapdoor; provers in the protocols never rely on this.
    """
    y = int(y)
    if not 0 <= y < (1 << pk.n):
        raise ValueError("y outside the image")
    inv0, inv1 = pk.inverse_tables
    return int(inv0[y]), int(inv1[y])


def coherent_samp(pk, state: StateVector, control: int, out, rng: np.random.Generator = None) -> StateVector:
    """Branch-controlled coherent evaluation into fresh registers.

    Maps (sum_b alpha_b |b>)|0...0>|0> on (control, out) to
    2^{-n/2} sum_{b,x} alpha_b |b>|x>|f_b(x)>, exactly.  out must list n
    qubit registers (the preimage, most significant first) followed by one
    image-sized register, all holding |0>.  The protocols run measure_claw,
    which this dense form is the reference for.
    """
    n = pk.n
    size = 1 << n
    out = list(out)
    if len(out) != n + 1:
        raise ValueError(f"need {n} preimage registers plus one image register")
    if any(state.dims[r] != 2 for r in out[:-1]) or state.dims[out[-1]] != size:
        raise ValueError("out register dimensions do not match the key")
    if state.dims[control] != 2:
        raise ValueError("control must be a qubit register")

    # Views with (control, preimage qubits..., image, rest...) as the axes.
    regs = [control] + out
    moved = range(len(regs))
    view = np.moveaxis(state.amps.reshape(state.dims), regs, moved)
    head = view[(slice(None),) + (0,) * (n + 1)]
    tail = np.vdot(state.amps, state.amps).real - np.vdot(head, head).real
    if tail > 1e-12:
        raise ValueError("out registers must start in |0>")

    amps = np.zeros_like(state.amps)
    new = np.moveaxis(amps.reshape(state.dims), regs, moved)
    xs = np.arange(size)
    x_digits = tuple((xs >> (n - 1 - j)) & 1 for j in range(n))
    src = head / np.sqrt(size)
    for b in (0, 1):
        new[(b,) + x_digits + (pk.table_array(b),)] = src[b][None]
    return StateVector._own(state.dims, amps)


def measure_claw(pk, state: StateVector, control: int, rng: np.random.Generator):
    """Coherent claw evaluation and image measurement in one step.

    For a state sum_b alpha_b |b> on the control qubit (the other registers
    arbitrary), returns (y, x0, x1, post) with post = sum_b alpha_b |b>|x_b(y)>
    over the registers of state followed by n preimage qubits, most
    significant first.  This is the state coherent_samp into fresh
    registers, a measurement of the image register and its removal leave,
    with the same y for the same rng state.  Both f_b are permutations, so
    the image marginal is exactly uniform whatever the control holds; y is
    drawn from it by the sampler of qsim.measure_registers, and only the
    2^n-fold state is built, never the 2^(2n)-fold one.
    """
    if rng is None:
        raise ValueError("an explicit rng is required")
    if not 0 <= control < state.num_registers or state.dims[control] != 2:
        raise ValueError("control must be a qubit register")
    size = 1 << pk.n
    dims = state.dims + (2,) * pk.n
    _checked_size(dims)

    norm = _norm(state.amps)
    y = _sample_index(np.full(size, norm * norm / size), rng)
    x0, x1 = public_claw(pk, y)
    # (left of control, control, right of control) and the preimage last.
    src = state.amps.reshape(math.prod(state.dims[:control]), 2, -1) / norm
    amps = np.zeros(src.shape + (size,), dtype=complex)
    amps[:, 0, :, x0] = src[:, 0]
    amps[:, 1, :, x1] = src[:, 1]
    return y, x0, x1, StateVector._own(dims, amps)
