"""Trapdoor claw-free function layer, idealized.

The family realizes the claw relation exactly: a seeded random
permutation PRP over n-bit strings and a secret nonzero mask delta define
f_b(x) = PRP(x xor b*delta), so f_0(x0) = f_1(x1) iff x1 = x0 xor delta.
A key is held as its trapdoor, PRP^-1 as a read-only int64 array and
delta; both branch tables are public and determine the trapdoor, so gen
returns one IdealKey as both pk and sk, and gen_many a chunk of keys in
the same class.  Arrays become lists only in JSON.  Claw-freeness is a
cryptographic property this toolkit never asserts, only the functional
ones (injectivity per branch, perfect claw matching, hidden-bit xor).

Domain parsing: X = {0,1} x V, the first (most significant) bit carrying
the hidden-bit role; helpers first_bit/trailing_bits/dot_bits implement
that convention.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qsim import StateVector, _checked_size, _norm, _sample_index, checked_int


# One ideal gen at the bound takes about 64 ms and leaves three 2^20-entry
# int64 tables (24 MB, 32 MB at peak); claw lookups read the trapdoor and
# build nothing.  Measured on one core of a 2-vCPU Xeon VM, CPython 3.11,
# numpy 2.4.
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


def _branch_tables(prp: np.ndarray, delta: int) -> tuple:
    """(f_0, f_1) as read-only tables, f_0 = PRP and f_1(x) = PRP(x xor delta)."""
    return _readonly(prp), _readonly(prp[np.arange(len(prp)) ^ delta])


@dataclass(frozen=True, eq=False)
class IdealKey:
    """One claw-free key, or a chunk of count keys, held as its trapdoor.

    One key: inv_prp is PRP^-1, shape (2^n,), and delta an int.  A chunk:
    inv_prp is (count, 2^n), a key per row, and delta (count,).  image and
    claw take ints or arrays; on a chunk they take (count,) or
    (count, points) arrays, each row read with its own key.
    """

    inv_prp: np.ndarray
    delta: int | np.ndarray
    n: int = field(init=False)
    count: int | None = field(init=False)  # None on one key

    def __post_init__(self):
        inv_prp = _readonly(self.inv_prp)
        object.__setattr__(self, "inv_prp", inv_prp)
        object.__setattr__(self, "n", inv_prp.shape[-1].bit_length() - 1)
        object.__setattr__(self, "count", None if inv_prp.ndim == 1 else len(inv_prp))
        if self.count is not None:
            object.__setattr__(self, "delta", _readonly(self.delta))

    def __eq__(self, other):
        if not isinstance(other, IdealKey):
            return NotImplemented
        return np.array_equal(self.delta, other.delta) and np.array_equal(
            self.inv_prp, other.inv_prp)

    @cached_property
    def tables(self) -> tuple:
        """tables[b][x] = f_b(x), both branches, read-only; one key only."""
        if self.count is not None:
            raise ValueError("forward tables are derived for one key only")
        return _branch_tables(_inverse_permutation(self.inv_prp), self.delta)

    def image(self, x):
        """f_0(x) at in-domain points x."""
        if self.count is None:
            return self.tables[0][x]
        # a per-row search: forward tables would double every chunk's keys,
        # and indexing inv_prp by row would copy every one
        tables = np.expand_dims(self.inv_prp, tuple(range(1, x.ndim)))
        return np.argmax(tables == x[..., None], axis=-1)

    def claw(self, y):
        """(x0, x1) at in-range image points y; claw(key, y) adds a range check."""
        if self.count is None:
            x0, delta = self.inv_prp[y], self.delta
        else:
            rows = np.arange(self.count).reshape((-1,) + (1,) * (y.ndim - 1))
            x0, delta = self.inv_prp[rows, y], self.delta[rows]
        return x0, x0 ^ delta


@dataclass(frozen=True)
class TcfKeyPair:
    pk: IdealKey  # the same key as sk: the public tables determine the trapdoor
    sk: IdealKey
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
        """Refuses a trapdoor that is no key of domain_bits bits, or tables it does not give."""
        d = json.loads(text)
        n, secret = d["domain_bits"], d["secret"]
        key = IdealKey(secret["inv_prp"], secret["delta"])
        size = 1 << n
        if (key.inv_prp.shape != (size,) or not 0 < key.delta < size
                or not np.array_equal(np.sort(key.inv_prp), np.arange(size))
                or not np.array_equal(key.tables, d["tables"])):
            raise ValueError("the tables disagree with the trapdoor")
        return cls(key, key, n, d["hidden_bit"])


def _masks(bits: int, hidden, rng: np.random.Generator, count=None):
    """Nonzero bits-bit masks, one per key (one scalar when count is None),
    each with its first bit equal to its hidden bit when hidden is given."""
    if hidden is None:
        return rng.integers(1, 1 << bits, size=count)
    # below the first bit, nonzero unless the first bit is set
    return (hidden << (bits - 1)) | rng.integers(1 - hidden, 1 << (bits - 1), size=count)


def check_domain_bits(bits: int) -> None:
    """Raises ValueError unless keys of this many domain bits are allowed."""
    if not 3 <= bits <= MAX_DOMAIN_BITS:
        raise ValueError(f"domain must have 3 to {MAX_DOMAIN_BITS} bits, not {bits}")


def gen(bits: int, hidden=None, rng: np.random.Generator = None) -> TcfKeyPair:
    """Key generation; bits is the domain size n of X = {0,1}^n."""
    if rng is None:
        raise ValueError("an explicit rng is required")
    check_domain_bits(bits)
    if hidden is not None:
        hidden = checked_int(hidden, "hidden bit must be 0 or 1", 2)
    prp = rng.permutation(1 << bits)
    delta = int(_masks(bits, hidden, rng))
    key = IdealKey(_inverse_permutation(prp), delta)
    # the permutation just drawn is the branch-0 table: fill the cache with it
    key.__dict__["tables"] = _branch_tables(prp, delta)
    return TcfKeyPair(key, key, bits, hidden)


# gen_many chunks in both batched engines hold about this many table entries.
CHUNK_ENTRIES = 2 ** 16


def chunk_size(bits: int) -> int:
    """Keys per chunk at this many domain bits."""
    return max(1, CHUNK_ENTRIES >> bits)


def gen_many(bits: int, n: int, rng: np.random.Generator, hidden=None) -> IdealKey:
    """n fresh keys, drawn step by step, as one IdealKey chunk.

    Row i of the (n, 2^bits) array inv_prp is key i's PRP^-1, drawn as such
    because the inverse of a uniform permutation is uniform.  delta[i] is
    its mask, whose first bit is hidden[i] when an array of hidden bits is
    given.  One rng call draws every permutation and one every mask.
    """
    check_domain_bits(bits)
    if hidden is not None:
        hidden = np.asarray(hidden)
        if (hidden.shape != (n,) or hidden.dtype.kind not in "biu"
                or ((hidden != 0) & (hidden != 1)).any()):
            raise ValueError("hidden must hold one bit per key")
        hidden = hidden.astype(np.int64)
    inv_prp = np.tile(np.arange(1 << bits), (n, 1))
    rng.permuted(inv_prp, axis=1, out=inv_prp)
    return IdealKey(inv_prp, _masks(bits, hidden, rng, n))


def _check_domain(pk: IdealKey, x: int) -> None:
    if not 0 <= checked_int(x, "x is not an integer") < (1 << pk.n):
        raise ValueError(f"x={x} outside the {pk.n}-bit domain")


def eval(pk: IdealKey, b: int, x: int) -> int:
    """f_{pk,b}(x)."""
    if b not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    _check_domain(pk, x)
    return int(pk.tables[b][x])


def chk(pk: IdealKey, b: int, x: int, y) -> int:
    """1 iff y = f_{pk,b}(x); total over inputs."""
    if b not in (0, 1):
        return 0
    try:
        _check_domain(pk, x)
    except ValueError:
        return 0
    # a Python int, so a tuple y compares unequal instead of broadcasting
    return int(int(pk.tables[b][x]) == y)


def inv(sk: IdealKey, b: int, y):
    """The unique branch-b preimage of y; errors when y is not in the image."""
    if b not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    y = checked_int(y, "y is not in the image", 1 << sk.n)
    return int(sk.inv_prp[y]) ^ (sk.delta if b else 0)


def claw(sk: IdealKey, y: int):
    """(x0, x1) with f_0(x0) = f_1(x1) = y, via the trapdoor."""
    x0 = inv(sk, 0, y)
    return x0, x0 ^ sk.delta


def public_claw(pk: IdealKey, y: int):
    """(x0, x1) for y, which the published branch tables determine.

    The tables determine the trapdoor, so this is claw's lookup; simulators
    may look claws up without the trapdoor, provers in the protocols never
    rely on this.
    """
    return claw(pk, y)


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
        new[(b,) + x_digits + (pk.tables[b],)] = src[b][None]
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
