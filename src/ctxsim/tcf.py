"""Trapdoor claw-free function layer, idealized.

The family realizes the claw relation exactly: a uniform random
permutation P of the n-bit strings and a secret nonzero mask delta define
f_b(x) = P(x xor b*delta), so f_0(x0) = f_1(x1) iff x1 = x0 xor delta.
P is sampled lazily (the lazy-sampling step of code-based game-playing
proofs, Bellare-Rogaway, ePrint 2004/331): a key holds delta, the
generator it was drawn with and the points of P fixed so far, and
fixes P at a point on its first query, so a session pays for the 1 to 6
points it reads, never for 2^n.  The public tables would determine the
trapdoor, so gen returns one IdealKey as both pk and sk, and gen_many a
chunk of keys in the same class.  Claw-freeness is a cryptographic
property this toolkit never asserts, only the functional ones
(injectivity per branch, perfect claw matching, hidden-bit xor).

Domain parsing: X = {0,1} x V, the first (most significant) bit carrying
the hidden-bit role; helpers first_bit/trailing_bits/dot_bits implement
that convention.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .qsim import StateVector, _checked_size, _norm, _sample_index, checked_int


# A key costs the same at every domain size: gen takes about 4.5 us and
# each point of P a session reads about 3 us more, at n = 8 and 20 alike
# (one core of a 2-vCPU Xeon VM, CPython 3.11, numpy 2.4).  The bound is
# the circuit paths': a circuit-path pad round or honest quantumness
# prover builds a state of (data amplitudes) * 2^n, and coherent_samp a
# 2^(2n)-fold one.
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


# the refusal of a point outside [0, 2^n), by direction: P^-1 (False) or P (True)
_OUTSIDE = ("y is not in the image", "x is outside the domain")
# an empty slot of a chunk's fixed points, past every point and slot count
_EMPTY = 1 << 62


def _nth_free(taken: list, r: int) -> int:
    """The r-th point, counting from 0, not in the sorted list taken."""
    for a in taken:
        if a > r:
            break
        r += 1
    return r


class IdealKey:
    """One claw-free key, or a chunk of count keys, sampled lazily.

    One key: delta is an int.  A chunk: delta is a (count,) array, a key
    per row.  image(x) fixes P(x) and claw(y) fixes P^-1(y) on first
    query: it draws r uniform in [0, 2^n - k), k the points already fixed,
    and takes the r-th free point, so the fixed points are distributed as
    the restriction of a uniform permutation and no draw is ever repeated.
    image and claw take ints on one key; on a chunk they take (count,) or
    (count, points) arrays, each row read with its own key, column by
    column.  Points outside [0, 2^n) raise ValueError.

    One key keeps its fixed points in two dicts, P and P^-1; a chunk in
    (count, k) arrays of fixed (x, y) pairs, padded where a row has fewer
    than k.  pairs, when given, are points of P fixed from the start:
    [x, P(x)] pairs on one key, a list of them per row on a chunk; a
    repeated x or y and a point outside the domain are refused.  tables
    completes P; it is for tests and small n.  A key without a generator
    (rng=None) answers only at fixed points.
    """

    def __init__(self, n: int, delta, rng: np.random.Generator = None, pairs=None):
        self.n = n
        self.rng = rng
        self._tables = None
        if np.ndim(delta):
            self.delta = _readonly(delta)
            self.count = len(self.delta)
            rows = [IdealKey(n, 0, pairs=row).pairs() for row in pairs or ()]
            # at least one column, empty where no point is fixed yet
            fixed = np.full((self.count, max([1, *map(len, rows)]), 2), _EMPTY, dtype=np.int64)
            for i, row in enumerate(rows):
                fixed[i, :len(row)] = np.reshape(row, (-1, 2))
            self._x, self._y = fixed[..., 0], fixed[..., 1]
        else:
            self.delta = int(delta)
            self.count = None
            self._fix(pairs or ())

    def _fix(self, pairs) -> None:
        """One key's fixed points from its [x, P(x)] pairs, checked and
        stored at once: a point that is no integer or lies outside the
        domain, and a repeated x or y, are refused."""
        message = "a fixed point lies outside the domain"
        try:
            xs = [operator.index(x) for x, _ in pairs]
            ys = [operator.index(y) for _, y in pairs]
        except TypeError:
            raise ValueError(message) from None
        size = 1 << self.n
        if not all(0 <= p < size for p in xs + ys):
            raise ValueError(message)
        self._fwd, self._inv = dict(zip(xs, ys)), dict(zip(ys, xs))
        if len(self._fwd) < len(xs) or len(self._inv) < len(ys):
            raise ValueError("a fixed x or y repeats")

    def __eq__(self, other):
        if not isinstance(other, IdealKey):
            return NotImplemented
        return self._state() == other._state()

    def _state(self) -> tuple:
        if self.count is None:
            return self.n, self.delta, self.pairs()
        return self.n, self.delta.tolist(), [self.row(i).pairs() for i in range(self.count)]

    def pairs(self) -> list:
        """The fixed points of P as [x, P(x)] pairs sorted by x; one key only."""
        return [[x, self._fwd[x]] for x in sorted(self._fwd)]

    def _draw(self, high):
        """r uniform in [0, high), elementwise, each from whole 64-bit
        outputs: a numpy draw below 2^32 takes half an output and leaves the
        other half to the next draw, which would tie a point of P to the
        protocol coin drawn beside it bit for bit."""
        if self.rng is None:
            raise ValueError("the key holds no generator to fix P at a new point")
        return self.rng.integers(0, high << 32) >> 32

    def _one(self, p, forward: bool) -> int:
        """P(p) (forward) or P^-1(p) on one key, fixed on first query."""
        size = 1 << self.n
        p = checked_int(p, _OUTSIDE[forward], size)
        known, other = (self._fwd, self._inv) if forward else (self._inv, self._fwd)
        q = known.get(p)
        if q is None:
            q = _nth_free(sorted(other), int(self._draw(size - len(known))))
            known[p], other[q] = q, p
        return q

    def _many(self, points: np.ndarray, forward: bool) -> np.ndarray:
        """P (forward) or P^-1 at a chunk's (count,) or (count, m) points.

        Each column is read against the points fixed so far, earlier
        columns' included, and its misses are fixed with one draw, so each
        row's draws come in column order.
        """
        size = 1 << self.n
        if points.shape[:1] != (self.count,) or ((points < 0) | (points >= size)).any():
            raise ValueError(_OUTSIDE[forward])
        cols = points.reshape(self.count, -1)
        out = np.empty(cols.shape, dtype=np.int64)
        src, dst = (self._x, self._y) if forward else (self._y, self._x)
        for j, p in enumerate(cols.T):
            hit = src == p[:, None]
            out[:, j] = dst[np.arange(self.count), hit.argmax(axis=1)]
            rows = np.flatnonzero(~hit.any(axis=1))
            if not rows.size:
                continue
            # the r-th free point is r plus the fixed points a_i (sorted, i
            # counted from 0) with a_i - i <= r; empty slots sort last and
            # never count
            taken = np.sort(dst[rows], axis=1)
            r = self._draw(size - (taken < _EMPTY).sum(axis=1))
            q = r + (taken - np.arange(taken.shape[1]) <= r[:, None]).sum(axis=1)
            out[rows, j] = q
            new_src, new_dst = np.full(self.count, _EMPTY), np.full(self.count, _EMPTY)
            new_src[rows], new_dst[rows] = p[rows], q
            src, dst = np.column_stack([src, new_src]), np.column_stack([dst, new_dst])
            self._x, self._y = (src, dst) if forward else (dst, src)
        return out.reshape(points.shape)

    def image(self, x):
        """f_0(x) = P(x)."""
        if self.count is None:
            return self._one(x, True)
        return self._many(np.asarray(x), True)

    def claw(self, y):
        """(x0, x1) = (P^-1(y), P^-1(y) xor delta), the claw of y."""
        if self.count is None:
            x0 = self._one(y, False)
            return x0, x0 ^ self.delta
        x0 = self._many(np.asarray(y), False)
        return x0, x0 ^ self.delta.reshape((-1,) + (1,) * (x0.ndim - 1))

    def row(self, i: int) -> "IdealKey":
        """Key i of a chunk as one key holding its fixed points; it has no
        generator, so it answers only there and never forks the chunk's P."""
        pairs = [(x, y) for x, y in zip(self._x[i].tolist(), self._y[i].tolist()) if x < _EMPTY]
        return IdealKey(self.n, self.delta[i], None, pairs)

    @property
    def tables(self) -> tuple:
        """(f_0, f_1) as read-only arrays, (2^n,) on one key and (count, 2^n)
        on a chunk, once P is completed: each free x in increasing order
        gets P(x) as image(x) would give it, one rng call per key."""
        if self._tables is None:
            if self.count is not None:
                keys = [IdealKey(self.n, self.delta[i], self.rng, self.row(i).pairs())
                        for i in range(self.count)]
                f0 = np.array([key.tables[0] for key in keys])
                self._x = np.tile(np.arange(1 << self.n), (self.count, 1))
                self._y = f0
                self._tables = (_readonly(f0), _readonly(
                    np.take_along_axis(f0, self._x ^ self.delta[:, None], axis=1)))
            else:
                self._complete()
                f0 = np.array([self._fwd[x] for x in range(1 << self.n)], dtype=np.int64)
                self._tables = (_readonly(f0), _readonly(f0[np.arange(len(f0)) ^ self.delta]))
        return self._tables

    def _complete(self) -> None:
        size = 1 << self.n
        free_x = [x for x in range(size) if x not in self._fwd]
        if not free_x:
            return
        free_y = [y for y in range(size) if y not in self._inv]
        draws = self._draw(np.arange(len(free_x), 0, -1)).tolist()
        for x, r in zip(free_x, draws):
            y = free_y.pop(r)
            self._fwd[x] = y
            self._inv[y] = x


@dataclass(frozen=True)
class TcfKeyPair:
    pk: IdealKey  # the same key as sk: the public tables determine the trapdoor
    sk: IdealKey
    domain_bits: int
    hidden_bit: int | None

    def to_json(self) -> str:
        """delta and the points of P fixed so far; draws nothing."""
        return json.dumps({
            "domain_bits": self.domain_bits,
            "hidden_bit": self.hidden_bit,
            "delta": self.sk.delta,
            "assigned": self.sk.pairs(),
        })

    @classmethod
    def from_json(cls, text: str) -> "TcfKeyPair":
        """Refuses a non-integer width or hidden bit, a delta outside (0, 2^n)
        or off the hidden bit, and the fixed points IdealKey refuses; the
        loaded key holds no generator."""
        d = json.loads(text)
        n = checked_int(d["domain_bits"], "domain_bits must be an integer")
        hidden = d["hidden_bit"]
        if hidden is not None:
            hidden = checked_int(hidden, "hidden bit must be 0 or 1", 2)
        check_domain_bits(n)
        delta = checked_int(d["delta"], "delta must lie in (0, 2^n)")
        if not 0 < delta < 1 << n:
            raise ValueError("delta must lie in (0, 2^n)")
        if hidden is not None and first_bit(delta, n) != hidden:
            raise ValueError("the hidden bit disagrees with delta")
        key = IdealKey(n, delta, None, d["assigned"])
        return cls(key, key, n, hidden)


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
    """Key generation; bits is the domain size n of X = {0,1}^n.  Draws
    only the mask; the key fixes P from rng as it is read."""
    if rng is None:
        raise ValueError("an explicit rng is required")
    check_domain_bits(bits)
    if hidden is not None:
        hidden = checked_int(hidden, "hidden bit must be 0 or 1", 2)
    key = IdealKey(bits, int(_masks(bits, hidden, rng)), rng)
    return TcfKeyPair(key, key, bits, hidden)


# Sessions (or quantumness instances) per chunk in both batched engines.
# Each chunk pays a fixed cost of 0.2 to 3 ms at lambda 8, so 4096 is the
# knee of a sweep: a 2*10^4-trial poq row took 150, 53, 25 and 28 ms at
# 256, 1024, 4096 and 16384 on a 2-vCPU Xeon VM.  Memory stops it there: a
# 2*10^4-trial honest kcbs 1-1 row at lambda 20 peaks at 10 MiB by
# tracemalloc at 4096, against 41 MiB at 16384.
CHUNK_SIZE = 4096


def gen_many(bits: int, n: int, rng: np.random.Generator, hidden=None) -> IdealKey:
    """n fresh keys as one IdealKey chunk; one rng call draws every mask.

    delta[i] is key i's mask, whose first bit is hidden[i] when an array
    of hidden bits is given; the chunk fixes each key's P from rng as it
    is read.
    """
    check_domain_bits(bits)
    if hidden is not None:
        hidden = np.asarray(hidden)
        if (hidden.shape != (n,) or hidden.dtype.kind not in "biu"
                or ((hidden != 0) & (hidden != 1)).any()):
            raise ValueError("hidden must hold one bit per key")
        hidden = hidden.astype(np.int64)
    return IdealKey(bits, _masks(bits, hidden, rng, n), rng)


def _checked_point(pk: IdealKey, x) -> int:
    x = checked_int(x, "x is not an integer")
    if not 0 <= x < (1 << pk.n):
        raise ValueError(f"x={x} outside the {pk.n}-bit domain")
    return x


def eval(pk: IdealKey, b: int, x: int) -> int:
    """f_{pk,b}(x)."""
    if b not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    return pk.image(_checked_point(pk, x) ^ (pk.delta if b else 0))


def chk(pk: IdealKey, b: int, x: int, y) -> int:
    """1 iff y = f_{pk,b}(x); total over inputs."""
    if b not in (0, 1):
        return 0
    try:
        x = _checked_point(pk, x)
    except ValueError:
        return 0
    # a Python int, so a tuple y compares unequal instead of broadcasting
    return int(pk.image(x ^ (pk.delta if b else 0)) == y)


def inv(sk: IdealKey, b: int, y):
    """The unique branch-b preimage of y; errors when y is not in the image."""
    if b not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    return sk.claw(checked_int(y, "y is not in the image", 1 << sk.n))[b]


def public_claw(pk: IdealKey, y: int):
    """(x0, x1) for y, which the published branch tables determine.

    The tables determine the trapdoor, so this is the trapdoor's lookup,
    IdealKey.claw; simulators may look claws up without the trapdoor,
    provers in the protocols never rely on this.
    """
    return pk.claw(y)


def coherent_samp(pk, state: StateVector, control: int, out) -> StateVector:
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
