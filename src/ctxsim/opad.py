"""Oblivious Pauli pad: Gen / Enc / Dec / Samp over the claw-free layer,
plus the general unitary-family variant and the claw-extraction hook.

Per qubit and per Pauli component the prover runs one round: evaluate the
claw pair coherently against the data qubit and measure the image (y) in
one step (tcf.measure_claw, which builds only the preimage qubits, never an
image register), flip signs through a binary phase oracle, then measure
the preimage block in the Hadamard basis (d, conditioned on d != 0 to
match Samp).
The physically applied pad bit is

    phase(d, x0, x1) = d.(x0 xor x1) + H(x0) + H(x1)   (mod 2),

recoverable only with the inversion trapdoor.  The Z round runs on the
computational basis, the X round conjugated by Hadamard; a round's joint
output (y uniform over the image, d uniform nonzero, pad bit determined
by the formula) is independent of the data state, which licenses the
"collapsed" fast path that skips the register-level circuit entirely,
draws (y, d) directly, and applies the derived pad.  Both paths produce
identical distributions; tests pin that exactly.

One rule, pad_bits, reads the pad bits of (d, y) slots for Dec and the
collapsed round, and of a chunk's slot arrays for the batched compiled
engine, on a tcf.IdealKey chunk and a PhaseOracleChunk.  hash_seeds draws
the oracle seed of one session or of a chunk.

A hash-mode oracle answers H(x) with bit x mod 256 of
SHA-256(f"{seed}|{x // 256}"), little-endian within each digest byte, so
one digest (hash_block) answers 256 consecutive points: a PhaseOracle
hashes each block it touches once, and a PhaseOracleChunk each (session,
block) pair, reading its points from the digest bytes by array indexing.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import tcf
from .qsim import (
    H,
    PauliKey,
    StateVector,
    apply_diagonal,
    apply_pauli_pad,
    apply_unitary,
    checked_int,
    int_of,
    measure_and_remove,
    measure_registers,
)

_MAX_NONZERO_RETRIES = 64
_BLOCK_BITS = 8  # one digest answers 2^8 consecutive points


def hash_block(seed: int, block: int) -> bytes:
    """The digest that answers a hash-mode oracle of this seed at the
    points block * 256 + i: bit i of its 32 bytes, little-endian per byte."""
    return hashlib.sha256(f"{seed}|{block}".encode()).digest()


class PhaseOracle:
    """Binary random oracle, either a seeded hash or a lazily sampled table.

    Lazy mode records every queried point; the extraction experiments read
    that database.  Hash mode keeps one digest per block it has touched.
    Repeated queries always return the same bit.
    """

    def __init__(self, mode: str = "hash", seed: int = None, rng: np.random.Generator = None):
        if mode == "hash":
            if seed is None:
                raise ValueError("hash mode needs a seed")
        elif mode == "lazy":
            if rng is None:
                raise ValueError("lazy mode needs an rng")
        else:
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.mode = mode
        self._seed = seed
        self._rng = rng
        self.database = {}
        self._digests = {}

    def query(self, x: int) -> int:
        x = int(x)
        if self.mode == "hash":
            block = x >> _BLOCK_BITS
            digest = self._digests.get(block)
            if digest is None:
                digest = self._digests[block] = hash_block(self._seed, block)
            return digest[(x & 255) >> 3] >> (x & 7) & 1
        if x not in self.database:
            self.database[x] = int(self._rng.integers(0, 2))
        return self.database[x]

    def bits(self, *points) -> tuple:
        """H at each point, queried in order."""
        return tuple(map(self.query, points))


class PhaseOracleChunk:
    """PhaseOracle in hash mode for each session of a chunk, one seed each.

    bits takes (count, slots) arrays of points in [0, 2^lam), row i queried
    on session i's oracle.  The 32-byte digest of each (session, block)
    pair is hashed once, on its first query, and kept with its pair's id
    (session << max(0, lam - 8) | block) in id order; points are read from
    the digests the ids' sorted search finds, by array indexing.  Only the
    pairs a chunk touches are kept, whatever lam is.
    """

    def __init__(self, seeds: np.ndarray, lam: int):
        self.seeds = seeds.tolist()
        self._shift = max(0, lam - _BLOCK_BITS)
        # a sentinel id past every pair's keeps each search in range
        self._ids = np.array([np.iinfo(np.int64).max])
        self._digests = np.zeros((1, 32), dtype=np.uint8)

    def bits(self, *points: np.ndarray) -> tuple:
        x = np.stack(points)
        shift, seeds = self._shift, self.seeds
        ids = (np.arange(x.shape[1])[:, None] << shift) | (x >> _BLOCK_BITS)
        at = np.searchsorted(self._ids, ids)
        new = np.sort(ids[self._ids[at] != ids])
        new = new[np.diff(new, prepend=-1) != 0]
        if new.size:
            low = (1 << shift) - 1
            digests = b"".join([hash_block(seeds[b >> shift], b & low) for b in new.tolist()])
            where = np.searchsorted(self._ids, new)
            self._ids = np.insert(self._ids, where, new)
            self._digests = np.insert(self._digests, where, np.frombuffer(
                digests, dtype=np.uint8).reshape(-1, 32), axis=0)
            at = np.searchsorted(self._ids, ids)
        return tuple(self._digests[at, (x & 255) >> 3] >> (x & 7) & 1)


def hash_seeds(rng: np.random.Generator, count: int = None):
    """Fresh hash-oracle seeds from [0, 2^62): one int, or an array of count."""
    seeds = rng.integers(0, 2 ** 62, size=count)
    return seeds if count is not None else int(seeds)


@dataclass(frozen=True)
class OpadString:
    """Classical output of Enc (or Samp): one (d, y) pair per round.

    kind "pauli": slots alternate (X round, Z round) per padded qubit.
    kind "bits": one slot per key bit of a general unitary family.
    """

    slots: tuple
    kind: str = "pauli"

    def __post_init__(self):
        slots = tuple((checked_int(d, "d must be a nonzero integer"),
                       checked_int(y, "y is not in the image")) for d, y in self.slots)
        if self.kind not in ("pauli", "bits"):
            raise ValueError(f"unknown opad string kind {self.kind!r}")
        if self.kind == "pauli" and len(slots) % 2:
            raise ValueError("pauli strings need an (X, Z) slot pair per qubit")
        if any(d == 0 for d, _ in slots):
            raise ValueError("d must be nonzero")
        object.__setattr__(self, "slots", slots)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "slots": [{"d": format(d, "x"), "y": format(y, "x")} for d, y in self.slots],
        }

    @classmethod
    def from_json(cls, text: str) -> "OpadString":
        data = json.loads(text)
        return cls(tuple((int(s["d"], 16), int(s["y"], 16)) for s in data["slots"]), data["kind"])


def gen(lam: int, rng: np.random.Generator) -> tcf.TcfKeyPair:
    """Pad keys are plain claw-free keys; no hidden bit is needed."""
    return tcf.gen(lam, hidden=None, rng=rng)


def pad_bits(key, d, y, oracle):
    """The pad bit d.(x0 xor x1) + H(x0) + H(x1) mod 2 of each (d, y) slot,
    the claw (x0, x1) of y read through the trapdoor and H queried at x0,
    then x1.  d and y are ints, as an OpadString holds them, or (count,
    slots) arrays on a key chunk and a PhaseOracleChunk, row i read with
    session i's key and oracle, where d = 0 and y outside the image are
    refused with the messages of OpadString and IdealKey.claw."""
    if key.count is not None and (d == 0).any():
        raise ValueError("d must be nonzero")
    x0, x1 = key.claw(y)
    h0, h1 = oracle.bits(x0, x1)
    return tcf.dot_bits(d, x0 ^ x1) ^ h0 ^ h1


def _circuit_round(pk, state: StateVector, target: int, oracle: PhaseOracle, rng):
    """One pad round on the computational basis (a Z round on `target`)."""
    y, x0, x1, work = tcf.measure_claw(pk, state, target, rng)

    signs = np.ones(1 << pk.n)
    signs[[x0, x1]] = 1 - 2 * np.array(oracle.bits(x0, x1))
    x_regs = list(range(state.num_registers, work.num_registers))
    work = apply_diagonal(work, signs, x_regs)

    # Condition the Hadamard measurement on d != 0 (Samp never emits 0).
    for _ in range(_MAX_NONZERO_RETRIES):
        digits, rest = measure_and_remove(work, x_regs, basis="hadamard", rng=rng)
        d = int_of(digits)
        if d:
            break
    else:
        raise RuntimeError("d = 0 persisted across retries")
    return rest, (d, y), pad_bits(pk, d, y, oracle)


def _collapsed_round(pk, oracle: PhaseOracle, rng):
    size = 1 << pk.n
    y = int(rng.integers(0, size))
    d = int(rng.integers(1, size))
    return (d, y), pad_bits(pk, d, y, oracle)


def qubit_enc(pk, state: StateVector, target: int, oracle: PhaseOracle, rng):
    """Pad one qubit; returns (state, ((d_X, y_X), (d_Z, y_Z)), (x, z)).

    The key (x, z) is derivable from the public tables and is returned for
    test-mode verification; honest parties only ever forward the slots.
    """
    if state.dims[target] != 2:
        raise ValueError("pad target must be a qubit")
    state, slot_z, z_bit = _circuit_round(pk, state, target, oracle, rng)
    state = apply_unitary(state, H, [target])
    state, slot_x, x_bit = _circuit_round(pk, state, target, oracle, rng)
    state = apply_unitary(state, H, [target])
    return state, (slot_x, slot_z), (x_bit, z_bit)


def enc(pk, state: StateVector, targets, oracle: PhaseOracle, rng,
        path: str = "circuit", with_key: bool = False):
    """Pad each target qubit; returns (state, OpadString) or, with
    with_key=True, additionally the test-mode PauliKey."""
    slots = []
    xs, zs = [], []
    for t in targets:
        if path == "circuit":
            state, (slot_x, slot_z), (x_bit, z_bit) = qubit_enc(pk, state, t, oracle, rng)
        elif path == "collapsed":
            if state.dims[t] != 2:
                raise ValueError("pad target must be a qubit")
            slot_z, z_bit = _collapsed_round(pk, oracle, rng)
            slot_x, x_bit = _collapsed_round(pk, oracle, rng)
            state = apply_pauli_pad(state, PauliKey((x_bit,), (z_bit,)), [t])
        else:
            raise ValueError(f"unknown enc path {path!r}")
        slots += [slot_x, slot_z]
        xs.append(x_bit)
        zs.append(z_bit)
    s = OpadString(tuple(slots), "pauli")
    if with_key:
        return state, s, PauliKey(tuple(xs), tuple(zs))
    return state, s


def dec(sk, s: OpadString, oracle: PhaseOracle):
    """Recover the applied key from the classical string via the trapdoor."""
    bits = [pad_bits(sk, d, y, oracle) for d, y in s.slots]
    if s.kind == "bits":
        return tuple(bits)
    # pad_bits gives int bits, and a pauli string has an even slot count
    return PauliKey._trusted(tuple(bits[0::2]), tuple(bits[1::2]))


def samp(pk, j: int, rng: np.random.Generator) -> OpadString:
    """Classical range sampling: the exact marginal of enc's string."""
    size = 1 << pk.n
    slots = []
    for _ in range(2 * j):
        x = int(rng.integers(0, size))
        y = tcf.eval(pk, 0, x)
        d = int(rng.integers(1, size))
        slots.append((d, y))
    return OpadString(tuple(slots), "pauli")


def extract_claw(oracle: PhaseOracle, pk):
    """Search the lazy oracle's query database for a claw under pk.

    f_0(x0) = f_1(x1) iff x1 = x0 xor delta, so the claw is a pair of
    queried points delta apart, the one with the least x1; P is not read.
    """
    if oracle.mode != "lazy":
        raise ValueError("claw extraction reads a lazy oracle database")
    queried = oracle.database  # a lazy oracle's keys are its queried points
    for x1 in sorted(queried):
        if 0 <= x1 < (1 << pk.n) and x1 ^ pk.delta in queried:
            return x1 ^ pk.delta, x1
    return None


def security_game(prover_factory, trials: int, rng: np.random.Generator,
                  lam: int = 6, j: int = 1, oracle_mode: str = "hash") -> float:
    """Key-indistinguishability game for the pad.

    Per trial: fresh keys and oracle; the prover (built by
    prover_factory(keys, oracle)) emits a string s from pk, the challenger
    answers with either the decoded key (b = 1) or a uniform key (b = 0),
    and the prover guesses b.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    wins = 0
    for _ in range(trials):
        keys = gen(lam, rng)
        if oracle_mode == "hash":
            oracle = PhaseOracle("hash", seed=hash_seeds(rng))
        else:
            oracle = PhaseOracle("lazy", rng=rng)
        prover = prover_factory(keys, oracle)
        s = prover.round1(rng)
        if not isinstance(s, OpadString) or s.kind != "pauli" or len(s.slots) != 2 * j:
            raise ValueError("malformed prover string")
        b = int(rng.integers(0, 2))
        k = dec(keys.sk, s, oracle) if b else PauliKey.uniform(j, rng)
        guess = int(prover.round2(k, rng))
        wins += int(guess == b)
    return wins / trials


class RandomGuessProver:
    """Classical baseline: sample the string honestly, guess blind."""

    def __init__(self, keys, oracle, j: int = 1):
        self.pk = keys.pk
        self.j = j

    def round1(self, rng):
        return samp(self.pk, self.j, rng)

    def round2(self, k, rng):
        return int(rng.integers(0, 2))


class PadHolderProver:
    """Quantum strategy: pad |1>, test the challenged key against the state.

    Applying the challenged key to the held U_k|1> undoes the pad exactly
    when the challenge is the decoded key, so measuring the computational
    basis and answering 1 on outcome 1 wins with probability 3/4.
    """

    def __init__(self, keys, oracle, path: str = "collapsed"):
        self.pk = keys.pk
        self.oracle = oracle
        self.path = path
        self.state = None

    def round1(self, rng):
        self.state, s = enc(self.pk, StateVector.basis((2,), (1,)), [0], self.oracle, rng, path=self.path)
        return s

    def round2(self, k, rng):
        probe = apply_pauli_pad(self.state, k, [0])
        (bit,), _ = measure_registers(probe, [0], rng=rng)
        return int(bit == 1)


class ClawPlantingProver:
    """White-box cheat: reads the trapdoor, decodes its own string, and
    plants a claw in the oracle database.  Validates the extraction hook."""

    def __init__(self, keys, oracle, j: int = 7):
        self.keys = keys
        self.oracle = oracle
        self.j = j
        self.k1 = None

    def round1(self, rng):
        self.oracle.bits(*self.keys.sk.claw(0))
        s = samp(self.keys.pk, self.j, rng)
        self.k1 = dec(self.keys.sk, s, self.oracle)
        return s

    def round2(self, k, rng):
        return int(k == self.k1)


class UnitaryFamily:
    """Composition-closed family indexed by bit keys; apply(state, bits)."""

    def __init__(self, nbits: int, apply_fn):
        self.nbits = nbits
        self._apply = apply_fn

    def apply(self, state: StateVector, bits) -> StateVector:
        return self._apply(state, tuple(int(b) for b in bits))


def pauli_family(targets) -> UnitaryFamily:
    targets = tuple(targets)

    def apply_fn(state, bits):
        return apply_pauli_pad(state, PauliKey.from_bits(bits), targets)

    return UnitaryFamily(2 * len(targets), apply_fn)


def identity_family() -> UnitaryFamily:
    return UnitaryFamily(0, lambda state, bits: state)


def general_u_enc(pk, state: StateVector, family: UnitaryFamily, oracle: PhaseOracle, rng,
                  with_key: bool = False):
    """Oblivious pad for a general key-indexed family.

    Each key bit is sampled by running one pad round on an auxiliary |0>
    qubit in the Hadamard frame and measuring it; the assembled key is then
    applied to the input.  The string has one (d, y) slot per key bit.
    """
    slots = []
    bits = []
    for _ in range(family.nbits):
        work = state.tensor(StateVector.basis((2,), (0,)))
        aux = work.num_registers - 1
        work = apply_unitary(work, H, [aux])
        work, slot, _bit = _circuit_round(pk, work, aux, oracle, rng)
        work = apply_unitary(work, H, [aux])
        (kj,), state = measure_and_remove(work, [aux], rng=rng)
        slots.append(slot)
        bits.append(int(kj))
    state = family.apply(state, bits)
    s = OpadString(tuple(slots), "bits")
    if with_key:
        return state, s, tuple(bits)
    return state, s
