"""Simulation-faithful quantum homomorphic encryption.

Quantum ciphertexts carry a Pauli-padded state together with a classical
encryption of the pad key; classical ciphertexts store every payload bit
masked by a pad bit.  Homomorphic evaluation is a trusted executor: it
has plaintext access inside the simulation and its contract is the
interface plus the output distributions of a homomorphic scheme, not
cryptographic security.

One classical encryption family, in two variants:
  stub   one-time pad with tracked keys; insecure, exact, the default.
  leaky  like stub but the pad bits are publicly readable, used to check
         that security games and reductions detect a broken scheme.

A payload's ciphertext (ClassicalCiphertext) is one frozen value: the
masked bits, pad bits and nonces as int tuples, with the key id and
scheme of the key that made it.  stub_encrypt makes one draw of a 63-bit
integer per payload bit: bit 62 is the pad and bits 0-61 the nonce.  It
encrypts one payload or a chunk's (sessions, bits) array into int arrays
(StubCipher), whose rows method gives each row's ClassicalCiphertext;
key_ids draws one key id or a chunk's.  ceval runs the gates on (mask,
pad) int pairs, draws the fresh pad bits of all and/const gates in one
call and fresh nonces for the output wires in one more; an output that
is an input wire or a chain of nots of one keeps that input's nonce.
peek_bits is the one pad read that skips the secret key: the trusted
executor of eval and the white-box provers of reductions use it.

Decrypting with the wrong key yields keyed pseudorandom garbage instead
of an error, as a real scheme would.
"""
from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qsim import PauliKey, StateVector, apply_pauli_pad, int_of, measure_observable

_NONCE_BITS = 62
_NONCE_MASK = (1 << _NONCE_BITS) - 1


def _garbage_bit(reader_key: str, cipher_key: str, nonce: int, position: int) -> int:
    h = hashlib.sha256(f"{reader_key}|{cipher_key}|{nonce}|{position}".encode()).digest()
    return h[0] & 1


class StubCipher(NamedTuple):
    """Stub ciphertexts as int arrays shaped like the payload: masked bits,
    pad bits and nonces; a (sessions, bits) payload gives a chunk's."""

    masked: np.ndarray
    pad: np.ndarray
    nonce: np.ndarray

    def bits(self) -> np.ndarray:
        """The plaintext, read with the pads."""
        return self.masked ^ self.pad

    def rows(self, key_ids, scheme: str, widths=None):
        """Each session's ClassicalCiphertext of a chunk, under its key id in
        key_ids; widths, when given, keeps session i's first widths[i] bits."""
        for i, key_id in enumerate(key_ids):
            w = None if widths is None else widths[i]
            yield ClassicalCiphertext(*(tuple(a[i, :w].tolist()) for a in self), key_id, scheme)


def stub_encrypt(bits, rng: np.random.Generator) -> StubCipher:
    """Stub encryption of checked payload bits, a bit tuple or a (sessions,
    bits) array: per bit, one 63-bit draw gives the pad (bit 62) and the
    nonce (bits 0-61)."""
    bits = np.asarray(bits, dtype=np.int64)
    draws = rng.integers(0, 2 ** 63, size=bits.size).reshape(bits.shape)
    pad = draws >> _NONCE_BITS
    return StubCipher(bits ^ pad, pad, draws & _NONCE_MASK)


def key_ids(rng: np.random.Generator, count: int = None):
    """Fresh 16-byte key ids in hex from one draw: one id, or a list of count."""
    hexed = rng.integers(0, 256, size=16 * (1 if count is None else count),
                         dtype=np.uint8).tobytes().hex()
    return hexed if count is None else [hexed[i:i + 32] for i in range(0, len(hexed), 32)]


@dataclass(frozen=True)
class QfheSecretKey:
    scheme: str
    key_id: str

    def handle(self) -> "QfhePublicHandle":
        return QfhePublicHandle(self.scheme, self.key_id)


@dataclass(frozen=True)
class QfhePublicHandle:
    """Public encryption capability: enough to encrypt, never to decrypt."""

    scheme: str
    key_id: str


@dataclass(frozen=True)
class ClassicalCiphertext:
    """One payload's ciphertext: per bit, the masked bit, the pad bit and a
    nonce, under the key key_id of scheme "stub" or "leaky"."""

    masked: tuple
    pad: tuple
    nonce: tuple
    key_id: str
    scheme: str

    def __len__(self) -> int:
        return len(self.masked)

    def as_dict(self) -> dict:
        key_id, leaky = self.key_id, self.scheme == "leaky"
        bits = []
        for m, pad, nonce in zip(self.masked, self.pad, self.nonce):
            d = {"masked": m, "key_id": key_id, "nonce": nonce}
            if leaky:
                d["pad"] = pad
            bits.append(d)
        return {"scheme": self.scheme, "bits": bits}


@dataclass(frozen=True)
class QfheCiphertext:
    padded_state: StateVector
    pad_hat: ClassicalCiphertext


def gen(rng: np.random.Generator, backend: str = "stub") -> QfheSecretKey:
    """A fresh key of the stub or leaky scheme: its key id is the only draw,
    as the stub scheme has no security parameter."""
    if backend not in ("stub", "leaky"):
        raise ValueError(f"unsupported backend {backend!r}")
    return QfheSecretKey(backend, key_ids(rng))


def _checked_bits(bits) -> tuple:
    """Payload as Python ints, refusing anything but the integers 0 and 1."""
    out = []
    for b in bits:
        try:
            b = operator.index(b)
        except TypeError:
            raise ValueError(f"payload must be bits, got {b!r}") from None
        if b not in (0, 1):
            raise ValueError(f"payload must be bits, got {b!r}")
        out.append(int(b))
    return tuple(out)


def enc_classical(key, bits, rng: np.random.Generator) -> ClassicalCiphertext:
    """Encrypt a bit string; works with a secret key or a public handle."""
    if not isinstance(key, (QfheSecretKey, QfhePublicHandle)):
        raise TypeError("expected a secret key or public handle")
    bits = _checked_bits(bits)
    return next(stub_encrypt([bits], rng).rows((key.key_id,), key.scheme))


def dec_classical(sk: QfheSecretKey, c: ClassicalCiphertext) -> tuple:
    if not isinstance(sk, QfheSecretKey):
        raise TypeError("decryption requires the secret key")
    if c.key_id == sk.key_id:
        pads = c.pad
    else:
        pads = [_garbage_bit(sk.key_id, c.key_id, nonce, i) for i, nonce in enumerate(c.nonce)]
    return tuple(map(operator.xor, c.masked, pads))


def leak_bits(c: ClassicalCiphertext) -> tuple:
    """Plaintext via the leaky scheme's exposed pads; errors elsewhere."""
    if c.scheme != "leaky":
        raise ValueError("this backend does not leak pads")
    return peek_bits(c)


def peek_bits(c: ClassicalCiphertext) -> tuple:
    """Plaintext read from the pads without the secret key: trusted-simulation
    access that no real scheme allows."""
    return tuple(map(operator.xor, c.masked, c.pad))


def enc_quantum(sk, psi: StateVector, rng: np.random.Generator) -> QfheCiphertext:
    if any(d != 2 for d in psi.dims):
        raise ValueError("quantum encryption pads qubit registers")
    n = psi.num_registers
    k = PauliKey.uniform(n, rng)
    padded = apply_pauli_pad(psi, k, range(n))
    return QfheCiphertext(padded, enc_classical(sk, k.bits(), rng))


def _unpad(cipher: QfheCiphertext, bits) -> StateVector:
    """Undo the pad whose key payload is bits."""
    state = cipher.padded_state
    # X^x Z^z inverts itself up to a global phase.
    return apply_pauli_pad(state, PauliKey.from_bits(bits), range(state.num_registers))


def dec_quantum(sk: QfheSecretKey, cipher: QfheCiphertext) -> StateVector:
    if not isinstance(sk, QfheSecretKey):
        raise TypeError("decryption requires the secret key")
    return _unpad(cipher, dec_classical(sk, cipher.pad_hat))


def eval(selector: ClassicalCiphertext, programs: dict, answer_bits, cipher: QfheCiphertext,
         rng: np.random.Generator):
    """Measure the program an encrypted index selects on an encrypted state;
    returns (answer, new ciphertext).

    The trusted executor decrypts the state and the index that selector
    encrypts, then measures each observable programs[index] lists, in
    order, on every register.  answer_bits(eigenvalue) gives an outcome's
    bits; they are concatenated and returned encrypted (an empty ciphertext
    for an empty program).  The state is re-padded with a fresh uniform
    key, so emitted pad keys are always uniform.
    """
    state = _unpad(cipher, peek_bits(cipher.pad_hat))
    index = int_of(peek_bits(selector))
    if index not in programs:
        raise ValueError(f"encrypted selector {index} has no program")
    targets = range(state.num_registers)
    answer = []
    for obs in programs[index]:
        value, state = measure_observable(state, obs, targets, rng)
        answer += answer_bits(value)
    k = PauliKey.uniform(state.num_registers, rng)
    repadded = apply_pauli_pad(state, k, targets)
    handle = QfhePublicHandle(cipher.pad_hat.scheme, cipher.pad_hat.key_id)
    out_cipher = QfheCiphertext(repadded, enc_classical(handle, k.bits(), rng))
    return enc_classical(handle, answer, rng), out_cipher


@dataclass(frozen=True)
class ClassicalCircuit:
    """Gate list over xor/and/not/const; each gate appends one wire."""

    n_inputs: int
    gates: tuple
    outputs: tuple

    def run_plain(self, bits) -> tuple:
        wires = [int(b) for b in bits]
        if len(wires) != self.n_inputs:
            raise ValueError("input width mismatch")
        for g in self.gates:
            op = g[0]
            if op == "xor":
                wires.append(wires[g[1]] ^ wires[g[2]])
            elif op == "and":
                wires.append(wires[g[1]] & wires[g[2]])
            elif op == "not":
                wires.append(wires[g[1]] ^ 1)
            elif op == "const":
                wires.append(int(g[1]))
            else:
                raise ValueError(f"unsupported gate {op!r}")
        return tuple(wires[i] for i in self.outputs)

    @cached_property
    def random_gates(self) -> int:
        """Gates that draw a fresh pad bit under ceval: every and and const."""
        return sum(g[0] in ("and", "const") for g in self.gates)

    @cached_property
    def nonce_sources(self) -> tuple:
        """Per wire, the input whose nonce it carries under ceval, or None.

        Inputs and chains of nots of an input keep the input's nonce; every
        other wire gets a fresh one.
        """
        sources = list(range(self.n_inputs))
        for g in self.gates:
            sources.append(sources[g[1]] if g[0] == "not" else None)
        return tuple(sources)


def stub_wires(circuit: ClassicalCircuit, masks, pads, r) -> tuple:
    """(masks, pads) of every wire of circuit on plain input bits.

    r holds the fresh pad bit of each and/const gate, in gate order.  xor
    and not act on masks and pads directly, an and outputs mask m0*m1 ^ r
    and pad k0*k1 ^ k0*m1 ^ k1*m0 ^ r, and a const c outputs mask c ^ r,
    pad r: the pads a gate-by-gate homomorphic evaluation would encrypt.
    """
    masks = list(masks)
    pads = list(pads)
    fresh = iter(r)
    for g in circuit.gates:
        op = g[0]
        if op == "xor":
            masks.append(masks[g[1]] ^ masks[g[2]])
            pads.append(pads[g[1]] ^ pads[g[2]])
        elif op == "and":
            m0, m1, k0, k1 = masks[g[1]], masks[g[2]], pads[g[1]], pads[g[2]]
            rb = next(fresh)
            masks.append((m0 & m1) ^ rb)
            pads.append((k0 & k1) ^ (k0 & m1) ^ (k1 & m0) ^ rb)
        elif op == "not":
            masks.append(masks[g[1]] ^ 1)
            pads.append(pads[g[1]])
        elif op == "const":
            rb = next(fresh)
            masks.append(int(g[1]) ^ rb)
            pads.append(rb)
        else:
            raise ValueError(f"unsupported gate {op!r}")
    return masks, pads


def ceval(circuit: ClassicalCircuit, c: ClassicalCiphertext, rng: np.random.Generator) -> ClassicalCiphertext:
    """Homomorphic evaluation of a classical circuit on a classical ciphertext.

    xor combines masks and pad encryptions directly; and re-randomizes with
    a fresh uniform pad, so the output distribution matches a fresh
    encryption of the gate output.
    """
    if len(c) != circuit.n_inputs:
        raise ValueError("ciphertext width does not match circuit inputs")
    r = rng.integers(0, 2, size=circuit.random_gates).tolist()
    masks, pads = stub_wires(circuit, c.masked, c.pad, r)
    sources, outputs = circuit.nonce_sources, circuit.outputs
    fresh = [w for w in dict.fromkeys(outputs) if sources[w] is None]
    nonces = dict(zip(fresh, rng.integers(0, 2 ** _NONCE_BITS, size=len(fresh)).tolist()))
    return ClassicalCiphertext(
        tuple(masks[w] for w in outputs), tuple(pads[w] for w in outputs),
        tuple(nonces[w] if sources[w] is None else c.nonce[sources[w]] for w in outputs),
        c.key_id, c.scheme)


def twoind_game(distinguisher, x0, x1, trials: int, rng: np.random.Generator,
                backend: str = "stub") -> float:
    """Indistinguishability game: guess which of two strings was encrypted.

    The distinguisher is called as distinguisher(handle, ciphertext, rng)
    and must return a bit; a fresh key is generated every round.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    x0, x1 = _checked_bits(x0), _checked_bits(x1)
    if len(x0) != len(x1):
        raise ValueError("challenge strings must have equal length")
    wins = 0
    for _ in range(trials):
        sk = gen(rng, backend)
        b = int(rng.integers(0, 2))
        cipher = enc_classical(sk, x1 if b else x0, rng)
        guess = int(distinguisher(sk.handle(), cipher, rng))
        wins += int(guess == b)
    return wins / trials
