"""Simulation-faithful quantum homomorphic encryption.

Quantum ciphertexts carry a Pauli-padded state together with a classical
encryption of the pad key; classical ciphertexts store every payload bit
as a (masked bit, encrypted pad bit) pair.  Homomorphic evaluation is a
trusted executor: it has plaintext access inside the simulation and its
contract is the interface plus the output distributions of a homomorphic
scheme, not cryptographic security.

Three pluggable classical backends:
  stub   one-time pad with tracked keys; insecure, exact, the default.
  leaky  like stub but the pad bits are publicly readable, used to check
         that security games and reductions detect a broken scheme.
  lwe    toy Regev bit encryption (additive xor, plaintext-assisted and).

The stub and leaky backends encrypt and evaluate on plain bits.
stub_encrypt makes one draw of a 63-bit integer per payload bit: bit 62
is the pad and bits 0-61 the token's nonce.  It encrypts one payload or
a chunk's (sessions, bits) array into int arrays (StubCipher), which a
stub backend's cipher method turns into (masked, token) pairs; key_ids
draws one key id or a chunk's.  ceval runs the gates on (mask, pad) int
pairs, draws the fresh pad bits of all and/const gates in one call, and
builds tokens only for the output wires, with their nonces drawn in one
more call; an output that is an input wire or a chain of nots of one
keeps that input's token.  Backends without these fast paths (lwe)
combine tokens gate by gate, drawing a nonce per token.

Decrypting with the wrong key yields keyed pseudorandom garbage instead
of an error, as a real scheme would.
"""
from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qsim import PauliKey, StateVector, apply_pauli_pad, apply_unitary, measure_observable

_LWE_Q = 257
_LWE_DIM = 16
_LWE_PK_ROWS = 48
_LWE_SUBSET = 3
_NONCE_BITS = 62
_NONCE_MASK = (1 << _NONCE_BITS) - 1


def _garbage_bit(reader_key: str, token_key: str, nonce: int, position: int) -> int:
    h = hashlib.sha256(f"{reader_key}|{token_key}|{nonce}|{position}".encode()).digest()
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

    def row(self, i: int, width: int = None) -> "StubCipher":
        """Session i's ciphertext of a chunk, its first width bits."""
        return StubCipher(*(a[i, :width] for a in self))


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
class StubToken:
    key_id: str
    nonce: int
    _bit: int = field(repr=False)


@dataclass(frozen=True)
class LweToken:
    key_id: str
    nonce: int
    a: tuple
    b: int


class _StubBackend:
    scheme = "stub"

    def __init__(self, key_id: str, leaky: bool):
        self.key_id = key_id
        self.leaky = leaky
        if leaky:
            self.scheme = "leaky"

    def enc_bit(self, bit: int, rng: np.random.Generator):
        return StubToken(self.key_id, int(rng.integers(0, 2 ** 62)), int(bit))

    def peek(self, token) -> int:
        # Trusted-simulation access used by dec and the eval executor.
        return token._bit

    def leak(self, token):
        return token._bit if self.leaky else None

    def xor(self, t0, t1, rng):
        return StubToken(self.key_id, int(rng.integers(0, 2 ** 62)), t0._bit ^ t1._bit)

    def and_(self, t0, t1, rng):
        return StubToken(self.key_id, int(rng.integers(0, 2 ** 62)), t0._bit & t1._bit)

    def encrypt(self, bits, rng: np.random.Generator) -> "ClassicalCiphertext":
        """Ciphertext of checked payload bits: stub_encrypt on one row."""
        return self.cipher(stub_encrypt(bits, rng))

    def cipher(self, c: StubCipher) -> "ClassicalCiphertext":
        """One payload's stub arrays as (masked, token) pairs under this key."""
        return ClassicalCiphertext(tuple(
            (m, StubToken(self.key_id, nonce, pad))
            for m, pad, nonce in zip(c.masked.tolist(), c.pad.tolist(), c.nonce.tolist())), self)

    def ceval(self, circuit: "ClassicalCircuit", pairs, rng: np.random.Generator) -> tuple:
        """Output (masked, token) pairs of circuit on input pairs.

        The gates run on plain bits through stub_wires; only output wires
        that are not an input's token (see ClassicalCircuit.token_sources)
        get a new token.
        """
        r = rng.integers(0, 2, size=circuit.random_gates).tolist()
        masks, pads = stub_wires(circuit, [m for m, _ in pairs], [t._bit for _, t in pairs], r)
        sources = circuit.token_sources
        fresh = [w for w in dict.fromkeys(circuit.outputs) if sources[w] is None]
        nonces = rng.integers(0, 2 ** _NONCE_BITS, size=len(fresh)).tolist()
        tokens = {w: StubToken(self.key_id, nonce, pads[w]) for w, nonce in zip(fresh, nonces)}
        return tuple((masks[w], tokens[w] if sources[w] is None else pairs[sources[w]][1])
                     for w in circuit.outputs)

    def token_json(self, token) -> dict:
        d = {"key_id": token.key_id, "nonce": token.nonce}
        if self.leaky:
            d["pad"] = token._bit
        return d


class _LweBackend:
    scheme = "lwe"

    def __init__(self, key_id: str, rng: np.random.Generator):
        self.key_id = key_id
        self.s = rng.integers(0, _LWE_Q, size=_LWE_DIM)
        a = rng.integers(0, _LWE_Q, size=(_LWE_PK_ROWS, _LWE_DIM))
        e = rng.integers(-1, 2, size=_LWE_PK_ROWS)
        b = (a @ self.s + e) % _LWE_Q
        self.pk = (a, b)  # encryptions of zero; public

    def enc_bit(self, bit: int, rng: np.random.Generator):
        a_rows, b_rows = self.pk
        picks = rng.choice(_LWE_PK_ROWS, size=_LWE_SUBSET, replace=False)
        a = a_rows[picks].sum(axis=0) % _LWE_Q
        b = (int(b_rows[picks].sum()) + int(bit) * (_LWE_Q // 2)) % _LWE_Q
        return LweToken(self.key_id, int(rng.integers(0, 2 ** 62)), tuple(int(v) for v in a), b)

    def peek(self, token) -> int:
        val = (token.b - int(np.dot(token.a, self.s))) % _LWE_Q
        return int(min(val, _LWE_Q - val) > _LWE_Q // 4)

    def leak(self, token):
        return None

    def xor(self, t0, t1, rng):
        a = tuple((u + v) % _LWE_Q for u, v in zip(t0.a, t1.a))
        return LweToken(self.key_id, int(rng.integers(0, 2 ** 62)), a, (t0.b + t1.b) % _LWE_Q)

    def and_(self, t0, t1, rng):
        # Plaintext-assisted product; the toy scheme has no multiplication.
        return self.enc_bit(self.peek(t0) & self.peek(t1), rng)

    def token_json(self, token) -> dict:
        return {"key_id": token.key_id, "nonce": token.nonce, "a": list(token.a), "b": token.b}


@dataclass(frozen=True)
class QfheSecretKey:
    scheme: str
    key_id: str
    lam: int
    backend: object = field(repr=False, compare=False)

    def handle(self) -> "QfhePublicHandle":
        return QfhePublicHandle(self.scheme, self.key_id, self.backend)


@dataclass(frozen=True)
class QfhePublicHandle:
    """Public encryption capability: enough to encrypt, never to decrypt."""

    scheme: str
    key_id: str
    backend: object = field(repr=False, compare=False)


@dataclass(frozen=True)
class ClassicalCiphertext:
    bits: tuple  # (masked bit, pad token) per payload bit
    backend: object = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.bits)

    def to_json(self) -> str:
        return json.dumps({
            "scheme": self.backend.scheme,
            "bits": [{"masked": m, **self.backend.token_json(t)} for m, t in self.bits],
        })


@dataclass(frozen=True)
class QfheCiphertext:
    padded_state: StateVector
    pad_hat: ClassicalCiphertext

    @property
    def backend(self):
        return self.pad_hat.backend

    def to_json(self) -> str:
        digest = hashlib.sha256(np.ascontiguousarray(self.padded_state.amps).tobytes()).hexdigest()
        return json.dumps({"pad_hat": json.loads(self.pad_hat.to_json()), "state_digest": digest})


def gen(lam: int, backend: str = "stub", rng: np.random.Generator = None) -> QfheSecretKey:
    if rng is None:
        raise ValueError("an explicit rng is required")
    key_id = key_ids(rng)
    if backend in ("stub", "leaky"):
        be = _StubBackend(key_id, leaky=(backend == "leaky"))
    elif backend == "lwe":
        be = _LweBackend(key_id, rng)
    else:
        raise ValueError(f"unsupported backend {backend!r}")
    return QfheSecretKey(be.scheme, key_id, lam, be)


def _backend_of(key) -> object:
    if isinstance(key, (QfheSecretKey, QfhePublicHandle)):
        return key.backend
    raise TypeError("expected a secret key or public handle")


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
    be = _backend_of(key)
    bits = _checked_bits(bits)
    if hasattr(be, "encrypt"):
        return be.encrypt(bits, rng)
    out = []
    for b in bits:
        pad = int(rng.integers(0, 2))
        out.append((b ^ pad, be.enc_bit(pad, rng)))
    return ClassicalCiphertext(tuple(out), be)


def dec_classical(sk: QfheSecretKey, c: ClassicalCiphertext) -> tuple:
    if not isinstance(sk, QfheSecretKey):
        raise TypeError("decryption requires the secret key")
    out = []
    for i, (masked, token) in enumerate(c.bits):
        if token.key_id == sk.key_id:
            out.append(masked ^ sk.backend.peek(token))
        else:
            out.append(masked ^ _garbage_bit(sk.key_id, token.key_id, token.nonce, i))
    return tuple(out)


def leak_bits(c: ClassicalCiphertext) -> tuple:
    """Plaintext via the leaky backend's exposed pads; errors elsewhere."""
    out = []
    for masked, token in c.bits:
        pad = c.backend.leak(token)
        if pad is None:
            raise ValueError("this backend does not leak pads")
        out.append(masked ^ pad)
    return tuple(out)


def enc_quantum(sk, psi: StateVector, rng: np.random.Generator) -> QfheCiphertext:
    if any(d != 2 for d in psi.dims):
        raise ValueError("quantum encryption pads qubit registers")
    n = psi.num_registers
    k = PauliKey.uniform(n, rng)
    padded = apply_pauli_pad(psi, k, range(n))
    return QfheCiphertext(padded, enc_classical(sk, k.bits(), rng))


def _peek_bits(c: ClassicalCiphertext) -> tuple:
    return tuple(masked ^ c.backend.peek(token) for masked, token in c.bits)


def _unpad(cipher: QfheCiphertext, bits) -> StateVector:
    """Undo the pad whose key payload is bits."""
    state = cipher.padded_state
    # X^x Z^z inverts itself up to a global phase.
    return apply_pauli_pad(state, PauliKey.from_bits(bits), range(state.num_registers))


def dec_quantum(sk: QfheSecretKey, cipher: QfheCiphertext) -> StateVector:
    if not isinstance(sk, QfheSecretKey):
        raise TypeError("decryption requires the secret key")
    return _unpad(cipher, dec_classical(sk, cipher.pad_hat))


def _match_outcome(outcomes, value: float):
    best = min(outcomes, key=lambda vb: abs(vb[0] - value))
    if abs(best[0] - value) > 1e-6:
        raise ValueError(f"measured value {value} matches no declared outcome")
    return tuple(best[1])


def eval(instructions, cipher: QfheCiphertext, rng: np.random.Generator, aux: StateVector = None):
    """Run a circuit on an encrypted state; returns (answer, new ciphertext).

    Instructions, executed in order on the decrypted state (trusted path):
      ("unitary", u, targets)
      ("measure", observable, targets, outcomes)   outcomes: [(eigenvalue, bits)]
      ("select_measure", index ciphertext, {index: [measure steps]})
    Measured answer bits are concatenated and returned encrypted (an empty
    ciphertext when nothing was measured); the state is re-padded with a
    fresh uniform key either way, so emitted pad keys are always uniform.
    """
    be = cipher.backend
    state = _unpad(cipher, _peek_bits(cipher.pad_hat))
    if aux is not None:
        state = state.tensor(aux)
    answer_bits = []

    def run_measure(step):
        nonlocal state
        _, obs, targets, outcomes = step
        value, state = measure_observable(state, obs, targets, rng)
        answer_bits.extend(_match_outcome(outcomes, value))

    for step in instructions:
        op = step[0]
        if op == "unitary":
            state = apply_unitary(state, step[1], step[2])
        elif op == "measure":
            run_measure(step)
        elif op == "select_measure":
            _, index_cipher, branches = step
            bits = _peek_bits(index_cipher)
            idx = int("".join(str(b) for b in bits), 2)
            if idx not in branches:
                raise ValueError(f"encrypted selector {idx} has no circuit branch")
            for sub in branches[idx]:
                run_measure(("measure",) + tuple(sub))
        else:
            raise ValueError(f"unsupported instruction {op!r}")

    n = state.num_registers
    k = PauliKey.uniform(n, rng)
    repadded = apply_pauli_pad(state, k, range(n))
    handle = QfhePublicHandle(be.scheme, be.key_id, be)
    out_cipher = QfheCiphertext(repadded, enc_classical(handle, k.bits(), rng))
    return enc_classical(handle, answer_bits, rng), out_cipher


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
    def token_sources(self) -> tuple:
        """Per wire, the input whose pad token it carries under ceval, or None.

        Inputs and chains of nots of an input keep the input's token; every
        other wire carries a token of its own.
        """
        sources = list(range(self.n_inputs))
        for g in self.gates:
            sources.append(sources[g[1]] if g[0] == "not" else None)
        return tuple(sources)


def stub_wires(circuit: ClassicalCircuit, masks, pads, r) -> tuple:
    """(masks, pads) of every wire of circuit on plain input bits.

    r holds the fresh pad bit of each and/const gate, in gate order.  The
    formulas are those of the token-by-token ceval loop: xor and not act on
    masks and pads directly, an and outputs mask m0*m1 ^ r and pad
    k0*k1 ^ k0*m1 ^ k1*m0 ^ r, and a const c outputs mask c ^ r, pad r.
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
    encryption of the gate output.  Backends with a ceval method (stub,
    leaky) evaluate there; the loop below combines tokens gate by gate.
    """
    if len(c.bits) != circuit.n_inputs:
        raise ValueError("ciphertext width does not match circuit inputs")
    be = c.backend
    if hasattr(be, "ceval"):
        return ClassicalCiphertext(be.ceval(circuit, c.bits, rng), be)
    wires = list(c.bits)
    for g in circuit.gates:
        op = g[0]
        if op == "xor":
            (m0, t0), (m1, t1) = wires[g[1]], wires[g[2]]
            wires.append((m0 ^ m1, be.xor(t0, t1, rng)))
        elif op == "and":
            (m0, t0), (m1, t1) = wires[g[1]], wires[g[2]]
            r = int(rng.integers(0, 2))
            # pad_out = k0*m1 ^ k1*m0 ^ k0*k1 ^ r, assembled homomorphically
            parts = [be.and_(t0, t1, rng)]
            if m1:
                parts.append(t0)
            if m0:
                parts.append(t1)
            acc = parts[0]
            for p in parts[1:]:
                acc = be.xor(acc, p, rng)
            acc = be.xor(acc, be.enc_bit(r, rng), rng)
            wires.append(((m0 & m1) ^ r, acc))
        elif op == "not":
            m, t = wires[g[1]]
            wires.append((m ^ 1, t))
        elif op == "const":
            r = int(rng.integers(0, 2))
            wires.append((int(g[1]) ^ r, be.enc_bit(r, rng)))
        else:
            raise ValueError(f"unsupported gate {op!r}")
    return ClassicalCiphertext(tuple(wires[i] for i in circuit.outputs), be)


def twoind_game(distinguisher, x0, x1, trials: int, rng: np.random.Generator,
                lam: int = 8, backend: str = "stub") -> float:
    """Indistinguishability game: guess which of two strings was encrypted.

    The distinguisher is called as distinguisher(handle, ciphertext, rng)
    and must return a bit; a fresh key is generated every round.
    """
    x0 = tuple(int(b) for b in x0)
    x1 = tuple(int(b) for b in x1)
    if len(x0) != len(x1):
        raise ValueError("challenge strings must have equal length")
    wins = 0
    for _ in range(trials):
        sk = gen(lam, backend, rng)
        b = int(rng.integers(0, 2))
        cipher = enc_classical(sk, x1 if b else x0, rng)
        guess = int(distinguisher(sk.handle(), cipher, rng))
        wins += int(guess == b)
    return wins / trials
