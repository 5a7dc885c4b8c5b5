"""Two-round proof of quantumness over the claw-free layer.

Message flow: the verifier hides a bit s inside the key pair and sends pk;
the prover commits (mu, d, y); the verifier answers with a uniform
challenge c; the prover returns one bit b, measured from its leftover
qubit in a basis rotated by +-pi/8 (selected by c).

The honest prover's leftover qubit after the commitment is a BB84 state
that depends on the hidden bit: for s = 0 the claw shares its first bit
and the qubit is |0> + (-1)^{d.(v0 xor v1)} |1>, for s = 1 the first-bit
measurement collapses the claw branch and the qubit is |mu xor mu0(y)>.
The rotated measurement then satisfies the corresponding verifier
equation with probability cos^2(pi/8) ~ 0.8536 in every case, while any
classical strategy caps at 3/4.

The commitment distribution (y uniform, d uniform, branch bit uniform
when s = 1) is independent of everything the prover cannot see, so a
"collapsed" prover path draws it directly, reading the claw of y from the
key, and skips the register-level circuit; the circuit path stays
available and tests pin the equivalence.

Rewinding: running one commitment and both challenges against a classical
prover and guessing s' = 1 xor b0 xor b1 succeeds with probability at
least 2*rate - 1; the experiment here realizes that extractor.

Two engines play the protocol with the same prover classes and verifier
checks.  run_protocol and rewind_experiment run one instance at a time
through PoqVerifier, the prover on the instance's tcf.IdealKey; they are
the reference, and the only engine for the circuit-path honest prover and
PeekingProver.  estimate_rate and estimate_rewind run the collapsed honest
prover and the zoo in chunks of tcf.CHUNK_SIZE = 4096 instances (a row of
up to 4096 trials is one chunk), the prover on the chunk's keys, one
tcf.IdealKey with a fresh hidden bit and key per instance.  A prover
draws size=pk.count values per rng call, so on a one-row chunk it draws
what it draws on that row's key; a seed gives a chunk other instances
than the scalar engine, from the same distribution.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tcf
from .qsim import StateVector, check_norms, checked_int, int_of, measure_and_remove

HONEST_RATE = math.cos(math.pi / 8) ** 2
CLASSICAL_BOUND = 0.75


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# Basis changes of rotated_measure, indexed by the challenge: +pi/8, -pi/8.
_ROTATED_BASES = np.stack([rotation(math.pi / 8).T, rotation(-math.pi / 8).T]).astype(complex)


def rotated_measure(qubits: np.ndarray, c, rng: np.random.Generator):
    """Measure qubits, (..., 2) amplitudes, each in the basis rotated by
    +pi/8 (its challenge c = 0) or -pi/8 (c = 1).

    measure_registers' draw, one uniform per qubit: outcome 1 once the
    uniform scaled by the total weight reaches the weight of 0.
    """
    probe = np.einsum("...ij,...j->...i", _ROTATED_BASES[c], qubits)
    probs = probe.real ** 2 + probe.imag ** 2
    return (rng.random(qubits.shape[:-1] or None) * probs.sum(axis=-1)
            >= probs[..., 0]).astype(np.int64)


def _checked(value, bound: int, message: str):
    """value, an int or an int array, once every entry lies in [0, bound);
    else ValueError(message).  A float is refused, never truncated."""
    if isinstance(value, np.ndarray) and value.ndim:
        if value.dtype.kind not in "biu" or ((value < 0) | (value >= bound)).any():
            raise ValueError(message)
        return value
    return checked_int(value, message, bound)


def _checked_commitment(mu, d, y, n: int) -> tuple:
    """The verifier's checks of a commitment (mu, d, y), on one or a chunk."""
    return (_checked(mu, 2, "mu must be a bit"),
            _checked(d, 1 << (n - 1), "d must have n-1 bits"),
            _checked(y, 1 << n, "y outside the image"))


def _accepts(s, mu, d, c, b, x0, x1, n: int):
    """The verifier's equation on ints or int arrays, x0 and x1 the claw of y.

    s = 0: d.(v0 xor v1) xor b = c, v the trailing n-1 bits of the claw;
    s = 1: mu xor (first bit of x0) xor b = 0.
    """
    a = (1 - s) * tcf.dot_bits(d, tcf.trailing_bits(x0, n) ^ tcf.trailing_bits(x1, n)) \
        + s * (mu ^ tcf.first_bit(x0, n))
    return (a ^ b) == (1 - s) * c


@dataclass(frozen=True)
class PoqTranscript:
    lam: int
    s: int
    y: int
    mu: int
    d: int
    c: int
    b: int
    accepted: bool

    def as_dict(self) -> dict:
        # the instance dict holds the eight fields in declaration order;
        # dataclasses.asdict would deep-copy each int at about 20x the cost
        return dict(vars(self))

    @classmethod
    def from_json(cls, text: str) -> "PoqTranscript":
        d = json.loads(text)
        return cls(d["lam"], d["s"], d["y"], d["mu"], d["d"],
                   d["c"], d["b"], bool(d["accepted"]))


class PoqVerifier:
    """One protocol instance; enforces the message order.

    round1() -> pk, round2(mu, d, y) -> c, decide(b) -> accepted.
    The hidden bit stays on this object.  keys.pk and keys.sk are one
    tcf.IdealKey, as the public tables would determine the trapdoor;
    provers are handed it as .pk.
    """

    def __init__(self, lam: int, rng: np.random.Generator):
        self.lam = lam
        self._rng = rng
        self._s = int(rng.integers(0, 2))
        self.keys = tcf.gen(lam, hidden=self._s, rng=rng)
        self._phase = "round1"
        self._mu = self._d = self._y = self._c = None

    @property
    def pk(self):
        return self.keys.pk

    @property
    def hidden_bit(self) -> int:
        return self._s

    def round1(self):
        if self._phase != "round1":
            raise RuntimeError("round1 already played")
        self._phase = "round2"
        return self.keys.pk

    def round2(self, mu: int, d: int, y: int) -> int:
        if self._phase != "round2":
            raise RuntimeError("round2 out of order")
        self._mu, self._d, self._y = _checked_commitment(mu, d, y, self.keys.domain_bits)
        self._c = int(self._rng.integers(0, 2))
        self._phase = "decide"
        return self._c

    def decide(self, b: int) -> bool:
        if self._phase != "decide":
            raise RuntimeError("decide out of order")
        b = _checked(b, 2, "b must be a bit")
        x0, x1 = self.keys.sk.claw(self._y)
        self._b = b
        self._accepted = bool(_accepts(self._s, self._mu, self._d, self._c, b, x0, x1,
                                       self.keys.domain_bits))
        self._phase = "done"
        return self._accepted

    def transcript(self) -> PoqTranscript:
        if self._phase != "done":
            raise RuntimeError("protocol still in progress")
        return PoqTranscript(self.lam, self._s, self._y, self._mu,
                             self._d, self._c, self._b, self._accepted)


class HonestProver:
    """Quantum prover; holds the leftover qubit's amplitudes between rounds.

    path="circuit" runs the full register-level preparation on one key; the
    default "collapsed" path draws the identically distributed commitment,
    reads the claw of y from pk and prepares the leftover directly, on any pk.
    """

    def __init__(self, pk, rng: np.random.Generator, path: str = "collapsed"):
        if path not in ("circuit", "collapsed"):
            raise ValueError(f"unknown prover path {path!r}")
        self.pk = pk
        self.path = path
        self._rng = rng
        self.leftover = None

    def round1(self):
        n, count = self.pk.n, self.pk.count
        rng = self._rng
        if self.path == "circuit":
            plus = StateVector((2,), np.array([1.0, 1.0]) / np.sqrt(2))
            y, _, _, state = tcf.measure_claw(self.pk, plus, 0, rng)
            (mu,), state = measure_and_remove(state, [1], rng=rng)
            digits, state = measure_and_remove(state, range(1, n), basis="hadamard", rng=rng)
            self.leftover = state.amps
            return int(mu), int_of(digits), int(y)
        y = rng.integers(0, 1 << n, size=count)
        d = rng.integers(0, 1 << (n - 1), size=count)
        branch = rng.integers(0, 2, size=count)
        x0, x1 = self.pk.claw(y)
        mu0, mu1 = tcf.first_bit(x0, n), tcf.first_bit(x1, n)
        shared = mu0 == mu1
        sign = 1 - 2 * tcf.dot_bits(d, tcf.trailing_bits(x0, n) ^ tcf.trailing_bits(x1, n))
        # |0> + sign |1> where the claw shares its first bit, else |branch>
        self.leftover = np.where(np.expand_dims(shared, -1),
                                 np.stack([np.ones_like(sign), sign], axis=-1) / np.sqrt(2),
                                 np.stack([1 - branch, branch], axis=-1))
        check_norms(self.leftover)
        # mu0 where the claw shares its first bit, else the branch's first bit
        return mu0 ^ ((mu0 ^ mu1) & branch), d, y

    def round2(self, c):
        if self.leftover is None:
            raise RuntimeError("no held qubit; round1 not played or qubit consumed")
        bit = rotated_measure(self.leftover, c, self._rng)
        self.leftover = None
        return bit


def _zeros(pk):
    """A zero per instance: 0 on one key, an array on a chunk."""
    return 0 if pk.count is None else np.zeros(pk.count, dtype=np.int64)


class ZeroCommitEchoProver:
    """Commits d = 0 on a fixed image point and echoes b = c.

    d = 0 forces a = 0 in the s = 0 equation, which b = c then satisfies
    for every challenge; the s = 1 equation ignores c and is met half the
    time.  Rate exactly 3/4: the classical optimum.
    """

    analytic_rate = Fraction(3, 4)

    def __init__(self, pk, rng):
        self.pk = pk

    def round1(self):
        zero = _zeros(self.pk)
        return zero, zero, self.pk.image(zero)

    def round2(self, c):
        return c


class PreimageAnswerProver:
    """Evaluates branch 0 on a chosen preimage, commits that image point
    with d = 0, and answers the preimage's first bit.

    Knowing x0 makes the s = 1 equation hold always; the s = 0 equation
    reduces to a coin over c.  Rate exactly 3/4 by the complementary split
    to the echo strategy.
    """

    analytic_rate = Fraction(3, 4)

    def __init__(self, pk, rng):
        self.pk = pk
        self._rng = rng
        self._bit = None

    def round1(self):
        n = self.pk.n
        x = self._rng.integers(0, 1 << n, size=self.pk.count)
        self._bit = tcf.first_bit(x, n)
        zero = _zeros(self.pk)
        return zero, zero, self.pk.image(x)

    def round2(self, c):
        return self._bit


class RandomCommitEchoProver:
    """Uniform mu and d on a random image point, b = c; the random d
    breaks the s = 0 equation half the time, landing at rate exactly 1/2."""

    analytic_rate = Fraction(1, 2)

    def __init__(self, pk, rng):
        self.pk = pk
        self._rng = rng

    def round1(self):
        n, count, rng = self.pk.n, self.pk.count, self._rng
        x = rng.integers(0, 1 << n, size=count)
        mu = rng.integers(0, 2, size=count)
        return mu, rng.integers(0, 1 << (n - 1), size=count), self.pk.image(x)

    def round2(self, c):
        return c


class RandomAnswerProver:
    """Zero commitment on a fixed image point, uniform b: rate exactly 1/2."""

    analytic_rate = Fraction(1, 2)

    def __init__(self, pk, rng):
        self.pk = pk
        self._rng = rng

    def round1(self):
        zero = _zeros(self.pk)
        return zero, zero, self.pk.image(zero)

    def round2(self, c):
        return self._rng.integers(0, 2, size=self.pk.count)


class PeekingProver:
    """Diagnostic white-box prover: with probability cheat_prob it reads
    the verifier's hidden bit and trapdoor and wins that instance outright,
    otherwise it plays the 3/4 zero-echo strategy.

    Rate is exactly 3/4 + cheat_prob/4, and the rewinding extractor's
    success is exactly 2*rate - 1 against it: the bound is tight across
    the whole family.
    """

    def __init__(self, verifier: PoqVerifier, rng, cheat_prob: float = 0.2):
        self.verifier = verifier
        self.cheat_prob = cheat_prob
        self._cheating = bool(rng.random() < cheat_prob)
        self._answer = None

    @property
    def analytic_rate(self) -> Fraction:
        return Fraction(3, 4) + Fraction(self.cheat_prob).limit_denominator(10 ** 6) / 4

    def round1(self):
        if self._cheating:
            keys = self.verifier.keys
            if self.verifier.hidden_bit == 1:
                x0, _ = keys.sk.claw(0)
                self._answer = tcf.first_bit(x0, keys.domain_bits)
        return 0, 0, 0

    def round2(self, c: int) -> int:
        if self._cheating and self._answer is not None:
            return self._answer
        return int(c)


def honest(path: str = "collapsed"):
    return lambda verifier, rng: HonestProver(verifier.pk, rng, path=path)


CLASSICAL_CLASSES = {
    "zero-echo": ZeroCommitEchoProver,
    "preimage": PreimageAnswerProver,
    "random-echo": RandomCommitEchoProver,
    "random-answer": RandomAnswerProver,
}


def classical(kind: str):
    cls = CLASSICAL_CLASSES[kind]
    return lambda verifier, rng: cls(verifier.pk, rng)


def peeking(cheat_prob: float = 0.2):
    return lambda verifier, rng: PeekingProver(verifier, rng, cheat_prob)


CLASSICAL_KINDS = tuple(CLASSICAL_CLASSES)


def run_protocol(prover_factory, trials: int, rng: np.random.Generator,
                 lam: int = 8, keep_transcripts: bool = False):
    """Play full instances; returns (acceptance rate, transcripts or None)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    wins = 0
    transcripts = [] if keep_transcripts else None
    for _ in range(trials):
        verifier = PoqVerifier(lam, rng)
        prover = prover_factory(verifier, rng)
        pk = verifier.round1()
        assert pk is verifier.pk
        mu, d, y = prover.round1()
        c = verifier.round2(mu, d, y)
        accepted = verifier.decide(prover.round2(c))
        wins += int(accepted)
        if keep_transcripts:
            transcripts.append(verifier.transcript())
    return wins / trials, transcripts


def rewind_experiment(prover_factory, trials: int, rng: np.random.Generator,
                      lam: int = 8) -> float:
    """Extract the hidden bit from a rewindable (classical) prover.

    One commitment, both challenges: guess s' = 1 xor b0 xor b1.  Returns
    the frequency of s' = s; for a prover with acceptance rate r this is
    at least 2r - 1.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    hits = 0
    for _ in range(trials):
        verifier = PoqVerifier(lam, rng)
        prover = prover_factory(verifier, rng)
        verifier.round1()
        prover.round1()
        b0 = prover.round2(0)
        b1 = prover.round2(1)
        guess = 1 ^ int(b0) ^ int(b1)
        hits += int(guess == verifier.hidden_bit)
    return hits / trials


def _chunks(trials: int, lam: int, rng: np.random.Generator):
    """(hidden bits, keys) of each chunk of trials fresh instances."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    tcf.check_domain_bits(lam)
    size = tcf.CHUNK_SIZE
    for start in range(0, trials, size):
        s = rng.integers(0, 2, size=min(size, trials - start))
        yield s, tcf.gen_many(lam, len(s), rng, hidden=s)


def estimate_rate(name: str, trials: int, rng: np.random.Generator, lam: int = 8,
                  on_transcript=None) -> float:
    """Acceptance rate of trials instances of the collapsed honest prover
    ("honest") or a classical zoo prover, run in chunks; on_transcript, when
    given, gets each instance's PoqTranscript in order as its chunk finishes."""
    if name != "honest" and name not in CLASSICAL_CLASSES:
        raise ValueError(f"unknown prover {name!r}")
    cls = HonestProver if name == "honest" else CLASSICAL_CLASSES[name]
    wins = 0
    for s, keys in _chunks(trials, lam, rng):
        prover = cls(keys, rng)
        mu, d, y = _checked_commitment(*prover.round1(), lam)
        c = rng.integers(0, 2, size=len(s))
        b = _checked(prover.round2(c), 2, "b must be a bit")
        accepted = _accepts(s, mu, d, c, b, *keys.claw(y), lam)
        wins += int(accepted.sum())
        if on_transcript is not None:
            for row in zip(*(a.tolist() for a in (s, y, mu, d, c, b, accepted))):
                on_transcript(PoqTranscript(lam, *row))
    return wins / trials


def estimate_rewind(kind: str, trials: int, rng: np.random.Generator, lam: int = 8) -> float:
    """rewind_experiment against a classical zoo prover, run in chunks."""
    if kind not in CLASSICAL_CLASSES:
        raise ValueError(f"unknown prover {kind!r}")
    cls = CLASSICAL_CLASSES[kind]
    hits = 0
    for s, keys in _chunks(trials, lam, rng):
        prover = cls(keys, rng)
        prover.round1()
        b0 = prover.round2(np.zeros_like(s))
        b1 = prover.round2(np.ones_like(s))
        hits += int(((1 ^ b0 ^ b1) == s).sum())
    return hits / trials
