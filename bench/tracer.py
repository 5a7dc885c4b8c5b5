"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of the ctxsim layers
from outside the package.  A module function is replaced in every ctxsim
module that binds it (``qsim.apply_pauli_pad`` is also bound as
``opad.apply_pauli_pad`` and ``qfhe.apply_pauli_pad``); a method is
replaced on its class, so the classes themselves and ``isinstance``
checks are untouched.  ``uninstall`` puts every original back.

Each call records one span: name, start and end (``perf_counter_ns``),
and the index of the enclosing span.  Spans stay in flat arrays until the
run ends.  Some wrappers also count work at the same boundary: encrypted
bits, gates per homomorphic circuit, assignment tables searched, the
largest statevector, and the bytes of amplitudes the outermost qsim call
takes as input.  Byte counts are computed from array sizes, not measured.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

AMP_BYTES = 16  # one complex128 amplitude

# (module, attribute path) of every wrapped function or method.
TARGETS = (
    ("qsim", "StateVector.__init__"),
    ("qsim", "Observable.__init__"),
    ("qsim", "apply_pauli_pad"),
    ("qsim", "apply_unitary"),
    ("qsim", "branch_measure"),
    ("qsim", "measure_observable"),
    ("qsim", "measure_registers"),
    ("qsim", "remove_registers"),
    ("tcf", "gen"),
    ("tcf", "public_claw"),
    ("tcf", "inv"),
    ("tcf", "eval"),
    ("tcf", "coherent_samp"),
    ("qfhe", "gen"),
    ("qfhe", "enc_classical"),
    ("qfhe", "dec_classical"),
    ("qfhe", "enc_quantum"),
    ("qfhe", "eval"),
    ("qfhe", "ceval"),
    ("opad", "gen"),
    ("opad", "enc"),
    ("opad", "dec"),
    ("opad", "samp"),
    ("opad", "PhaseOracle.query"),
    ("games", "nc_value_with_table"),
    ("games", "quantum_value_of"),
    ("games", "embed_in_qubits"),
    ("games", "ContextualityGame.sample_context"),
    ("poq", "PoqVerifier.__init__"),
    ("poq", "PoqVerifier.round2"),
    ("poq", "PoqVerifier.decide"),
    ("poq", "HonestProver.round1"),
    ("poq", "HonestProver.round2"),
    ("compilers", "CompiledVerifier.__init__"),
    ("compilers", "CompiledVerifier.message3"),
    ("compilers", "CompiledVerifier.decide"),
    ("compilers", "HonestQuantumProver.round1"),
    ("compilers", "HonestQuantumProver.round2"),
    ("compilers", "TruthTableProver.round1"),
    ("compilers", "TruthTableProver.round2"),
    ("reductions", "extract_truthtable"),
    ("reductions", "CipherPeekingProver.round1"),
    ("cli", "main"),
)

# opad.enc is reported per path; the zoo provers of poq share two names.
SPAN_NAMES = tuple(
    name
    for mod, attr in TARGETS
    for name in (("opad.enc.collapsed", "opad.enc.circuit")
                 if (mod, attr) == ("opad", "enc") else (f"{mod}.{attr}",))
) + ("poq.classical.round1", "poq.classical.round2")

LAYERS = ("qsim", "games", "tcf", "qfhe", "opad", "poq", "compilers",
          "reductions", "cli")

# Spans whose inclusive microseconds per call are reported as well.
PER_CALL = (
    "qsim.apply_pauli_pad", "qsim.branch_measure", "qsim.measure_registers",
    "tcf.gen", "qfhe.gen", "qfhe.enc_classical", "qfhe.enc_quantum",
    "qfhe.eval", "qfhe.ceval", "opad.enc.collapsed", "opad.enc.circuit",
    "games.nc_value_with_table", "poq.PoqVerifier.__init__",
    "compilers.CompiledVerifier.__init__",
)

COUNTERS = ("qsim.max_amps", "qsim.bytes_computed", "qfhe.enc_classical.bits",
            "qfhe.ceval.and_gates", "qfhe.ceval.xor_gates",
            "qfhe.ceval.not_gates", "qfhe.ceval.const_gates",
            "games.nc_value_with_table.tables", "opad.enc.circuit.rounds",
            "opad.enc.circuit.hadamard_measures")

_QSIM_STATE_OPS = ("apply_pauli_pad", "apply_unitary", "branch_measure",
                   "measure_observable", "measure_registers",
                   "remove_registers")


def _arg(args, kwargs, pos: int, key: str, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.names = SPAN_NAMES
        self._ids = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._qsim_depth = 0
        self._circuit_enc_depth = 0
        self._gate_counts = {}
        self._patches = []

    def __len__(self) -> int:
        return len(self.span_name)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        poq = importlib.import_module("ctxsim.poq")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ctxsim" or name.startswith("ctxsim."))]
        for mod, attr in TARGETS:
            owner = importlib.import_module(f"ctxsim.{mod}")
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch_method(getattr(owner, cls_name), meth, name, mod, attr)
                continue
            original = getattr(owner, attr)
            pre, post = self._hooks(mod, attr)
            wrapper = self._wrap(original, name, pre, post)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        for cls in poq.CLASSICAL_CLASSES.values():
            for meth in ("round1", "round2"):
                self._patch_method(cls, meth, f"poq.classical.{meth}", "poq", meth)

    def _patch_method(self, cls, meth: str, name: str, mod: str, attr: str) -> None:
        original = cls.__dict__[meth]
        pre, post = self._hooks(mod, attr)
        setattr(cls, meth, self._wrap(original, name, pre, post))
        self._patches.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- span recording -----------------------------------------------------

    def _wrap(self, fn, name: str, pre=None, post=None):
        """Span-recording wrapper.  pre(args, kwargs) returns the span's name
        id; pre and post(args, kwargs) run inside the enclosing span."""
        default_id = self._ids.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = default_id if pre is None else pre(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if post is not None:
                    post(args, kwargs)
        return wrapper

    def _hooks(self, mod: str, attr: str):
        """Counter hooks for one target, as (pre, post)."""
        c = self.counters
        if (mod, attr) == ("qsim", "StateVector.__init__"):
            def post(args, kwargs):
                c["qsim.max_amps"] = max(c["qsim.max_amps"], args[0].amps.size)
            return None, post
        if mod == "qsim" and attr in _QSIM_STATE_OPS:
            nid = self._ids[f"qsim.{attr}"]
            hadamard_capable = attr == "measure_registers"

            def pre(args, kwargs):
                if self._qsim_depth == 0:
                    c["qsim.bytes_computed"] += args[0].amps.size * AMP_BYTES
                self._qsim_depth += 1
                if (hadamard_capable and self._circuit_enc_depth
                        and _arg(args, kwargs, 2, "basis", "standard") == "hadamard"):
                    c["opad.enc.circuit.hadamard_measures"] += 1
                return nid

            def post(args, kwargs):
                self._qsim_depth -= 1
            return pre, post
        if (mod, attr) == ("opad", "enc"):
            circuit_id = self._ids["opad.enc.circuit"]
            collapsed_id = self._ids["opad.enc.collapsed"]

            def is_circuit(args, kwargs):
                return _arg(args, kwargs, 5, "path", "circuit") == "circuit"

            def pre(args, kwargs):
                if not is_circuit(args, kwargs):
                    return collapsed_id
                self._circuit_enc_depth += 1
                c["opad.enc.circuit.rounds"] += 2 * len(list(args[2]))
                return circuit_id

            def post(args, kwargs):
                if is_circuit(args, kwargs):
                    self._circuit_enc_depth -= 1
            return pre, post
        if (mod, attr) == ("qfhe", "enc_classical"):
            nid = self._ids["qfhe.enc_classical"]

            def pre(args, kwargs):
                c["qfhe.enc_classical.bits"] += len(args[1])
                return nid
            return pre, None
        if (mod, attr) == ("qfhe", "ceval"):
            nid = self._ids["qfhe.ceval"]

            def pre(args, kwargs):
                circuit = args[0]
                cached = self._gate_counts.get(id(circuit))
                if cached is None or cached[0] is not circuit:
                    tally = dict.fromkeys(("and", "xor", "not", "const"), 0)
                    for gate in circuit.gates:
                        tally[gate[0]] += 1
                    cached = (circuit, tally)
                    self._gate_counts[id(circuit)] = cached
                for op, n in cached[1].items():
                    c[f"qfhe.ceval.{op}_gates"] += n
                return nid
            return pre, None
        if (mod, attr) == ("games", "nc_value_with_table"):
            nid = self._ids["games.nc_value_with_table"]

            def pre(args, kwargs):
                game = args[0]
                c["games.nc_value_with_table.tables"] += (
                    len(game.answers) ** len(game.questions))
                return nid
            return pre, None
        return None, None

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.int64).copy(),
        }

    def totals(self, spans: dict) -> dict:
        """Per span name: calls, self ns and inclusive ns, over all spans."""
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_ns = np.bincount(name, weights=own, minlength=n)
        incl_ns = np.bincount(name, weights=dur, minlength=n)
        return {nm: (int(calls[i]), float(self_ns[i]), float(incl_ns[i]))
                for i, nm in enumerate(self.names)}


def consistency_violations(spans: dict, ops: dict) -> int:
    """Count breaches of the nesting rules.

    Every span must lie inside the interval of the op that made it and
    have nonnegative self time, and the summed time of an op's root spans
    (their children plus their self time) must fit in the op's duration.
    """
    parent, start, end = spans["parent"], spans["start"], spans["end"]
    op_of = np.full(len(start), -1, dtype=np.int64)
    for i, (a, b) in enumerate(zip(ops["first"], ops["last"])):
        op_of[a:b] = i
    inside = op_of >= 0
    bad = int((~inside).sum())
    owner = op_of[inside]
    bad += int(((start[inside] < ops["start"][owner])
                | (end[inside] > ops["end"][owner])).sum())
    dur = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    bad += int((dur - child < 0).sum())
    roots = inside & ~nested
    root_time = np.bincount(op_of[roots], weights=dur[roots], minlength=len(ops["first"]))
    bad += int((root_time > ops["end"] - ops["start"]).sum())
    return bad
