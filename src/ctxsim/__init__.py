"""Desk-scale simulators for single-prover computational tests of
contextuality and a 2-round proof of quantumness.

Layers, bottom up: a dense statevector simulator (qsim), contextuality
games with exact values (games), an idealized claw-free function family
(tcf), a simulated quantum-capable homomorphic encryption layer (qfhe),
the oblivious Pauli pad built on the claw-free family (opad), the
2-round quantumness test (poq), three compilers that turn a game into a
single-prover protocol (compilers) with a batched engine for their Monte
Carlo rates (batch), and rewinding reductions that turn
ciphertext-dependent behaviour into encryption distinguishers
(reductions).  The cli module exposes all of it as the `ctxsim` command.
"""

from . import cli, compilers, games, opad, poq, qfhe, qsim, reductions, tcf
from .compilers import (CompilerKind, decision_faithfulness_check,
                        estimate_win_rate, feasible_inconsistent_prover,
                        honest_quantum_prover, run_session, theorem_bounds,
                        truthtable_prover)
from .games import (Assignment, ContextualityGame, QuantumStrategy, chsh,
                    kcbs, magic_square, nc_value, nc_value_with_table,
                    pad_contexts, quantum_value_of)
from .qsim import Observable, PauliKey, StateVector

__version__ = "0.1.0"

__all__ = [
    "cli", "compilers", "games", "opad", "poq", "qfhe", "qsim",
    "reductions", "tcf",
    "CompilerKind", "decision_faithfulness_check", "estimate_win_rate",
    "feasible_inconsistent_prover", "honest_quantum_prover", "run_session",
    "theorem_bounds", "truthtable_prover",
    "Assignment", "ContextualityGame", "QuantumStrategy", "chsh", "kcbs",
    "magic_square", "nc_value", "nc_value_with_table", "pad_contexts",
    "quantum_value_of",
    "Observable", "PauliKey", "StateVector",
    "__version__",
]
