"""Shared test fixtures."""
from contextlib import contextmanager

import pytest

from ctxsim import compilers, tcf
from ctxsim.qsim import StateVector, measure_registers, remove_registers


def dense_measure_claw(pk, state, control, rng):
    """Reference for tcf.measure_claw: the dense evaluation it replaces.

    Appends n preimage qubits and a 2^n-dimensional image register, all in
    |0>, runs coherent_samp on the 2^(2n)-fold state, measures the image
    register and removes it.
    """
    n = pk.n
    base = state.num_registers
    tail = StateVector.basis((2,) * n + (1 << n,), (0,) * (n + 1))
    work = tcf.coherent_samp(pk, state.tensor(tail), control, list(range(base, base + n + 1)))
    (y,), work = measure_registers(work, [base + n], rng=rng)
    x0, x1 = tcf.public_claw(pk, y)
    return y, x0, x1, remove_registers(work, [base + n])


@contextmanager
def consistency_rejected():
    """Negative control for compilers.decision_faithfulness_check: inside
    the block the compiled verifier's accept rule also rejects every round-2
    answer that repeats its round-1 answer."""
    decision = compilers._decision

    def rejecting(*args):
        accept, consistent, pred_ok = decision(*args)
        return accept and not consistent, consistent, pred_ok

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compilers, "_decision", rejecting)
        yield


@pytest.fixture
def dense_claw(monkeypatch):
    """``with dense_claw():`` runs tcf.measure_claw as the dense reference."""
    @contextmanager
    def active():
        with monkeypatch.context() as patch:
            patch.setattr(tcf, "measure_claw", dense_measure_claw)
            yield

    return active
