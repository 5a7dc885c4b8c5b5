"""Acceptance gate: one check per headline number the package reproduces.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
asserts it.  Budget: 2e4 trials per Monte Carlo row at lambda = 8 with the
ideal claw-free family; tolerances are three binomial sigma, widened to
the stated absolute numbers.
"""
import math
from fractions import Fraction

import numpy as np
from conftest import consistency_rejected

from ctxsim import compilers, games, opad, poq, reductions, tcf
from ctxsim.games import nc_value, nc_value_with_table, quantum_value_of
from ctxsim.qsim import (PauliKey, StateVector, apply_pauli_pad, apply_unitary,
                         branch_measure, equal_up_to_global_phase,
                         measure_registers, register_distribution, Observable)

TRIALS = 20000
LAM = 8


def _check(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _rand_state(dims, rng) -> StateVector:
    amps = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return StateVector(dims, amps / np.linalg.norm(amps))


def test_criterion_01_exact_game_values():
    ms, ms_strat = games.magic_square()
    kc, kc_strat = games.kcbs()
    v_ms = quantum_value_of(ms, ms_strat)
    v_kc = quantum_value_of(kc, kc_strat)
    ok = (nc_value(ms) == Fraction(5, 6) and nc_value(kc) == Fraction(4, 5)
          and abs(v_ms - 1) <= 1e-9
          and abs(v_kc - 2 / math.sqrt(5)) <= 1e-9)
    _check("criterion 1 (exact game values)", ok,
           f"nc ms={nc_value(ms)} kcbs={nc_value(kc)}; "
           f"quantum ms={v_ms:.12f} kcbs={v_kc:.12f}")


def test_criterion_02_quantumness_honest_rate():
    rng = np.random.default_rng(102)
    rate, _ = poq.run_protocol(poq.honest(), TRIALS, rng, lam=LAM)
    ok = abs(rate - poq.HONEST_RATE) <= 0.011
    _check("criterion 2 (2-round test, honest prover)", ok,
           f"rate={rate:.4f} target=cos^2(pi/8)={poq.HONEST_RATE:.4f} tol=0.011")


def test_criterion_03_quantumness_classical_zoo_and_rewinding():
    rng = np.random.default_rng(103)
    details = []
    ok = True
    for kind in poq.CLASSICAL_KINDS:
        analytic = poq.CLASSICAL_CLASSES[kind].analytic_rate
        ok &= analytic <= Fraction(3, 4)
        rate, _ = poq.run_protocol(poq.classical(kind), TRIALS, rng, lam=LAM)
        rewound = poq.rewind_experiment(poq.classical(kind), TRIALS, rng, lam=LAM)
        ok &= rewound >= 2 * rate - 1 - 0.03
        details.append(f"{kind}: analytic={analytic} rate={rate:.3f} "
                       f"rewind={rewound:.3f}>=2r-1-0.03={2 * rate - 1 - 0.03:.3f}")
    _check("criterion 3 (classical zoo <= 3/4, extractor bound)", ok,
           "; ".join(details))


def test_criterion_04_pad_roundtrip_fidelity():
    rng = np.random.default_rng(104)
    oracle = opad.PhaseOracle("hash", seed=104)
    keys = {j: opad.gen(LAM, rng) for j in (1, 2, 3)}
    worst = 1.0
    for trip in range(100):
        j = trip % 3 + 1
        path = ("circuit", "collapsed")[trip % 2]
        psi = _rand_state((2,) * j, rng)
        targets = list(range(j))
        padded, s = opad.enc(keys[j].pk, psi, targets, oracle, rng, path=path)
        key = opad.dec(keys[j].sk, s, oracle)
        expected = apply_pauli_pad(psi, key, targets)
        fidelity = abs(np.vdot(padded.amps, expected.amps)) ** 2
        worst = min(worst, fidelity)
    ok = worst >= 1 - 1e-10
    _check("criterion 4 (pad round-trip fidelity, 100 trips, widths 1-3)",
           ok, f"worst fidelity={worst:.15f} >= 1-1e-10")


def test_criterion_05_range_sampling_marginal_is_exact():
    rng = np.random.default_rng(105)
    keys = opad.gen(6, rng)
    size = 64
    bijective = all(
        np.bincount(keys.pk.tables[b], minlength=size).max() == 1
        for b in (0, 1))
    # enc puts squared weight 2/(2*size) on each y, then a uniform nonzero
    # d; samp draws x uniformly and evaluates the same branch table
    p_enc = {(y, d): Fraction(1, size) * Fraction(1, size - 1)
             for y in range(size) for d in range(1, size)}
    t0 = keys.pk.tables[0]
    p_samp = {(y, d): Fraction(int((t0 == y).sum()), size) * Fraction(1, size - 1)
              for y in range(size) for d in range(1, size)}
    tv = sum(abs(p_enc[cell] - p_samp[cell]) for cell in p_enc) / 2
    ok = bijective and tv == 0 and sum(p_samp.values()) == 1
    _check("criterion 5 (samp equals enc marginal at n=6)", ok,
           f"branch tables bijective={bijective}, total variation={tv}")


def test_criterion_06_pairwise_compiler_on_kcbs():
    rng = np.random.default_rng(106)
    game, strat = games.kcbs()
    _, table = nc_value_with_table(game)
    honest, _ = compilers.estimate_win_rate(
        game, "1-1", compilers.honest_quantum_prover(strat), TRIALS, rng, lam=LAM)
    tabular, _ = compilers.estimate_win_rate(
        game, "1-1", compilers.truthtable_prover(table), TRIALS, rng, lam=LAM)
    target = (1 + 2 / math.sqrt(5)) / 2
    ok = (abs(honest - target) <= 0.011 and abs(tabular - 0.9) <= 0.011
          and honest - tabular >= 0.03)
    _check("criterion 6 (1-1 compiler on the pentagon game)", ok,
           f"honest={honest:.4f}~{target:.4f}, table={tabular:.4f}~0.9, "
           f"gap={honest - tabular:.4f}>=0.03")


def test_criterion_07_full_context_compiler():
    rng = np.random.default_rng(107)
    ms, ms_strat = games.magic_square()
    kc, _ = games.kcbs()
    honest, _ = compilers.estimate_win_rate(
        ms, "c-1", compilers.honest_quantum_prover(ms_strat), TRIALS, rng, lam=LAM)
    prover = compilers.feasible_inconsistent_prover(kc)
    feasible, _ = compilers.estimate_win_rate(kc, "c-1", prover, TRIALS, rng, lam=LAM)
    quantum = quantum_value_of(kc, games.kcbs()[1])
    ok = (honest == 1.0 and abs(feasible - 0.9) <= 0.011
          and prover.analytic_rate == Fraction(9, 10)
          and float(prover.analytic_rate) > quantum)
    _check("criterion 7 (c-1 compiler: perfect completeness, classical 0.9 "
           "beats quantum 0.8944)", ok,
           f"ms honest={honest} (exact 1.0), kcbs feasible={feasible:.4f}~0.9, "
           f"analytic 9/10 > quantum {quantum:.4f}")


def test_criterion_08_all_but_one_compiler_on_magic_square():
    rng = np.random.default_rng(108)
    ms, ms_strat = games.magic_square()
    _, table = nc_value_with_table(ms)
    honest, _ = compilers.estimate_win_rate(
        ms, "cm1-1", compilers.honest_quantum_prover(ms_strat), TRIALS, rng, lam=LAM)
    tabular, _ = compilers.estimate_win_rate(
        ms, "cm1-1", compilers.truthtable_prover(table), TRIALS, rng, lam=LAM)
    ok = honest == 1.0 and abs(tabular - 17 / 18) <= 0.011
    _check("criterion 8 (cm1-1 compiler on the square game)", ok,
           f"honest={honest} (exact 1.0), table={tabular:.4f}~{17 / 18:.4f}")


def test_criterion_09_reduction_advantage_identity():
    rng = np.random.default_rng(109)
    game, _ = games.kcbs()
    details = []
    ok = True
    for leak in (1.0, 0.5, 0.3):
        prover = reductions.CipherPeekingProver(game, "1-1", leak_prob=leak)
        rate, plan = reductions.run_a2_reduction(
            prover, game, "1-1", TRIALS, LAM, rng, phase1_trials=200)
        predicted = 0.5 + float(prover.exact_l1(plan.input0, plan.input1)) / 4
        ok &= abs(rate - predicted) <= 0.015
        details.append(f"leak={leak}: rate={rate:.4f} vs 1/2+L1/4={predicted:.4f}")
    _check("criterion 9 (2-IND rate = 1/2 + L1/4 for white-box provers)",
           ok, "; ".join(details))


def test_criterion_10_decision_faithfulness():
    rng = np.random.default_rng(110)
    pairs = []
    for name, (game, _) in (("kcbs", games.kcbs()), ("chsh", games.chsh()),
                            ("magic-square", games.magic_square())):
        for kind in ("1-1", "c-1", "cm1-1"):
            if kind == "1-1" and game.uniform_context_size() != 2:
                continue
            pairs.append((name, kind, game))
    ok = True
    for name, kind, game in pairs:
        _, table = nc_value_with_table(game)
        ok &= compilers.decision_faithfulness_check(game, kind, table, 1000,
                                                    rng, lam=LAM)
    game, _ = games.kcbs()
    _, table = nc_value_with_table(game)
    with consistency_rejected():
        control = compilers.decision_faithfulness_check(game, "1-1", table, 200,
                                                        rng, lam=LAM)
    ok &= not control
    _check("criterion 10 (decision faithfulness, 1e3 trials x "
           f"{len(pairs)} pairs)", ok,
           f"all pairs faithful, sabotaged control detected={not control}")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(111)

    # simulator: unitaries preserve norm, branch probabilities resolve to 1
    norms_ok = True
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    for _ in range(25):
        psi = _rand_state((2, 2, 2), rng)
        psi = apply_unitary(psi, h, [int(rng.integers(3))])
        key = PauliKey.uniform(3, rng)
        psi = apply_pauli_pad(psi, key, [0, 1, 2])
        norms_ok &= abs(np.linalg.norm(psi.amps) - 1) <= 1e-12
        branches = branch_measure(psi, Observable(np.diag([1.0, -1.0])), [1])
        norms_ok &= abs(sum(p for _, p, _ in branches) - 1) <= 1e-12

    # strategies: observables commute within every context
    commute_ok = True
    for game, strat in (games.magic_square(), games.kcbs()):
        for ctx in game.contexts:
            for a in ctx:
                for b in ctx:
                    ma, mb = strat.observables[a].matrix, strat.observables[b].matrix
                    commute_ok &= np.allclose(ma @ mb, mb @ ma, atol=1e-9)

    # pads compose by xor of keys, up to a global phase
    xor_ok = True
    for _ in range(25):
        psi = _rand_state((2, 2, 2), rng)
        a, b = PauliKey.uniform(3, rng), PauliKey.uniform(3, rng)
        once = apply_pauli_pad(apply_pauli_pad(psi, a, [0, 1, 2]), b, [0, 1, 2])
        xor_ok &= equal_up_to_global_phase(
            once, apply_pauli_pad(psi, a ^ b, [0, 1, 2]), tol=1e-12)

    # claw-free layer: exhaustive branch round-trips at n = 8
    keys = tcf.gen(8, rng=rng)
    tcf_ok = all(tcf.inv(keys.sk, b, tcf.eval(keys.pk, b, x)) == x
                 for b in (0, 1) for x in range(256))

    ok = norms_ok and commute_ok and xor_ok and tcf_ok
    _check("criterion 11 (property suites)", ok,
           f"norm/branch={norms_ok}, context commutation={commute_ok}, "
           f"pad xor composition={xor_ok}, exhaustive claw round-trip n=8={tcf_ok}")
