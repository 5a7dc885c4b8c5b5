"""The chunked quantumness engine (estimate_rate, estimate_rewind), pinned to
exact per-cell acceptance probabilities and to the scalar run_protocol."""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ctxsim import cli, poq, tcf
from ctxsim.qsim import StateVector, equal_up_to_global_phase

LAM = 5
ROWS = ("honest",) + poq.CLASSICAL_KINDS
HONEST = math.cos(math.pi / 8) ** 2

# P(accept | hidden bit s, challenge c), listed as
# ((s=0, c=0), (s=0, c=1), (s=1, c=0), (s=1, c=1)).  Zero-echo commits
# y = f_0(0), so at s = 1 the verifier's equation reads b = 0, which the echo
# b = c meets exactly when c = 0.
CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
HALF = Fraction(1, 2)
EXACT = {
    "honest": dict.fromkeys(CELLS, HONEST),
    "zero-echo": dict(zip(CELLS, (Fraction(1), Fraction(1), Fraction(1), Fraction(0)))),
    "preimage": dict(zip(CELLS, (HALF, HALF, Fraction(1), Fraction(1)))),
    "random-echo": dict.fromkeys(CELLS, HALF),
    "random-answer": dict.fromkeys(CELLS, HALF),
}
# averaged over c: zero-echo 1 / 1/2 and preimage 1/2 / 1 on s = 0 / 1
BY_S = {"zero-echo": (1, HALF), "preimage": (HALF, 1),
        "random-echo": (HALF, HALF), "random-answer": (HALF, HALF)}


def critical(dof: int) -> float:
    """Chi-square critical value at about p = 1e-4 (Wilson-Hilferty)."""
    return dof * (1 - 2 / (9 * dof) + 3.72 * math.sqrt(2 / (9 * dof))) ** 3


def two_sample_ok(first: Counter, second: Counter) -> bool:
    """Two-sample chi-square over the bins both runs can fill."""
    stat, dof = 0.0, -1
    n1, n2 = sum(first.values()), sum(second.values())
    for b in set(first) | set(second):
        o1, o2 = first.get(b, 0), second.get(b, 0)
        if o1 + o2 < 10:
            continue
        e1 = (o1 + o2) * n1 / (n1 + n2)
        e2 = (o1 + o2) * n2 / (n1 + n2)
        stat += (o1 - e1) ** 2 / e1 + (o2 - e2) ** 2 / e2
        dof += 1
    return stat <= critical(dof)


def batched_log(name, trials, seed, lam=LAM):
    log = []
    rate = poq.estimate_rate(name, trials, np.random.default_rng(seed), lam=lam,
                             on_transcript=log.append)
    assert len(log) == trials
    assert rate == sum(t.accepted for t in log) / trials
    return log


def test_exact_cells_average_to_the_analytic_rates():
    for kind in poq.CLASSICAL_KINDS:
        cells = EXACT[kind]
        assert tuple((cells[(s, 0)] + cells[(s, 1)]) / 2 for s in (0, 1)) == BY_S[kind]
        assert sum(cells.values()) / 4 == poq.CLASSICAL_CLASSES[kind].analytic_rate


@pytest.mark.parametrize("name", ROWS)
def test_cells_match_exact_values(name):
    trials = 8000
    log = batched_log(name, trials, seed=100 + ROWS.index(name))
    shown, accepted = Counter(), Counter()
    for t in log:
        shown[(t.s, t.c)] += 1
        accepted[(t.s, t.c)] += t.accepted
    # the hidden bit and the challenge are uniform and independent
    stat = sum((shown[cell] - trials / 4) ** 2 / (trials / 4) for cell in CELLS)
    assert stat <= critical(3)
    stat, dof = 0.0, 0
    for cell in CELLS:
        m, k, p = shown[cell], accepted[cell], float(EXACT[name][cell])
        if p in (0.0, 1.0):
            assert k == p * m, cell
            continue
        stat += (k - m * p) ** 2 / (m * p * (1 - p))
        dof += 1
    assert dof == 0 or stat <= critical(dof)


@pytest.mark.parametrize("name", ROWS)
def test_batched_and_scalar_instances_agree(name):
    batched = Counter((t.s, t.c, t.accepted) for t in batched_log(name, 6000, seed=110))
    factory = poq.honest() if name == "honest" else poq.classical(name)
    _, log = poq.run_protocol(factory, 2000, np.random.default_rng(111), lam=LAM,
                              keep_transcripts=True)
    scalar = Counter((t.s, t.c, t.accepted) for t in log)
    assert two_sample_ok(batched, scalar)


def test_rewinding_meets_the_advantage_bound():
    rng = np.random.default_rng(120)
    for kind in poq.CLASSICAL_KINDS:
        analytic = float(poq.CLASSICAL_CLASSES[kind].analytic_rate)
        freq = poq.estimate_rewind(kind, 20_000, rng, lam=6)
        assert freq >= 2 * analytic - 1 - 0.03, kind


@pytest.mark.parametrize("kind", poq.CLASSICAL_KINDS)
def test_batched_and_scalar_rewinding_agree(kind):
    n1, n2 = 20_000, 3000
    p1 = poq.estimate_rewind(kind, n1, np.random.default_rng(121), lam=LAM)
    p2 = poq.rewind_experiment(poq.classical(kind), n2, np.random.default_rng(122), lam=LAM)
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    assert abs(p1 - p2) <= 3.72 * math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))


def test_accept_rule_on_arrays_is_decide():
    # every commitment and answer at lambda 3, under a key of each hidden bit
    n = 3
    rng = np.random.default_rng(130)
    for s in (0, 1):
        rows, decided = [], []
        for mu in (0, 1):
            for d in range(1 << (n - 1)):
                for y in range(1 << n):
                    for b in (0, 1):
                        v = poq.PoqVerifier(n, rng)
                        while v.hidden_bit != s:
                            v = poq.PoqVerifier(n, rng)
                        v.round1()
                        c = v.round2(mu, d, y)
                        x0, x1 = v.keys.sk.claw(y)
                        decided.append(v.decide(b))
                        rows.append((s, mu, d, c, b, x0, x1))
                        # the rule, restated
                        if s == 0:
                            a = tcf.dot_bits(d, (x0 ^ x1) & ((1 << (n - 1)) - 1))
                            assert decided[-1] == ((a ^ b) == c)
                        else:
                            assert decided[-1] == ((mu ^ (x0 >> (n - 1)) ^ b) == 0)
        arrays = [np.array(column) for column in zip(*rows)]
        assert poq._accepts(*arrays, n).tolist() == decided
        assert 0 < sum(decided) < len(decided)


def test_batched_honest_leftover_is_the_predicted_bb84_state():
    rng = np.random.default_rng(140)
    s = rng.integers(0, 2, size=400)
    keys = tcf.gen_many(LAM, 400, rng, hidden=s)
    prover = poq.HonestProver(keys, rng)
    mu, d, y = prover.round1()
    leftover = prover.leftover
    n = LAM
    claws = keys.claw(y)  # fixed by round1, so read without a draw
    for i in range(400):
        x0, x1 = int(claws[0][i]), int(claws[1][i])
        assert x1 == x0 ^ int(keys.delta[i])
        if s[i] == 1:
            expected = StateVector.basis((2,), (int(mu[i]) ^ tcf.first_bit(x0, n),))
        else:
            assert mu[i] == tcf.first_bit(x0, n) == tcf.first_bit(x1, n)
            sign = 1 - 2 * tcf.dot_bits(int(d[i]), tcf.trailing_bits(x0 ^ x1, n))
            expected = StateVector((2,), np.array([1.0, float(sign)]) / np.sqrt(2))
        assert equal_up_to_global_phase(StateVector((2,), leftover[i]), expected, tol=1e-10)


@pytest.mark.parametrize("name", ROWS)
def test_a_prover_plays_a_key_and_its_one_row_chunk_alike(name):
    cls = poq.HonestProver if name == "honest" else poq.CLASSICAL_CLASSES[name]
    for seed in range(20):
        # equal generators give the key and the row equal masks and points of P
        keys = tcf.gen(LAM, hidden=seed % 2, rng=np.random.default_rng(seed))
        c = seed // 2 % 2
        one = cls(keys.pk, np.random.default_rng(200 + seed))
        row = cls(tcf.gen_many(LAM, 1, np.random.default_rng(seed), hidden=[seed % 2]),
                  np.random.default_rng(200 + seed))
        commitment = one.round1()
        assert [v.tolist() for v in row.round1()] == [[int(v)] for v in commitment]
        if name == "honest":
            assert one.leftover.shape == (2,)
            assert np.array_equal(row.leftover, one.leftover[None])
        assert row.round2(np.array([c])).tolist() == [int(one.round2(c))]


def test_zoo_commitments_follow_their_scalar_rules():
    rng = np.random.default_rng(141)
    keys = tcf.gen_many(LAM, 200, rng)
    for kind, cls in poq.CLASSICAL_CLASSES.items():
        prover = cls(keys, rng)
        mu, d, y = prover.round1()
        preimage = keys.claw(y)[0]  # x with f_0(x) = y
        if kind == "random-echo":
            assert set(mu.tolist()) == {0, 1}
            assert set(d.tolist()) == set(range(1 << (LAM - 1)))
            assert len(set(preimage.tolist())) > 1
            continue
        assert (mu == 0).all() and (d == 0).all()
        if kind == "preimage":
            assert np.array_equal(prover.round2(np.zeros(200, dtype=np.int64)),
                                  preimage >> (LAM - 1))
            assert len(set(preimage.tolist())) > 1
        else:
            assert (preimage == 0).all()


@pytest.mark.parametrize("extra", [0, 1])
def test_trial_counts_across_chunk_edges(extra, monkeypatch):
    size = 7
    monkeypatch.setattr(tcf, "CHUNK_SIZE", size)
    for trials in {1, 3 * size + extra}:
        log = batched_log("honest", trials, seed=150)
        assert {t.lam for t in log} == {LAM}
        assert 0 <= poq.estimate_rewind("preimage", trials, np.random.default_rng(151),
                                        lam=LAM) <= 1


def test_gen_many_follows_the_mask_rule():
    rng = np.random.default_rng(160)
    hidden = rng.integers(0, 2, size=300)
    chunk = tcf.gen_many(4, 300, rng, hidden=hidden)
    delta = chunk.delta
    assert (chunk.count, chunk.tables[0].shape) == (300, (300, 16))
    assert (np.sort(chunk.tables[0], axis=1) == np.arange(16)).all()
    assert ((delta >> 3) == hidden).all()
    assert ((0 < delta) & (delta < 16)).all()
    delta = tcf.gen_many(4, 2000, rng).delta
    assert ((0 < delta) & (delta < 16)).all()
    assert len(set(delta.tolist())) == 15
    for bad in ([0, 2], [0]):
        with pytest.raises(ValueError, match="one bit per key"):
            tcf.gen_many(4, 2, rng, hidden=bad)


def test_gen_many_draws_as_the_batched_sessions_did():
    # the masks in one call, and nothing else until the keys are read
    rng = np.random.default_rng(161)
    chunk = tcf.gen_many(6, 40, rng)
    ref = np.random.default_rng(161)
    assert np.array_equal(chunk.delta, ref.integers(1, 64, size=40))
    assert rng.bit_generator.state == ref.bit_generator.state and chunk.rng is rng


def test_the_quantumness_engine_loads_no_compiled_engine():
    code = ("import sys, numpy as np; from ctxsim import poq; "
            "poq.estimate_rate('honest', 40, np.random.default_rng(0), lam=4); "
            "print('ctxsim.batch' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(poq.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_gen_many_refuses_a_large_domain_before_any_draw():
    rng = np.random.default_rng(162)
    before = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="domain must have"):
            tcf.gen_many(tcf.MAX_DOMAIN_BITS + 1, 4, rng, hidden=[0, 1, 0, 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert rng.bit_generator.state == before


def test_a_long_row_stays_small():
    tracemalloc.start()
    try:
        poq.estimate_rate("honest", 20_000, np.random.default_rng(170), lam=8)
        poq.estimate_rewind("random-echo", 20_000, np.random.default_rng(171), lam=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_transcripts_change_no_draw(tmp_path, capsys):
    argv = ["poq", "--trials", "300", "--seed", "15", "--lambda", "6"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "t.jsonl"
    assert cli.main(argv + ["--transcripts", str(path)]) == 0
    assert capsys.readouterr().out == plain
    lines = path.read_text().splitlines()
    assert len(lines) == 300 * len(ROWS)
    assert poq.PoqTranscript.from_json(lines[0]).lam == 6


def test_the_engine_runs_the_verifier_checks(monkeypatch):
    class BadMu(poq.ZeroCommitEchoProver):
        def round1(self):
            mu, d, y = super().round1()
            return mu + 2, d, y

    class BadD(poq.ZeroCommitEchoProver):
        def round1(self):
            mu, d, y = super().round1()
            return mu, d + (1 << (self.pk.n - 1)), y

    class BadY(poq.ZeroCommitEchoProver):
        def round1(self):
            mu, d, y = super().round1()
            return mu, d, y + (1 << self.pk.n)

    class BadB(poq.ZeroCommitEchoProver):
        def round2(self, c):
            return c + 2

    for cls, message in ((BadMu, "mu must be a bit"), (BadD, "d must have"),
                         (BadY, "y outside the image"), (BadB, "b must be a bit")):
        monkeypatch.setitem(poq.CLASSICAL_CLASSES, "zero-echo", cls)
        with pytest.raises(ValueError, match=message):
            poq.estimate_rate("zero-echo", 3, np.random.default_rng(180), lam=LAM)


def test_the_engine_refuses_bad_arguments_before_drawing():
    rng = np.random.default_rng(181)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown prover"):
        poq.estimate_rate("peeking", 3, rng)
    for name in ("honest", "bogus"):
        with pytest.raises(ValueError, match=f"unknown prover '{name}'"):
            poq.estimate_rewind(name, 3, rng)
    with pytest.raises(ValueError, match="domain must have"):
        poq.estimate_rate("honest", 3, rng, lam=tcf.MAX_DOMAIN_BITS + 1)
    assert rng.bit_generator.state == before


def test_rewind_rows_miss_only_at_the_three_sigma_rate(capsys):
    # zero-echo and preimage extract at exactly 2 * 3/4 - 1, so their rewind
    # rows sit on the bound; a fixed 0.03 allowance missed about 30 % of
    # 300-trial runs of correct code, the row's 3 sigma + slack about 0.1 %
    misses = 0
    for seed in range(60):
        for kind in ("zero-echo", "preimage"):
            argv = ["poq", "--prover", kind, "--trials", "300", "--seed", str(seed),
                    "--lambda", "5"]
            assert cli.main(argv) == 0
            misses += not json.loads(capsys.readouterr().out)["bounds_ok"]
    assert misses <= 3


# (field, value, message): one value the verifier must refuse, not truncate
NON_INTEGERS = [("mu", 0.5, "mu must be a bit"), ("mu", 1.0, "mu must be a bit"),
                ("d", 1.9, "d must have"), ("y", 3.7, "y outside the image"),
                ("b", 0.9, "b must be a bit"), ("b", 1.0, "b must be a bit")]


@pytest.mark.parametrize("field,value,message", NON_INTEGERS)
def test_both_engines_refuse_non_integer_inputs(field, value, message, monkeypatch):
    commitment = {"mu": 0, "d": 1, "y": 3}
    verifier = poq.PoqVerifier(LAM, np.random.default_rng(182))
    verifier.round1()
    if field == "b":
        verifier.round2(**commitment)
        with pytest.raises(ValueError, match=message):
            verifier.decide(value)
    else:
        with pytest.raises(ValueError, match=message):
            verifier.round2(**{**commitment, field: value})

    class Bad(poq.ZeroCommitEchoProver):
        """Sends the value in every row, as floats."""

        def round1(self):
            sent = dict(zip(("mu", "d", "y"), super().round1()))
            if field in sent:
                sent[field] = np.full(self.pk.count, value)
            return sent["mu"], sent["d"], sent["y"]

        def round2(self, c):
            return np.full(self.pk.count, value) if field == "b" else c

    monkeypatch.setitem(poq.CLASSICAL_CLASSES, "zero-echo", Bad)
    with pytest.raises(ValueError, match=message):
        poq.estimate_rate("zero-echo", 3, np.random.default_rng(183), lam=LAM)


@pytest.mark.parametrize("wrap", [np.int64, np.uint8, np.array])
def test_the_verifier_takes_numpy_ints_and_0d_arrays(wrap):
    logs = []
    for cast in (int, wrap):
        verifier = poq.PoqVerifier(LAM, np.random.default_rng(184))
        verifier.round1()
        c = verifier.round2(cast(1), cast(3), cast(5))
        verifier.decide(cast(c))
        logs.append(json.dumps(verifier.transcript().as_dict()))
    assert logs[0] == logs[1]
