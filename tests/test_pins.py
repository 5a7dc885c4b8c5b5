"""sha256 pins of fixed-seed CLI outputs, circuit-path outcomes and key draws.

Each pin fixes the map from seed to output bytes.  A change that moves a
pin on purpose (for example, by drawing random numbers in another order)
updates it here and says why in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from ctxsim import cli, compilers, games, opad, poq, tcf


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


CLI_PINS = [
    (["poq", "--trials", "200", "--seed", "7"],
     "d0f16cee2599fb83b2233b8ca8aa9d919911263fce6082401e3ba1c549c9997d", None),
    (["compile", "--game", "kcbs", "--compiler", "1-1", "--trials", "200", "--seed", "7"],
     "0564cd05dc53a70328c9f352b20e6baf4ca8871b0bc37bc574268834125e27cd",
     "86c47985b8f6d559a14dd4e81d05f65472494e34b088c21a01a6412097d65655"),
    (["compile", "--game", "magic-square", "--compiler", "cm1-1", "--trials", "200", "--seed", "7"],
     "ec28f52b9bf2d87d9148d28cac3bf442304ec5dce8312513d0264e218c052e0d", None),
]


@pytest.mark.parametrize("argv,report_sha,transcripts_sha", CLI_PINS,
                         ids=["poq", "kcbs-1-1", "magic-square-cm1-1"])
def test_cli_outputs_are_pinned(argv, report_sha, transcripts_sha, tmp_path, capsys):
    path = tmp_path / "transcripts.jsonl"
    extra = ["--transcripts", str(path)] if transcripts_sha else []
    assert cli.main(argv + extra) == 0
    assert sha256(capsys.readouterr().out) == report_sha
    if transcripts_sha:
        assert sha256(path.read_bytes()) == transcripts_sha


def test_circuit_path_outcomes_are_pinned():
    _, log = poq.run_protocol(poq.honest("circuit"), 200, np.random.default_rng(2024),
                              lam=5, keep_transcripts=True)
    assert sha256("\n".join(t.to_json() for t in log)) == \
        "8e526dfdebb8a08a5cf4493df74eb4d98356b6c4925e62d7d1a17b3b702d3516"

    game, strategy = games.kcbs()
    log = []
    compilers.estimate_win_rate(game, "1-1",
                                compilers.honest_quantum_prover(strategy, opad_path="circuit"),
                                100, np.random.default_rng(2025), lam=5, transcript_log=log)
    assert sha256("\n".join(t.to_json() for t in log)) == \
        "ccce961b6adebb85e9a5a6e90c2a38d3fb649e4ca1dfefdfd10d3a0e62406ae9"


def test_batched_transcripts_are_pinned():
    # two chunks at lambda 8 (256 sessions each)
    game, _ = games.kcbs()
    log = []
    compilers.estimate_win_rate(game, "c-1", compilers.feasible_inconsistent_prover(game), 300,
                                np.random.default_rng(2026), lam=8, transcript_log=log)
    assert sha256("\n".join(t.to_json() for t in log)) == \
        "ca73ff99c8d130cdcd468dad6a851d79efc171c028ad5e4274282cd156863306"


def test_scalar_zoo_draws_are_pinned():
    # run_protocol and rewind_experiment against each classical prover
    lines = []
    for kind in poq.CLASSICAL_KINDS:
        _, log = poq.run_protocol(poq.classical(kind), 100, np.random.default_rng(2027),
                                  lam=5, keep_transcripts=True)
        lines += [t.to_json() for t in log]
    lines += [repr(poq.rewind_experiment(poq.classical(kind), 100, np.random.default_rng(2027),
                                         lam=5))
              for kind in poq.CLASSICAL_KINDS]
    assert sha256("\n".join(lines)) == \
        "130e21dce9fce0d177a4505ff4b85fbc643ad0fcad7c093783d2985a3000bdf6"


def test_key_draws_are_pinned():
    # gen's forward tables, trapdoor and mask, then gen_many chunks
    digest = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())

    for lam in (3, 5, 8):
        for hidden in (None, 0, 1):
            keys = tcf.gen(lam, hidden=hidden, rng=np.random.default_rng(2028 + lam))
            add(*keys.pk.tables, keys.sk.inv_prp, [keys.sk.delta])
    rng = np.random.default_rng(2029)
    for lam, count in ((3, 50), (8, 20)):
        chunk = tcf.gen_many(lam, count, rng)
        add(chunk.inv_prp, chunk.delta)
        chunk = tcf.gen_many(lam, count, rng, hidden=rng.integers(0, 2, size=count))
        add(chunk.inv_prp, chunk.delta)
    assert digest.hexdigest() == \
        "969cc204472a7e283ca23f30e1543319846d55ba7e72ec55f84a718661fea2c4"


def test_scalar_compiled_draws_are_pinned():
    # run_session on every kind, table and collapsed-honest provers, stub and lwe,
    # then the pad's security game on lazy oracles
    lines = []
    rng = np.random.default_rng(2030)
    for name, kind in (("kcbs", "1-1"), ("magic-square", "c-1"), ("magic-square", "cm1-1")):
        game, strategy = cli.BUILTIN_GAMES[name]()
        _, table = games.nc_value_with_table(game)
        for prover in (compilers.truthtable_prover(table),
                       compilers.honest_quantum_prover(strategy)):
            for backend in ("stub", "lwe"):
                for _ in range(10):
                    _, state = compilers.run_session(game, kind, prover, rng, lam=5,
                                                     fhe_backend=backend)
                    lines.append(state.transcript().to_json())
    rng = np.random.default_rng(2031)
    for factory, trials, lam, j in (
            (opad.PadHolderProver, 300, 5, 1),
            (lambda keys, oracle: opad.PadHolderProver(keys, oracle, path="circuit"), 30, 3, 1),
            (lambda keys, oracle: opad.ClawPlantingProver(keys, oracle, j=7), 100, 5, 7)):
        lines.append(repr(opad.security_game(factory, trials, rng, lam=lam, j=j,
                                             oracle_mode="lazy")))
        lines.append(repr(rng.integers(2 ** 62)))
    assert sha256("\n".join(lines)) == \
        "10e7b32053c950c325d667dfedf027c5fcc482f03d0e2d44096c98256faad1a2"
