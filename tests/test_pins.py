"""sha256 pins of fixed-seed CLI outputs, circuit-path outcomes and key draws.

Each pin fixes the map from seed to output bytes.  A change that moves a
pin on purpose (for example, by drawing random numbers in another order)
updates it here and says why in CHANGES.md.
"""
import hashlib
import json

import numpy as np
import pytest

from ctxsim import cli, compilers, games, opad, poq, tcf


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


CLI_PINS = [
    (["poq", "--trials", "200", "--seed", "7"],
     "a17b7c64614dc7beb707002777127dcba870a7b3a575b361ef859020a618e31a", None),
    (["compile", "--game", "kcbs", "--compiler", "1-1", "--trials", "200", "--seed", "7"],
     "c77cebb0b8a6ec853106e2bf701285659e895ec554a23771d6d163e8edff86a1",
     "c63257ef4a71d51ba23dd24403c46bf5ccc57a558835063a39fa18007a68f46f"),
    (["compile", "--game", "magic-square", "--compiler", "cm1-1", "--trials", "200", "--seed", "7"],
     "d81c4d1efebd75d06a4676b0d0b2fe35f760fb79e1dbf6132aff6ad880a46a45", None),
    (["compile", "--game", "kcbs", "--compiler", "1-1", "--fhe", "leaky", "--trials", "200",
      "--seed", "7"],
     "a1343cdf35b81066d14d0841cbbb62d068876d876e4e1c8f51938530c72b493f",
     "2f218788e678b9f9ebf6a4612aeaceaa984e171d48914c227cb05c1f71b4e465"),
]


@pytest.mark.parametrize("argv,report_sha,transcripts_sha", CLI_PINS,
                         ids=["poq", "kcbs-1-1", "magic-square-cm1-1", "kcbs-1-1-leaky"])
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
    assert sha256("\n".join(json.dumps(t.as_dict()) for t in log)) == \
        "6fb7d99c9f6bf13a2131a33891844ca5587a88b95fa7db7262ba1acfb0a536e9"

    game, strategy = games.kcbs()
    log = []
    compilers.estimate_win_rate(game, "1-1",
                                compilers.honest_quantum_prover(strategy, opad_path="circuit"),
                                100, np.random.default_rng(2025), lam=5, on_transcript=log.append)
    assert sha256("\n".join(json.dumps(t.as_dict()) for t in log)) == \
        "7826984afd28605c15a987c1da2e189faa76618ba695af66f72b8b148d2ee0d8"


def test_batched_transcripts_are_pinned():
    # one chunk at lambda 8 (tcf.CHUNK_SIZE is 4096)
    game, _ = games.kcbs()
    log = []
    compilers.estimate_win_rate(game, "c-1", compilers.feasible_inconsistent_prover(game), 300,
                                np.random.default_rng(2026), lam=8, on_transcript=log.append)
    assert sha256("\n".join(json.dumps(t.as_dict()) for t in log)) == \
        "716029b7fe263013ffbbe7c60ab2e16be90186781741def0a6f7dd7f264f2dc9"


def test_scalar_zoo_draws_are_pinned():
    # run_protocol and rewind_experiment against each classical prover
    lines = []
    for kind in poq.CLASSICAL_KINDS:
        _, log = poq.run_protocol(poq.classical(kind), 100, np.random.default_rng(2027),
                                  lam=5, keep_transcripts=True)
        lines += [json.dumps(t.as_dict()) for t in log]
    lines += [repr(poq.rewind_experiment(poq.classical(kind), 100, np.random.default_rng(2027),
                                         lam=5))
              for kind in poq.CLASSICAL_KINDS]
    assert sha256("\n".join(lines)) == \
        "43b28d9728ec4a7930105aca4f98fd9d532cb9f688c57c629277e7dfd2d65e57"


def test_key_draws_are_pinned():
    # gen's mask, a claw and an image fixed lazily, then the completed forward
    # tables; then gen_many chunks read the same way
    digest = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())

    for lam in (3, 5, 8):
        for hidden in (None, 0, 1):
            keys = tcf.gen(lam, hidden=hidden, rng=np.random.default_rng(2028 + lam))
            add([keys.sk.delta], keys.sk.claw(1), [keys.pk.image(2)], *keys.pk.tables)
    rng = np.random.default_rng(2029)
    for lam, count in ((3, 50), (8, 20)):
        for hidden in (None, rng.integers(0, 2, size=count)):
            chunk = tcf.gen_many(lam, count, rng, hidden=hidden)
            add(chunk.delta, *chunk.claw(np.full(count, 1)), chunk.image(np.full(count, 2)),
                *chunk.tables)
    assert digest.hexdigest() == \
        "7d919a76ff0bd371ac60e0b8d1b0d5f9eabcf8b32ed65ff8e83e88ab5cc35bad"


def test_scalar_compiled_draws_are_pinned():
    # run_session on every kind, table and collapsed-honest provers, then the
    # pad's security game on lazy oracles
    lines = []
    rng = np.random.default_rng(2030)
    for name, kind in (("kcbs", "1-1"), ("magic-square", "c-1"), ("magic-square", "cm1-1")):
        game, strategy = cli.BUILTIN_GAMES[name]()
        _, table = games.nc_value_with_table(game)
        for prover in (compilers.truthtable_prover(table),
                       compilers.honest_quantum_prover(strategy)):
            for _ in range(10):
                _, state = compilers.run_session(game, kind, prover, rng, lam=5)
                lines.append(json.dumps(state.transcript().as_dict()))
    rng = np.random.default_rng(2031)
    for factory, trials, lam, j in (
            (opad.PadHolderProver, 300, 5, 1),
            (lambda keys, oracle: opad.PadHolderProver(keys, oracle, path="circuit"), 30, 3, 1),
            (lambda keys, oracle: opad.ClawPlantingProver(keys, oracle, j=7), 100, 5, 7)):
        lines.append(repr(opad.security_game(factory, trials, rng, lam=lam, j=j,
                                             oracle_mode="lazy")))
        lines.append(repr(rng.integers(2 ** 62)))
    assert sha256("\n".join(lines)) == \
        "d0194a72f39bb57a452ef395592c26ed57a7ca6fba71351fa11491960e7d87eb"


def test_scalar_leaky_transcripts_are_pinned():
    # run_session under the leaky backend, whose transcripts also carry the pads
    lines = []
    rng = np.random.default_rng(2032)
    for name, kind in (("kcbs", "1-1"), ("magic-square", "cm1-1")):
        game, strategy = cli.BUILTIN_GAMES[name]()
        _, table = games.nc_value_with_table(game)
        for prover in (compilers.truthtable_prover(table),
                       compilers.honest_quantum_prover(strategy)):
            for _ in range(10):
                _, state = compilers.run_session(game, kind, prover, rng, lam=5,
                                                 fhe_backend="leaky")
                lines.append(json.dumps(state.transcript().as_dict()))
    assert sha256("\n".join(lines)) == \
        "05fefcef51970d9057619e991486bb1e5aec7e1b00e2b30fdb8f64248827021d"
