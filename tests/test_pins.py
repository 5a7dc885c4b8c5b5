"""sha256 pins of fixed-seed CLI outputs and circuit-path outcomes.

Each pin fixes the map from seed to output bytes.  A change that moves a
pin on purpose (for example, by drawing random numbers in another order)
updates it here and says why in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from ctxsim import cli, compilers, games, poq


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
