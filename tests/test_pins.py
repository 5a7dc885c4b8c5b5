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
     "25e23a66cf868e9766b1e3408049d1bc5ce9e56285e3492da37e94aa269aac0d", None),
    (["compile", "--game", "kcbs", "--compiler", "1-1", "--trials", "200", "--seed", "7"],
     "8330c1464c4e37c98c745d299c2d37310106ded4fb5bb99854b9ce7a9a808fdd",
     "5fe2efc4d5c279474d9738773923614ff3530182729046a5c6aaa7f53e2908bd"),
    (["compile", "--game", "magic-square", "--compiler", "cm1-1", "--trials", "200", "--seed", "7"],
     "4f56deb796bc3c7fb251c9f815f9fe30c02fffeac1a42222eef3df740b313b6f", None),
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
        "2a35ecc31aadaf150828a471d71074df4a9fa30a5163dda0221a727abceb1d14"

    game, strategy = games.kcbs()
    log = []
    compilers.estimate_win_rate(game, "1-1",
                                compilers.honest_quantum_prover(strategy, opad_path="circuit"),
                                100, np.random.default_rng(2025), lam=5, transcript_log=log)
    assert sha256("\n".join(t.to_json() for t in log)) == \
        "ccce961b6adebb85e9a5a6e90c2a38d3fb649e4ca1dfefdfd10d3a0e62406ae9"
