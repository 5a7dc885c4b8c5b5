"""End-to-end checks of the command-line front end."""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ctxsim import cli, compilers, games, opad, poq, qfhe, tcf


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_values_builtin_games(capsys):
    expected = {
        "kcbs": ("4/5", 2 / math.sqrt(5)),
        "magic-square": ("5/6", 1.0),
        "chsh": ("3/4", math.cos(math.pi / 8) ** 2),
    }
    for name, (exact, qvalue) in expected.items():
        code, report, _ = run_cli(capsys, ["values", "--game", name])
        assert code == 0
        assert report["schema"] == 2
        row = report["rows"][0]
        assert row["nc_value_exact"] == exact
        assert row["quantum_value"] == pytest.approx(qvalue, abs=1e-9)
        assert report["config"]["command"] == "values"


def test_values_reads_game_files(tmp_path, capsys):
    game, strat = games.kcbs()
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"game": json.loads(game.to_json()),
                                  "strategy": json.loads(strat.to_json())}))
    bare = tmp_path / "bare.json"
    bare.write_text(game.to_json())

    code, report, _ = run_cli(capsys, ["values", "--game", str(bundle)])
    assert code == 0
    assert report["rows"][0]["quantum_value"] == pytest.approx(2 / math.sqrt(5))

    code, report, _ = run_cli(capsys, ["values", "--game", str(bare)])
    assert code == 0
    assert report["rows"][0]["nc_value_exact"] == "4/5"
    assert report["rows"][0]["quantum_value"] is None


def test_values_float_weights_are_exact(tmp_path, capsys):
    game, _ = games.kcbs()
    data = json.loads(game.to_json())
    data["context_weights"] = [0.2] * 5
    path = tmp_path / "kcbs-float.json"
    path.write_text(json.dumps(data))
    code, report, _ = run_cli(capsys, ["values", "--game", str(path)])
    assert code == 0
    assert report["rows"][0]["nc_value_exact"] == "4/5"


def test_values_rejects_weights_that_miss_one_exactly(tmp_path, capsys):
    game, _ = games.kcbs()
    data = json.loads(game.to_json())
    data["context_weights"] = [0.3333333333333333] * 3 + [0, 0]
    path = tmp_path / "kcbs-thirds.json"
    path.write_text(json.dumps(data))
    code, report, err = run_cli(capsys, ["values", "--game", str(path)])
    assert code == 3
    assert report is None
    assert "sum to exactly 1" in err


@pytest.mark.parametrize("command", [["poq"], ["compile", "--game", "kcbs", "--compiler", "1-1"]])
@pytest.mark.parametrize("lam", [2, tcf.MAX_DOMAIN_BITS + 1, 64])
def test_lambda_outside_the_key_bound_exits_3(capsys, command, lam):
    code, report, err = run_cli(capsys, command + ["--lambda", str(lam), "--seed", "1"])
    assert code == 3
    assert report is None
    assert f"3 to {tcf.MAX_DOMAIN_BITS}" in err


def test_values_rejects_a_game_past_the_search_bound(tmp_path, capsys):
    n = 25  # 2**25 tables
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "questions": list(range(n)), "answers": [0, 1],
        "contexts": [[q] for q in range(n)],
        "context_weights": [f"1/{n}"] * n,
        "predicate": {str(q): [[0]] for q in range(n)},
    }))
    code, report, err = run_cli(capsys, ["values", "--game", str(path)])
    assert code == 3
    assert report is None
    assert "exceed the brute-force bound" in err


def test_values_refuses_brackets_nested_past_the_depth_bound(tmp_path, capsys):
    path = tmp_path / "brackets.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, report, err = run_cli(capsys, ["values", "--game", str(path)])
    assert code == 3
    assert report is None
    assert "brackets.json" in err and "MAX_JSON_DEPTH" in err


def kcbs_with_label(label) -> str:
    """kcbs as a game file with its last question renamed to label."""
    data = json.loads(games.kcbs()[0].to_json())
    last = data["questions"][-1]
    data["questions"][-1] = label
    data["contexts"] = [[label if q == last else q for q in c] for c in data["contexts"]]
    return json.dumps(data)


def nested(depth):
    label = "q"
    for _ in range(depth):
        label = [label]
    return label


def test_values_refuses_a_label_nested_past_the_depth_bound(tmp_path, capsys):
    path = tmp_path / "deep-label.json"
    path.write_text(kcbs_with_label(nested(900)))
    code, report, err = run_cli(capsys, ["values", "--game", str(path)])
    assert code == 3
    assert report is None
    assert "deep-label.json" in err and "MAX_JSON_DEPTH" in err
    # nesting within the bound, and brackets inside strings, are read as before
    for label in (nested(cli.MAX_JSON_DEPTH - 4), "[" * 1000 + "{"):
        path.write_text(kcbs_with_label(label))
        code, report, _ = run_cli(capsys, ["values", "--game", str(path)])
        assert code == 0
        assert report["rows"][0]["nc_value_exact"] == "4/5"


def test_c1_compile_runs_on_mixed_type_answer_labels(tmp_path, capsys):
    # the feasible prover's nearest accepted tuple is chosen without
    # comparing a float label with a string one
    path = tmp_path / "mixed-labels.json"
    path.write_text(json.dumps({
        "questions": ["a", "b", "c"], "answers": [0.5, "x"],
        "contexts": [["a", "b"], ["b", "c"], ["c", "a"]],
        "context_weights": ["1/3"] * 3,
        "predicate": {str(i): [[0.5, "x"], ["x", 0.5]] for i in range(3)},
    }))
    code, report, err = run_cli(capsys, ["compile", "--game", str(path), "--compiler", "c-1",
                                         "--trials", "200", "--seed", "1"])
    assert code == 0, err
    assert [r["row"] for r in report["rows"]] == ["truthtable", "feasible"]


@pytest.mark.xfail(strict=True, reason="the c-1 closed form 1 - min weight/size is 1/2 "
                   "here, and both classical provers win every session")
def test_c1_soundness_bound_holds_on_a_one_context_game(tmp_path, capsys):
    # When c-1 reports an exact classical optimum this passes: drop the marker.
    path = tmp_path / "one-context.json"
    path.write_text(json.dumps({
        "questions": ["q0", "q1"], "answers": [1, -1], "contexts": [["q0", "q1"]],
        "context_weights": ["1"], "predicate": {"0": [[-1, 1], [1, 1]]},
    }))
    code, report, err = run_cli(capsys, ["compile", "--game", str(path), "--compiler", "c-1",
                                         "--trials", "2000", "--seed", "1", "--assert"])
    assert code == 0, [(r["row"], r["rate"], r["bound"]) for r in report["rows"]]


def test_python_dash_m_runs_the_cli():
    src = str(Path(games.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ctxsim",
                           "values", "--game", "kcbs"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["rows"][0]["nc_value_exact"] == "4/5"
    assert "Warning" not in done.stderr


def test_unknown_game_is_a_config_error(capsys):
    code, report, err = run_cli(capsys, ["values", "--game", "no-such-game"])
    assert code == 3
    assert report is None
    assert "unknown game" in err


def test_poq_report_shape(capsys):
    code, report, _ = run_cli(capsys, ["poq", "--trials", "300", "--seed", "2",
                                       "--lambda", "5"])
    assert code == 0
    names = [r["row"] for r in report["rows"]]
    assert names[0] == "honest"
    for kind in ("zero-echo", "preimage", "random-echo", "random-answer"):
        assert kind in names and "rewind-" + kind in names
    assert report["config"]["lambda"] == 5
    by_name = {r["row"]: r for r in report["rows"]}
    assert by_name["honest"]["formula"] == "cos^2(pi/8)"
    assert by_name["preimage"]["bound"] == 0.75
    assert by_name["preimage"]["analytic_exact"] == "3/4"
    assert by_name["rewind-preimage"]["formula"] == "2*rate - 1"
    assert report["bounds_ok"] is True


def test_poq_prover_filter(capsys):
    code, report, _ = run_cli(capsys, ["poq", "--prover", "preimage",
                                       "--trials", "50", "--seed", "4",
                                       "--lambda", "5"])
    assert code == 0
    assert [r["row"] for r in report["rows"]] == ["preimage", "rewind-preimage"]


@pytest.mark.parametrize("command", [["poq"], ["compile", "--game", "kcbs", "--compiler", "c-1"]])
def test_tcf_is_an_unrecognized_argument(capsys, command):
    code, report, err = run_cli(capsys, command + ["--trials", "5", "--seed", "1",
                                                   "--tcf", "ideal"])
    assert code == 3
    assert report is None
    assert "unrecognized arguments: --tcf" in err


def test_assert_flag_turns_a_missed_bound_into_exit_2(capsys, monkeypatch):
    # a correct prover misses its bound only by chance, so the classical
    # bound is moved below what the zero-commit echo prover scores
    monkeypatch.setattr(poq, "CLASSICAL_BOUND", 0.0)
    argv = ["poq", "--prover", "zero-echo", "--trials", "40", "--seed", "3",
            "--lambda", "5"]
    code, report, _ = run_cli(capsys, argv)
    assert code == 0  # without --assert the report simply records the miss
    assert report["bounds_ok"] is False
    code, report, _ = run_cli(capsys, argv + ["--assert"])
    assert code == 2
    assert report["bounds_ok"] is False


def test_compile_report_rows_and_bounds(capsys):
    code, report, _ = run_cli(capsys, ["compile", "--game", "kcbs",
                                       "--compiler", "c-1", "--trials", "250",
                                       "--seed", "6", "--lambda", "5"])
    assert code == 0
    by_name = {r["row"]: r for r in report["rows"]}
    assert set(by_name) == {"honest", "truthtable", "feasible"}
    assert by_name["honest"]["comparison"] == "~="
    assert by_name["honest"]["bound"] == pytest.approx(2 / math.sqrt(5))
    assert by_name["truthtable"]["bound"] == pytest.approx(0.9)
    assert by_name["feasible"]["analytic_exact"] == "9/10"
    for row in report["rows"]:
        assert row["formula"]
        assert row["within"] is True


def test_compile_runs_at_the_largest_lambda(capsys):
    # keys fix only the points a session reads; oracles hash only the blocks it touches
    code, report, _ = run_cli(capsys, ["compile", "--game", "kcbs", "--compiler", "1-1",
                                       "--lambda", "20", "--trials", "5", "--seed", "1"])
    assert code == 0
    assert {r["trials"] for r in report["rows"]} == {5}


@pytest.mark.parametrize("trials", [600, tcf.CHUNK_SIZE])
def test_a_lambda_20_compile_row_holds_nothing_of_size_2_to_the_lambda(trials, capsys):
    # each row runs as one chunk, a full one at tcf.CHUNK_SIZE trials; a 2^20-entry
    # int64 table alone would take 8 MiB
    tracemalloc.start()
    try:
        code = cli.main(["compile", "--game", "kcbs", "--compiler", "1-1", "--prover", "honest",
                         "--lambda", "20", "--trials", str(trials), "--seed", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["trials"] == trials
    assert peak < 16 << 20


@pytest.mark.parametrize("argv,lines", [
    (["compile", "--game", "kcbs", "--compiler", "1-1", "--trials", "200", "--seed", "7"], 400),
    (["poq", "--trials", "200", "--seed", "7"], 1000)], ids=["kcbs-1-1", "poq"])
def test_writing_transcripts_draws_nothing(argv, lines, tmp_path, capsys):
    # a transcript reads each key's fixed points only; a draw would shift every later row
    argv = argv + ["--out", str(tmp_path / "r.json")]
    files = [tmp_path / "r.json", tmp_path / "r.csv"]
    assert cli.main(argv) == 0
    plain = [capsys.readouterr().out] + [f.read_bytes() for f in files]
    assert cli.main(argv + ["--transcripts", str(tmp_path / "t.jsonl")]) == 0
    assert [capsys.readouterr().out] + [f.read_bytes() for f in files] == plain
    assert len((tmp_path / "t.jsonl").read_text().splitlines()) == lines


def test_compile_config_errors(tmp_path, capsys, monkeypatch):
    # every case is refused before any key exists or any row runs
    def no_keys(*args, **kwargs):
        raise AssertionError("a key was generated")
    monkeypatch.setattr(qfhe, "gen", no_keys)
    monkeypatch.setattr(opad, "gen", no_keys)
    monkeypatch.setattr(tcf, "gen", no_keys)
    monkeypatch.setattr(tcf, "gen_many", no_keys)
    monkeypatch.setattr(cli, "nc_value", no_keys)
    missing = str(tmp_path / "missing" / "out.json")
    folder = tmp_path / "folder"
    folder.mkdir()
    (tmp_path / "x.csv").mkdir()
    sibling = str(tmp_path / "x.json")
    same = ["poq", "--trials", "50", "--seed", "1", "--out", str(tmp_path / "same.json"),
            "--transcripts"]
    game_text = games.kcbs()[0].to_json().encode()
    game_files = [tmp_path / "g.json", tmp_path / "g.csv"]
    for path in game_files:
        path.write_bytes(game_text)
    own_game = ["compile", "--game", str(game_files[0]), "--compiler", "1-1",
                "--prover", "truthtable", "--trials", "10", "--seed", "1"]
    cases = [
        (["compile", "--game", "magic-square", "--compiler", "1-1",
          "--trials", "5", "--seed", "1"], "uniform context size"),
        (["compile", "--game", "kcbs", "--compiler", "cm1-1",
          "--prover", "feasible", "--trials", "5", "--seed", "1"], "c-1"),
        (["compile", "--game", "kcbs", "--compiler", "c-1",
          "--trials", "0", "--seed", "1"], "at least 1"),
        (["compile", "--game", "kcbs", "--compiler", "c-1",
          "--trials", "5"], "--seed"),
        (["values", "--game", "kcbs", "--bogus"], "unrecognized"),
        (["compile", "--game", "kcbs", "--compiler", "c-1",
          "--trials", "5", "--seed", "-1"], "--seed must be 0 or more"),
        (["poq", "--trials", "10", "--seed", "-1"], "--seed must be 0 or more"),
        (["values", "--game", "kcbs", "--out", missing], "--out: no directory"),
        (["poq", "--trials", "5", "--seed", "1", "--out", missing], "--out: no directory"),
        (["poq", "--trials", "5", "--seed", "1", "--transcripts", missing],
         "--transcripts: no directory"),
        (["compile", "--game", "kcbs", "--compiler", "c-1", "--trials", "5", "--seed", "1",
          "--out", missing], "--out: no directory"),
        (["compile", "--game", "kcbs", "--compiler", "c-1", "--trials", "5", "--seed", "1",
          "--transcripts", missing], "--transcripts: no directory"),
        (["poq", "--trials", "200", "--seed", "1", "--out", str(folder)],
         f"--out: {str(folder)!r} is a directory"),
        (["poq", "--trials", "200", "--seed", "1", "--transcripts", str(folder)],
         f"--transcripts: {str(folder)!r} is a directory"),
        (["values", "--game", "kcbs", "--out", sibling],
         f"--out's CSV: {str(tmp_path / 'x.csv')!r} is a directory"),
        (["compile", "--game", "kcbs", "--compiler", "1-1", "--trials", "5", "--seed", "1",
          "--fhe", "lwe"], "invalid choice"),
        (same + [str(tmp_path / "same.csv")], "is the same file as --out's CSV"),
        (same + [str(folder / ".." / "same.json")], "is the same file as --out"),
        (own_game + ["--transcripts", str(game_files[0])], "is the --game file"),
        (own_game + ["--transcripts", str(folder / ".." / "g.json")], "is the --game file"),
        (own_game + ["--out", str(game_files[0])],
         f"--out {str(game_files[0])!r} is the --game file"),
        (["compile", "--game", str(game_files[1]), "--compiler", "1-1", "--trials", "10",
          "--seed", "1", "--out", str(game_files[0])],
         f"--out's CSV {str(game_files[1])!r} is the --game file"),
        (["values", "--game", str(game_files[0]), "--out", str(game_files[0])],
         "is the --game file"),
    ]
    for argv, fragment in cases:
        code, _, err = run_cli(capsys, argv)
        assert code == 3, argv
        assert fragment in err
    assert not any((tmp_path / name).exists() for name in ("same.json", "same.csv"))
    assert all(path.read_bytes() == game_text for path in game_files)


def test_values_refuses_a_zero_denominator_and_a_stray_predicate_key(tmp_path, capsys):
    game, _ = games.kcbs()
    data = json.loads(game.to_json())
    bodies = {
        "zero-denominator.json": dict(data, context_weights=["1/0"] + data["context_weights"][1:]),
        "stray-predicate.json": dict(data, predicate={**data["predicate"],
                                                      "7": data["predicate"]["0"]}),
    }
    for name, body in bodies.items():
        path = tmp_path / name
        path.write_text(json.dumps(body))
        code, report, err = run_cli(capsys, ["values", "--game", str(path)])
        assert code == 3, name
        assert report is None
        assert name in err


def test_values_refuses_predicate_keys_that_are_not_context_indices(tmp_path, capsys):
    # int() reads each of these as context 1 (or 10), so one of two tables
    # for one context would be dropped without a word
    data = {"questions": ["q0", "q1", "q2"], "answers": [0, 1],
            "contexts": [["q0", "q1"], ["q1", "q2"]], "context_weights": ["1/2", "1/2"],
            "predicate": {"0": [[0, 1]], "1": [[1, 0]]}}
    for n, key in enumerate(["01", " 1", "+1", "1_0", "1.0"]):
        path = tmp_path / f"key{n}.json"
        path.write_text(json.dumps(dict(data, predicate={**data["predicate"], key: [[0, 0]]})))
        code, report, err = run_cli(capsys, ["values", "--game", str(path)])
        assert code == 3, key
        assert report is None
        assert path.name in err and repr(key) in err
    # to_json's keys still load, two-digit ones too
    twelve = games.ContextualityGame(
        questions=tuple(range(12)), answers=(0, 1),
        contexts=tuple((i, (i + 1) % 12) for i in range(12)),
        context_weights=("1/12",) * 12, accepts={i: {(0, 1), (1, 0)} for i in range(12)})
    for game in [twelve] + [build()[0] for build in cli.BUILTIN_GAMES.values()]:
        path = tmp_path / "roundtrip.json"
        path.write_text(game.to_json())
        assert cli.load_game(str(path))[0] == game


def test_compile_honest_needs_a_strategy(tmp_path, capsys):
    game, _ = games.kcbs()
    bare = tmp_path / "bare.json"
    bare.write_text(game.to_json())
    code, _, err = run_cli(capsys, ["compile", "--game", str(bare),
                                    "--compiler", "c-1", "--prover", "honest",
                                    "--trials", "5", "--seed", "1"])
    assert code == 3
    assert "strategy" in err
    # without an explicit prover the honest row is simply absent
    code, report, _ = run_cli(capsys, ["compile", "--game", str(bare),
                                       "--compiler", "c-1", "--trials", "60",
                                       "--seed", "1", "--lambda", "5"])
    assert code == 0
    assert [r["row"] for r in report["rows"]] == ["truthtable", "feasible"]


def test_identical_config_gives_byte_identical_files(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["compile", "--game", "kcbs", "--compiler", "1-1",
            "--prover", "truthtable", "--trials", "120", "--seed", "9",
            "--lambda", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    first = out.read_bytes(), (tmp_path / "report.csv").read_bytes()
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert (out.read_bytes(), (tmp_path / "report.csv").read_bytes()) == first

    reseeded = list(argv)
    reseeded[reseeded.index("--seed") + 1] = "10"
    assert cli.main(reseeded) == 0
    capsys.readouterr()
    assert out.read_bytes() != first[0]  # a different seed shows up


def test_csv_mirrors_the_flat_fields(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, report, _ = run_cli(capsys, ["poq", "--prover", "preimage",
                                       "--trials", "60", "--seed", "2",
                                       "--lambda", "5", "--out", str(out)])
    assert code == 0
    lines = (tmp_path / "r.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["command", "game", "compiler"]
    assert len(lines) == 1 + len(report["rows"])
    first = dict(zip(header, lines[1].split(",")))
    assert first["row"] == "preimage"
    assert float(first["rate"]) == report["rows"][0]["rate"]
    assert first["within"] in ("true", "false")


def test_transcript_logs_are_json_lines(tmp_path, capsys):
    log = tmp_path / "t.jsonl"
    code, _, _ = run_cli(capsys, ["compile", "--game", "kcbs",
                                  "--compiler", "c-1", "--prover", "truthtable",
                                  "--trials", "8", "--seed", "5",
                                  "--lambda", "5", "--transcripts", str(log)])
    assert code == 0
    lines = log.read_text().splitlines()
    assert len(lines) == 8
    entry = json.loads(lines[0])
    assert entry["row"] == "truthtable"
    assert entry["kind"] == "c-1"
    assert "t1_question_cipher" in entry

    code, _, _ = run_cli(capsys, ["poq", "--prover", "random-answer",
                                  "--trials", "7", "--seed", "5",
                                  "--lambda", "5", "--transcripts", str(log)])
    assert code == 0
    lines = log.read_text().splitlines()
    assert len(lines) == 7  # rewind rows do not produce transcripts
    entry = json.loads(lines[0])
    assert entry["row"] == "random-answer"
    assert {"s", "c", "b", "accepted"} <= set(entry)


@pytest.mark.parametrize("argv", [
    ["compile", "--game", "no-such-game", "--compiler", "1-1"],
    ["compile", "--game", "magic-square", "--compiler", "1-1"]], ids=["unknown-game", "1-1"])
def test_a_configuration_error_leaves_the_transcripts_file_untouched(argv, tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"row": "earlier run"}\n')
    code, _, _ = run_cli(capsys, argv + ["--trials", "5", "--seed", "1",
                                         "--transcripts", str(path)])
    assert code == 3
    assert path.read_bytes() == b'{"row": "earlier run"}\n'


def test_a_fault_in_a_later_row_leaves_the_earlier_rows_lines(tmp_path, monkeypatch):
    real = compilers.estimate_win_rate

    def truthtable_fails(game, kind, prover, *args, **kwargs):
        if type(prover) is compilers.TruthTableProver:
            raise ValueError("simulated internal fault")
        return real(game, kind, prover, *args, **kwargs)

    monkeypatch.setattr(compilers, "estimate_win_rate", truthtable_fails)
    path = tmp_path / "t.jsonl"
    with pytest.raises(ValueError, match="simulated internal fault"):
        cli.main(["compile", "--game", "kcbs", "--compiler", "1-1", "--trials", "30",
                  "--seed", "1", "--transcripts", str(path)])
    assert [json.loads(line)["row"] for line in path.read_text().splitlines()] == \
        ["honest"] * 30


def test_transcripts_stream_in_bounded_memory(tmp_path, capsys, monkeypatch):
    # each chunk's lines are written and dropped before the next chunk runs, so
    # two more chunks add less than the bytes of one chunk's lines; chunks of
    # 512 keep the traced run short
    monkeypatch.setattr(tcf, "CHUNK_SIZE", 512)
    path = tmp_path / "t.jsonl"
    peaks = []
    for trials in (1, tcf.CHUNK_SIZE, 3 * tcf.CHUNK_SIZE):  # the first run loads and caches
        tracemalloc.start()
        try:
            code = cli.main(["compile", "--game", "kcbs", "--compiler", "1-1",
                             "--prover", "honest", "--trials", str(trials), "--seed", "1",
                             "--transcripts", str(path)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
        if trials == tcf.CHUNK_SIZE:
            chunk_bytes = path.stat().st_size
    assert len(path.read_text().splitlines()) == 3 * tcf.CHUNK_SIZE
    assert peaks[2] - peaks[1] < chunk_bytes


def test_internal_errors_are_not_configuration_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("simulated internal fault")

    monkeypatch.setattr(compilers, "estimate_win_rate", broken)
    with pytest.raises(ValueError, match="simulated internal fault"):
        cli.main(["compile", "--game", "kcbs", "--compiler", "c-1",
                  "--trials", "5", "--seed", "1"])


def test_game_files_are_checked_before_any_row(tmp_path, capsys, monkeypatch):
    def no_keys(*args, **kwargs):
        raise AssertionError("a key was generated")
    monkeypatch.setattr(qfhe, "gen", no_keys)
    monkeypatch.setattr(opad, "gen", no_keys)
    game, strategy = games.kcbs()
    partial = json.loads(strategy.to_json())
    del partial["observables"]["4"]
    files = {
        "broken.json": "{not json",
        "no-questions.json": json.dumps({"answers": [0, 1]}),
        "partial-strategy.json": json.dumps({"game": json.loads(game.to_json()),
                                             "strategy": partial}),
        "mixed-sizes.json": json.dumps({
            "questions": [0, 1, 2], "answers": [0, 1], "contexts": [[0, 1], [0, 1, 2]],
            "context_weights": ["1/2", "1/2"], "predicate": {"0": [[0, 0]], "1": [[0, 0, 0]]}}),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        code, report, err = run_cli(capsys, ["compile", "--game", str(path), "--compiler", "c-1",
                                             "--trials", "5", "--seed", "1"])
        assert code == 3, name
        assert report is None
        assert name in err or "uniform context size" in err
