"""Tests of the benchmark itself: checks, digests, tracing, contract.

    python3 -m pytest -q bench/test_bench.py

Prefixes and the exact workload's size ladder are shrunk here so the
whole file runs in about a minute; the real runs use the sizes in
workloads.py.
"""
import argparse
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_package()
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Short prefixes, and an exact workload without the large searches."""
    for cls, cycles in ((workloads.Compiled, 2), (workloads.Poq, 20),
                        (workloads.Circuit, 1), (workloads.Exact, 1)):
        monkeypatch.setattr(cls, "prefix_cycles", cycles)
    monkeypatch.setattr(workloads.Exact, "CYCLE_SIZES", (5, 6, 7))
    monkeypatch.setattr(workloads.Exact, "RANDOM_SIZES", (9,))
    monkeypatch.setattr(workloads.Exact, "BLOCK_MIX", (
        ("nc/cycle5", 2), ("quantum/chsh", 1), ("quantum/kcbs", 1),
        ("quantum/magic-square", 1), ("nc/cycle7", 2)))
    monkeypatch.setattr(workloads.Exact, "REPORT_QUESTIONS", 9)
    monkeypatch.setattr(run, "OUT", BENCH / "out" / "test")
    (BENCH / "out" / "test").mkdir(parents=True, exist_ok=True)
    return run


def traced(name, seed):
    return run.traced_run(argparse.Namespace(workload=name, seed=seed, seconds=0, trace=1))


def prefix_digest(name, seed):
    loop = run.Loop(run.build_workload(name, seed))
    loop.run(0, loop.workload.prefix_cycles)
    return workloads.digest(loop.workload.digest_outputs(loop.configs, loop.values))


class Sabotaged(workloads.Compiled):
    """Scores the kcbs 1-1 truthtable rate against the honest target."""

    def _build(self):
        ops = super()._build()
        game, kind, prover, _, _ = self.sessions["kcbs/1-1/truthtable"]
        self.sessions["kcbs/1-1/truthtable"] = (
            game, kind, prover, workloads.KCBS_1_1_COMPLETENESS, "~=")
        return ops


def test_negative_control_counts_a_bound_miss():
    workload = Sabotaged(3, BENCH / "out")
    loop = run.Loop(workload)
    loop.run(0, workload.prefix_cycles)
    failed = [c for c in run.output_checks(workload, loop, []) if not c.ok]
    assert len(failed) >= 1
    assert [c.label for c in failed] == ["kcbs/1-1/truthtable"]


def test_rate_check_rule():
    # 0.9 against 0.9 with 100 trials: tol = 3 * 0.03 + 0.005
    assert workloads.rate_check("x", 90, 100, 0.9, "~=").ok
    assert workloads.rate_check("x", 99, 100, 0.9, "<=").ok
    assert not workloads.rate_check("x", 100, 100, 0.9, "<=").ok
    assert not workloads.rate_check("x", 999, 1000, 1.0, "==").ok


def test_exact_nc_value_matches_the_search():
    import numpy as np
    from ctxsim import games
    rng = np.random.default_rng(5)
    for n in (5, 6, 7):
        game = workloads.cycle_game(n, rng)
        assert workloads.exact_nc_value(game) == games.nc_value(game)
    for q in (4, 6, 9):
        game = workloads.random_game(q, rng)
        value, table = games.nc_value_with_table(game)
        assert workloads.exact_nc_value(game) == value
        assert workloads.table_value(game, table.table) == value


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_digest(small, name):
    assert prefix_digest(name, 4) == prefix_digest(name, 4)


def test_different_seed_different_digest(small):
    assert prefix_digest("compiled", 4) != prefix_digest("compiled", 5)


def test_traced_runs_repeat_and_cover_every_layer(small):
    nonzero = set()
    for name in run.WORKLOAD_NAMES:
        first, second = traced(name, 6), traced(name, 6)
        assert first["digest"] == second["digest"], name
        calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        assert calls == {k: v["value"] for k, v in second["metrics"].items()
                         if k.endswith(".calls")}
        by_label = {c["label"]: c["ok"] for c in first["checks"]}
        assert by_label["span nesting within ops"], name
        assert by_label["tracing leaves outputs unchanged"], name
        assert first["failed"] == 0, first["first_error"]
        nonzero |= {k.split(".")[0] for k, v in first["metrics"].items()
                    if v["value"] and not k.startswith("trace.")}
    assert nonzero == set(tracer.LAYERS)


def test_prefix_fills_a_tail_window():
    assert run.tail_window_ops(99) == 1000 and run.tail_window_ops(90) == 100
    for cls in workloads.WORKLOADS.values():
        ops = cls.prefix_cycles * len(cls(0, BENCH / "out").cycle())
        assert ops >= run.tail_window_ops(cls.tail_pct), cls.name


def test_loop_stops_between_blocks(small):
    workload = run.build_workload("exact", 2)
    assert len(workload.cycle()) % workload.block_ops == 0
    loop = run.Loop(workload)
    loop.run(1e-9, 0)
    assert loop.ops == workload.block_ops and loop.pos == workload.block_ops
    loop.run(0, 1)
    assert loop.ops == len(workload.cycle()) and loop.pos == 0


def test_throughput_weighs_each_op_of_the_cycle_once(small):
    loop = run.Loop(run.build_workload("compiled", 2))
    width = len(loop.pos_ns)
    with pytest.raises(ValueError):
        loop.ops_per_s()
    # half the places run once at 1 us, half three times at 3 us each
    for pos in range(width):
        runs = 1 if pos % 2 == 0 else 3
        loop.pos_runs[pos] = runs
        loop.pos_ns[pos] = runs * (1000 if pos % 2 == 0 else 3000)
    assert loop.ops_per_s() == pytest.approx(width / (width / 2 * 4000) * 1e9)


def test_interquartile_mean_drops_the_outer_quarters():
    assert run.interquartile_mean([100, 2, 3, 4, 1]) == 3
    assert run.interquartile_mean([5.0]) == 5.0


def test_benchmark_json_names_every_metric(small):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    record = traced("compiled", 1)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in record["metrics"].items()}
