"""Tests for the benchmark harness: tracing, checks and the tail rule.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import bench  # noqa: E402
import tracing  # noqa: E402
from fedseal.config import parse_config_text  # noqa: E402

TINY = """
[experiment]
algorithm = fedseal
n_clients = 4
clients_per_round = 3
rounds = 3
seed = 5
hidden_dims = 8
parallel_clients = 2

[data]
kind = synthetic
n_classes = 3
n_features = 16
image_height = 4
image_width = 4
partition = dirichlet
per_client = 30
server_train_n = 12
server_val_n = 12
test_n = 30

[server]
epochs = 2
batch_size = 8
learning_rate = 0.1
bootstrap_epochs = 3

[client]
epochs = 1
batch_size = 8
learning_rate = 0.1
theta = 0.05
lambda_ramp_rounds = 2
"""


def tiny_config(**overrides):
    return replace(parse_config_text(TINY, "tiny"), **overrides)


def test_traced_run_gives_the_untraced_records_and_restores_every_attribute():
    cfg = tiny_config()
    originals = [getattr(module, attr) for module, attr, _, _ in bench.PATCHES]
    _, state, records, _, error = bench.untraced_pass(cfg, setups=2)
    spans, _, _, traced, _, traced_error = bench.traced_pass(cfg)

    assert error is None and traced_error is None
    assert len(records) == cfg.rounds
    assert traced == records
    assert [getattr(module, attr) for module, attr, _, _ in bench.PATCHES] == originals
    # Every wrapped layer function was reached through its patched lookup.
    assert {name for _, _, name, _ in bench.PATCHES} == {s[tracing.NAME] for s in spans}
    assert bench.invalid_rounds(records, cfg, state.split) == {}


def test_end_to_end_reports_every_end_to_end_name():
    cfg = tiny_config(rounds=bench.TAIL_ABOVE + 1)
    setup_seconds, state, records, seconds, error = bench.untraced_pass(cfg, setups=2)
    assert error is None and len(setup_seconds) == 2
    values = bench.end_to_end(setup_seconds, seconds, records, cfg, state.split)
    assert set(values) == set(bench.END_TO_END_UNITS)
    assert all(math.isfinite(v) and v > 0 for v in values.values())


def test_layer_metrics_report_every_per_layer_name():
    cfg = tiny_config()
    spans, _, _, records, _, _ = bench.traced_pass(cfg)
    values = bench.layer_metrics(spans, records, cfg)
    assert set(values) | {"trace.overhead_frac"} == set(bench.PER_LAYER_UNITS)
    assert all(math.isfinite(v) for v in values.values())
    assert values["nn.gradient.calls"] > 0 and values["client.phase_wall_s"] > 0


def test_covered_and_self_seconds_for_nested_spans():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [7, 8] is apart,
    # [9, 12] runs past the parent; the grandchild does not count for parent.
    spans = [
        (1, None, "parent", 0.0, 10.0, 0, 0.0),
        (2, 1, "child", 1.0, 3.0, 0, 0.0),
        (3, 1, "child", 2.0, 5.0, 0, 0.0),
        (4, 1, "child", 7.0, 8.0, 0, 0.0),
        (5, 1, "child", 9.0, 12.0, 0, 0.0),
        (6, 4, "grandchild", 7.2, 7.7, 0, 0.0),
    ]
    own = tracing.self_seconds(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert own[4] == pytest.approx(1.0 - 0.5)
    assert own[6] == pytest.approx(0.5)
    summary = tracing.summarize(spans)
    assert summary["child"]["calls"] == 4
    assert summary["child"]["self_s"] == pytest.approx(2.0 + 3.0 + 0.5 + 3.0)


def test_wrapped_calls_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[tracing.NAME], []).append(span)
    (outer,) = by_name["outer"]
    assert [s[tracing.PARENT] for s in by_name["inner"]] == [outer[tracing.ID]] * 2
    own = tracing.self_seconds(tracer.spans)
    inner_total = sum(s[tracing.END] - s[tracing.START] for s in by_name["inner"])
    assert own[outer[tracing.ID]] == pytest.approx(
        outer[tracing.END] - outer[tracing.START] - inner_total
    )
    assert 0.005 < own[outer[tracing.ID]] < 0.03


def test_self_time_stays_correct_across_client_threads():
    tracer = tracing.Tracer()
    both_open = threading.Barrier(2, timeout=10)

    def leaf():
        time.sleep(0.03)

    traced_leaf = tracer.wrap("leaf", leaf)

    def client(k):
        both_open.wait()  # both client spans are open before either leaf starts
        traced_leaf()
        return k

    traced_client = tracer.wrap("client", client)

    def round_body():
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert sorted(pool.map(traced_client, [0, 1])) == [0, 1]

    tracer.wrap("round", round_body, root=True)()

    spans = {s[tracing.ID]: s for s in tracer.spans}
    (root,) = [s for s in spans.values() if s[tracing.NAME] == "round"]
    clients = [s for s in spans.values() if s[tracing.NAME] == "client"]
    leaves = [s for s in spans.values() if s[tracing.NAME] == "leaf"]
    assert len(clients) == 2 and len(leaves) == 2
    # Worker threads start with an empty stack, so the round adopts them.
    assert all(c[tracing.PARENT] == root[tracing.ID] for c in clients)
    # Each leaf nests under the client on its own thread, even though the
    # other thread's client span was open at the same time.
    for leaf_span in leaves:
        parent = spans[leaf_span[tracing.PARENT]]
        assert parent[tracing.NAME] == "client"
        assert parent[tracing.START] <= leaf_span[tracing.START]
        assert leaf_span[tracing.END] <= parent[tracing.END]
    assert {spans[l[tracing.PARENT]][tracing.ID] for l in leaves} == {
        c[tracing.ID] for c in clients
    }
    own = tracing.self_seconds(tracer.spans)
    union = tracing.covered_seconds(
        [(c[tracing.START], c[tracing.END]) for c in clients],
        root[tracing.START], root[tracing.END],
    )
    root_duration = root[tracing.END] - root[tracing.START]
    assert own[root[tracing.ID]] == pytest.approx(root_duration - union)
    assert own[root[tracing.ID]] >= 0.0
    # The two clients overlapped, so their summed time exceeds the round's.
    assert sum(c[tracing.END] - c[tracing.START] for c in clients) > root_duration


def test_tail_percentile_leaves_ten_samples_above():
    assert bench.tail_percentile(list(range(40, 0, -1))) == (75.0, 30)
    pct, value = bench.tail_percentile([0.5] * 10 + [0.1])
    assert (pct, value) == (pytest.approx(100.0 / 11), 0.1)
    with pytest.raises(ValueError):
        bench.tail_percentile([1.0] * 10)


def test_a_raising_round_fails_it_and_every_later_round(monkeypatch):
    cfg = tiny_config(rounds=5, parallel_clients=1)
    state = bench.set_up(cfg)
    real_round = bench.experiment.run_round

    def flaky(state, t):
        if t == 3:
            raise FloatingPointError("boom")
        return real_round(state, t)

    monkeypatch.setattr(bench.experiment, "run_round", flaky)
    records, seconds, error = bench.run_rounds(state, cfg.rounds)
    assert len(records) == len(seconds) == 2
    assert error.startswith("round 3: FloatingPointError")


def test_invalid_rounds_flags_each_broken_invariant():
    cfg = tiny_config(rounds=2, parallel_clients=1)
    state = bench.set_up(cfg)
    records, _, _ = bench.run_rounds(state, cfg.rounds)
    shard = len(state.split.client_train[0])
    broken = [
        replace(records[0], test_accuracy=float("nan")),
        replace(
            records[1],
            taus=(1.5,) + records[1].taus[1:],
            pos_sizes=(shard,) * len(records[1].pos_sizes),
            neg_sizes=(1,) * len(records[1].neg_sizes),
        ),
    ]
    problems = bench.invalid_rounds(broken, cfg, state.split)
    assert set(problems) == {1, 2}
    assert any("accuracy" in why for why in problems[1])
    assert any("taus" in why for why in problems[2])
    assert any("exceeds its shard" in why for why in problems[2])
    assert bench.invalid_rounds([records[1]], cfg, state.split) == {1: ["record says round 2"]}
    assert bench.check_pass(cfg, state.split, records, None, reference=records) == 0
    assert bench.check_pass(cfg, state.split, records[:1], "round 2: boom") == 1
    assert bench.check_pass(cfg, state.split, records, None, reference=broken) == 2


def test_rows_trained_counts_server_and_filtered_client_rows():
    cfg = tiny_config(rounds=2)
    state = bench.set_up(cfg)
    records, _, _ = bench.run_rounds(state, cfg.rounds)
    expected = sum(
        cfg.server.epochs * len(state.split.server_train)
        + sum(rec.pos_sizes) + sum(rec.neg_sizes)
        for rec in records
    )
    assert bench.rows_trained(records, cfg, state.split) == expected


def test_workloads_in_benchmark_json_match_the_harness():
    spec = bench.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(bench.NOMINAL_ROUND_S)
    for name in bench.NOMINAL_ROUND_S:
        assert (HERE.parent / "workloads" / f"{name}.ini").is_file()
        assert bench.rounds_for(name, spec["run_seconds"]) > bench.TAIL_ABOVE
