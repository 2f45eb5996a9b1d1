"""Acceptance suite: one test per release criterion, run via pytest.

Criteria 3-5 need the real Fashion-MNIST IDX files.  They are looked up in
$FEDSEAL_FASHION_MNIST_DIR (default: <repo>/data/fashion-mnist), accepting
either raw or .gz files; when absent those tests skip with download
instructions (this sandbox has no network access).  Everything else runs on
synthetic or in-test data.

Each criterion prints one PASS line on success (visible with ``pytest -s``
or in the captured-output section).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from fedseal import (
    ClientConfig,
    DataConfig,
    ExperimentConfig,
    ServerConfig,
    Uploads,
    aggregate,
    batch_loss,
    build_negative_set,
    build_positive_set,
    compute_thresholds,
    forward_batch,
    gradient,
    run_experiment,
    stream,
    update_ensemble,
)
from fedseal.cli import run
from fedseal.data import augment_strong, augment_weak

from conftest import (
    REPO_ROOT,
    fd_gradient,
    labeled_rows,
    make_params,
    reference_negative_set,
    rel_error,
    run_all_rounds,
)

FASHION_MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

FASHION_MNIST_SKIP = (
    "Fashion-MNIST IDX files not found. Place the four standard files "
    f"({', '.join(FASHION_MNIST_FILES)}, raw or .gz) in "
    "$FEDSEAL_FASHION_MNIST_DIR or ./data/fashion-mnist/ and re-run. "
    "See README 'Fashion-MNIST experiments' for download instructions."
)


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: PASS - {message}")


def fashion_mnist_paths() -> dict[str, str] | None:
    base = Path(
        os.environ.get("FEDSEAL_FASHION_MNIST_DIR", REPO_ROOT / "data" / "fashion-mnist")
    )
    found = {}
    for name in FASHION_MNIST_FILES:
        for candidate in (base / name, base / f"{name}.gz"):
            if candidate.is_file():
                found[name] = str(candidate)
                break
        else:
            return None
    return found


# ---------------------------------------------------------------------------
# Criterion 1: oracle equivalences, >= 100 random seeds each
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalences():
    started = time.perf_counter()

    # Aggregation vs per-coordinate mean.
    for seed in range(100):
        rng = stream(seed, "c1-agg")
        count = int(rng.integers(2, 7))
        models = [make_params((3, 4, 3), seed=1000 * seed + j, dtype=np.float64)
                  for j in range(count)]
        averaged = aggregate(Uploads(models)).values
        stacked = np.stack([m.values for m in models])
        for j in range(stacked.shape[1]):
            assert abs(averaged[j] - stacked[:, j].sum() / count) <= 1e-12 * max(
                1.0, abs(averaged[j])
            )

    # Thresholds vs a direct transcription of the per-class ratio.
    for seed in range(100):
        model = make_params((4, 6, 3), seed=seed, dtype=np.float64)
        val = labeled_rows(int(stream(seed, "c1-n").integers(3, 12)), 4, 3, seed=seed)
        taus = compute_thresholds(model, val)
        probs = forward_batch(model, val.X)
        preds = probs.argmax(axis=1)
        labels = val.y
        for m in range(3):
            den = int((labels == m).sum())
            expected = min(probs[preds == m, m].sum() / den, 1.0) if den else 1.0
            assert abs(taus[m] - expected) <= 1e-12
            assert 0.0 <= taus[m] <= 1.0

    # Incremental ensemble vs the batch average of all models' outputs.
    for seed in range(100):
        rng = stream(seed, "c1-ens")
        feats = np.stack([rng.random(3) for _ in range(5)])
        models = [make_params((3, 4, 3), seed=seed * 31 + j, dtype=np.float64)
                  for j in range(int(rng.integers(2, 9)))]
        avg = None
        for t, model in enumerate(models, start=1):
            avg = update_ensemble(avg, t, model, feats)
        batch_avg = np.mean([forward_batch(m, feats) for m in models], axis=0)
        assert np.max(np.abs(avg - batch_avg)) <= 1e-12

    # Filter sets vs a brute-force inequality scan and one scalar draw per
    # eligible row.  Low concentration and a wide theta range give rows with
    # no candidate class and rows with several; every fifth seed's taus lie
    # below 1/7, so its shard is all positive and draws nothing.
    for seed in range(100):
        rng = stream(seed, "c1-filter")
        n, n_classes = int(rng.integers(1, 40)), int(rng.integers(2, 8))
        rows = rng.dirichlet(np.ones(n_classes) * rng.uniform(0.1, 2.0), size=n)
        taus = rng.uniform(0.0, 1.0 if seed % 5 else 0.05, n_classes)
        theta = float(rng.uniform(0.001, 0.5))
        pos_rows, pos_labels = build_positive_set(rows, taus)
        positive = list(zip(pos_rows.tolist(), pos_labels.tolist()))
        expected_pos = []
        for i in range(n):
            label = int(np.argmax(rows[i]))
            if rows[i][label] >= taus[label]:
                expected_pos.append((i, label))
        assert positive == expected_pos

        got_rng, ref_rng = stream(seed, "c1-neg"), stream(seed, "c1-neg")
        neg_rows, neg_labels = build_negative_set(rows, taus, theta, got_rng)
        negative = list(zip(neg_rows.tolist(), neg_labels.tolist()))
        assert negative == reference_negative_set(rows, taus, theta, ref_rng)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert {i for i, _ in negative}.isdisjoint(i for i, _ in expected_pos)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(1, f"aggregate/thresholds/ensemble/filter oracles, 100 seeds each, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: analytic gradients vs central finite differences, >= 20 seeds
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = stream(seed, "c2")
        dims = (int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(2, 5)))
        params = make_params(dims, seed=seed + 500, dtype=np.float64)
        width, n_classes = dims[0], dims[-1]
        n = int(rng.integers(3, 7))

        def draw(augment, negative):
            rows = [
                (augment(rng.random(width)), int(rng.integers(0, n_classes)))
                for _ in range(n)
            ]
            return np.stack([x for x, _ in rows]), [y for _, y in rows], negative

        server_batch = draw(lambda x: augment_weak(x[None], rng)[0], False)
        positive_batch = draw(lambda x: augment_strong(x[None], rng)[0], False)
        negative_batch = draw(lambda x: x, True)
        lam = float(rng.uniform(0.05, 1.0))

        for batch in (server_batch, positive_batch, negative_batch):
            err = rel_error(
                gradient(params, *batch),
                fd_gradient(params, lambda p, b=batch: batch_loss(p, *b), h=1e-4),
            )
            worst = max(worst, err)
            assert err < 1e-4

        combined_analytic = lam * gradient(params, *positive_batch) + gradient(
            params, *negative_batch
        )
        combined_fd = fd_gradient(
            params,
            lambda p: lam * batch_loss(p, *positive_batch) + batch_loss(p, *negative_batch),
            h=1e-4,
        )
        err = rel_error(combined_analytic, combined_fd)
        worst = max(worst, err)
        assert err < 1e-4

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        2,
        f"server/positive/negative/combined losses, 20 seeds, "
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criteria 3-5: Fashion-MNIST desk-scale ordering and figure claims
# ---------------------------------------------------------------------------

FMNIST_SEEDS = (1, 2, 3)


def fmnist_config(algorithm: str, seed: int) -> ExperimentConfig:
    paths = fashion_mnist_paths()
    return ExperimentConfig(
        algorithm=algorithm,
        n_clients=10,
        clients_per_round=10,
        rounds=100,
        seed=seed,
        hidden_dims=(128, 64),
        server=ServerConfig(
            epochs=5, batch_size=32, learning_rate=0.001, lr_decay=0.995,
            momentum=0.9, bootstrap_epochs=100,
        ),
        client=ClientConfig(
            epochs=1, batch_size=64, learning_rate=0.001, lr_decay=0.995,
            momentum=0.9, theta=0.05, lambda_max=1.0, lambda_ramp_rounds=30,
        ),
        data=DataConfig(
            kind="idx",
            train_images=paths["train-images-idx3-ubyte"],
            train_labels=paths["train-labels-idx1-ubyte"],
            test_images=paths["t10k-images-idx3-ubyte"],
            test_labels=paths["t10k-labels-idx1-ubyte"],
            image_height=28,
            image_width=28,
            partition="iid",
            per_client=1200,
            server_train_n=500,
            server_val_n=200,
            test_n=3000,
        ),
    )


@pytest.fixture(scope="module")
def fmnist_runs():
    if fashion_mnist_paths() is None:
        pytest.skip(FASHION_MNIST_SKIP)
    started = time.perf_counter()
    results: dict[tuple[str, int], list] = {}
    for algorithm in ("fedseal", "server_sl", "fedavg_sl"):
        for seed in FMNIST_SEEDS:
            results[(algorithm, seed)] = run_experiment(fmnist_config(algorithm, seed))
    results["elapsed_main"] = time.perf_counter() - started
    return results


def test_criterion_3_fashion_mnist_ordering(fmnist_runs):
    finals = {
        algorithm: float(
            np.median([fmnist_runs[(algorithm, s)][-1].test_accuracy for s in FMNIST_SEEDS])
        )
        for algorithm in ("fedseal", "server_sl", "fedavg_sl")
    }
    elapsed = fmnist_runs["elapsed_main"]
    assert finals["fedseal"] >= finals["server_sl"] + 0.01, finals
    assert finals["fedavg_sl"] >= finals["fedseal"], finals
    assert elapsed < 45 * 60.0
    _report(
        3,
        f"median finals fedseal={finals['fedseal']:.4f} >= "
        f"server_sl={finals['server_sl']:.4f}+0.01, "
        f"fedavg_sl={finals['fedavg_sl']:.4f} on top, {elapsed / 60:.1f} min",
    )


def test_criterion_4_complementary_labels_more_reliable_early(fmnist_runs):
    for seed in FMNIST_SEEDS:
        early = fmnist_runs[("fedseal", seed)][:10]
        pos = [r.pos_correct_rate for r in early if r.pos_correct_rate is not None]
        neg = [r.neg_correct_rate for r in early if r.neg_correct_rate is not None]
        assert pos and neg, "filter sets unexpectedly empty in early rounds"
        assert np.mean(neg) > np.mean(pos), (seed, np.mean(neg), np.mean(pos))
    _report(4, "mean complementary correct rate > pseudo rate, rounds 1-10, all seeds")


def test_criterion_5_self_ensemble_ablation(fmnist_runs):
    full = float(
        np.median([fmnist_runs[("fedseal", s)][-1].test_accuracy for s in FMNIST_SEEDS])
    )
    ablated = float(
        np.median(
            [
                run_experiment(fmnist_config("fedseal_no_ensemble", s))[-1].test_accuracy
                for s in FMNIST_SEEDS
            ]
        )
    )
    assert ablated <= full, (ablated, full)
    _report(5, f"ensemble-off median {ablated:.4f} <= full {full:.4f}")


# ---------------------------------------------------------------------------
# Criterion 6: FixMatch at threshold 1.0 degenerates to server-only exactly
# ---------------------------------------------------------------------------


def _degeneracy_config(algorithm: str) -> ExperimentConfig:
    return ExperimentConfig(
        algorithm=algorithm,
        n_clients=4,
        clients_per_round=4,
        rounds=10,
        seed=5,
        fixmatch_threshold=1.0,
        hidden_dims=(14, 8),
        server=ServerConfig(epochs=2, batch_size=16, learning_rate=0.08, bootstrap_epochs=12),
        client=ClientConfig(epochs=1, batch_size=16, learning_rate=0.08),
        data=DataConfig(
            kind="synthetic", n_classes=4, n_features=10, spread=0.22,
            per_client=40, server_train_n=32, server_val_n=20, test_n=80,
        ),
    )


def test_criterion_6_fixmatch_threshold_one_degenerates_to_server_only():
    fix_records, fix_state = run_all_rounds(_degeneracy_config("fedavg_fixmatch"))
    assert all(size == 0 for rec in fix_records for size in rec.pos_sizes)
    assert all(size == 0 for rec in fix_records for size in rec.neg_sizes)

    sl_records, sl_state = run_all_rounds(_degeneracy_config("server_sl"))
    assert np.array_equal(fix_state.global_params.values, sl_state.global_params.values)
    assert [r.test_accuracy for r in fix_records] == [r.test_accuracy for r in sl_records]
    _report(6, "all positive sets empty and final models identical, 10 rounds")


# ---------------------------------------------------------------------------
# Criterion 7: byte-identical rounds.csv, including client-parallel training
# ---------------------------------------------------------------------------

DETERMINISM_CONFIG = """\
[experiment]
algorithm = fedseal
n_clients = 4
clients_per_round = 3
rounds = 4
seed = 13
hidden_dims = 12,6
parallel_clients = {parallel}

[data]
kind = synthetic
n_classes = 4
n_features = 10
spread = 0.22
per_client = 32
server_train_n = 32
server_val_n = 20
test_n = 60

[server]
epochs = 2
batch_size = 16
learning_rate = 0.08
bootstrap_epochs = 8

[client]
epochs = 1
batch_size = 16
learning_rate = 0.08
"""


def test_criterion_7_determinism_byte_identical_csv(tmp_path):
    outputs = {}
    for parallel in (1, 3):
        cfg_path = tmp_path / f"cfg_{parallel}.ini"
        cfg_path.write_text(DETERMINISM_CONFIG.format(parallel=parallel))
        runs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"run_{parallel}_{attempt}"
            assert run(["--config", str(cfg_path), "--output-dir", str(out)]) == 0
            runs.append((out / "rounds.csv").read_bytes())
        assert runs[0] == runs[1], f"parallel_clients={parallel} not reproducible"
        outputs[parallel] = runs[0]
    # Thread-parallel client training must not change the metrics at all.
    assert outputs[1] == outputs[3]
    _report(7, "two invocations byte-identical, serial and with 3 worker threads")
