"""fedseal and its three baselines on one synthetic task, lower to upper bound.

Runs server-only training (lower bound), the FixMatch-style combination,
the full algorithm, and the label-oracle FedAvg upper bound with identical
data and seeds, then prints the accuracy trajectory and the early-round
label-quality table.
"""

from fedseal import ClientConfig, DataConfig, ExperimentConfig, ServerConfig, run_experiment


def config(algorithm: str) -> ExperimentConfig:
    return ExperimentConfig(
        algorithm=algorithm, n_clients=5, clients_per_round=5, rounds=20, seed=1,
        hidden_dims=(24, 12),
        server=ServerConfig(epochs=3, batch_size=20, learning_rate=0.15, bootstrap_epochs=30),
        client=ClientConfig(epochs=1, batch_size=32, learning_rate=0.15,
                            theta=0.05, lambda_ramp_rounds=10),
        data=DataConfig(kind="synthetic", n_classes=5, n_features=16, spread=0.25,
                        per_client=100, server_train_n=40, server_val_n=30, test_n=250),
    )


runs = {name: run_experiment(config(name))
        for name in ("server_sl", "fedavg_fixmatch", "fedseal", "fedavg_sl")}

print("test accuracy by round:")
print(f"{'round':>5}", *[f"{name:>16}" for name in runs])
for t in range(0, 20, 4):
    row = [f"{runs[name][t].test_accuracy:>16.3f}" for name in runs]
    print(f"{t + 1:>5}", *row)
print(f"{'final':>5}", *[f"{runs[name][-1].test_accuracy:>16.3f}" for name in runs])

print("\nearly-round label quality (full algorithm):")
print(f"{'round':>5} {'pseudo correct':>15} {'complement correct':>20}")
for rec in runs["fedseal"][:8]:
    pos = "-" if rec.pos_correct_rate is None else f"{rec.pos_correct_rate:.1%}"
    neg = "-" if rec.neg_correct_rate is None else f"{rec.neg_correct_rate:.1%}"
    print(f"{rec.round:>5} {pos:>15} {neg:>20}")

fed = runs["fedseal"][-1].test_accuracy
low = runs["server_sl"][-1].test_accuracy
high = runs["fedavg_sl"][-1].test_accuracy
print(f"\nunlabeled client data recovered "
      f"{(fed - low) / max(high - low, 1e-9):.0%} of the labeled-oracle gap")
