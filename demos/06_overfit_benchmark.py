"""Desk-scale generalization benchmark.

An overparameterized two-layer network memorizes a small, label-flipped
Gaussian-mixture training set; centered rotation noise at an equivalent
keep rate of 0.8 shrinks the train-validation gap on paired seeds.
Reduced budget here so the script runs in about a minute; the full
protocol lives in the acceptance suite.
"""

from rotnoise import NoiseOpSpec, TrainConfig, train_and_report

spec = NoiseOpSpec("rotation", 0.8, centered=True)
config = TrainConfig(epochs=80, gap_window=10, n_train=200, n_val=2000, batch_size=32, seed=0)

rows, summary = train_and_report(
    [("baseline", None), ("rotation", spec)],
    config,
    hidden_widths=(128, 128),
    seeds=(0, 1, 2),
    record_every=0,
)

print("per-seed generalization gaps (train acc - validation acc):")
for label in ("baseline", "rotation"):
    gaps = summary[label]["gaps"]
    print(f"  {label:9s} " + "  ".join(f"{g:+.4f}" for g in gaps)
          + f"   mean {summary[label]['gap_mean']:+.4f}")

wins = sum(
    r < b for b, r in zip(summary["baseline"]["gaps"], summary["rotation"]["gaps"])
)
print(f"\nrotation shrank the gap on {wins}/{len(summary['rotation']['gaps'])} paired seeds")

final = {}
for label, _, seed, epoch, tr, va in rows:
    final[(label, seed)] = (epoch, tr, va)
print("\nfinal-epoch accuracies:")
for (label, seed), (epoch, tr, va) in sorted(final.items()):
    print(f"  {label:9s} seed {seed}: train {tr:.3f}  val {va:.3f}")
