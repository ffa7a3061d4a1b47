"""Mini benchmark: the full method/noise matrix and the coupling-weight sweep.

The same machinery the ``spotalign bench`` command runs, on a small corpus.
It takes about 1 s (2 cores, Python 3.11, numpy 2.4).
"""
from spotalign import synth_corpus
from spotalign.bench import bench_matrix
from spotalign.dataio import Dataset, RunConfig

pairs = synth_corpus(4, 4, seed=3)
dataset = Dataset(
    segments={seg.id: seg for seg, _ in pairs},
    collected={seg.id: col for seg, col in pairs},
    metadata={"source": "demo"},
)
cfg = RunConfig(seed=3, th=1.0)
bench_rows, robustness_rows = bench_matrix(dataset, cfg)

print("\nmethod x noise matrix (all segment classes):")
print(f"{'method':8s} {'noise':7s} {'ACD (m)':>10s} {'AR':>8s}")
for row in bench_rows:
    if row["run"] == "main" and row["segment_class"] == "all":
        print(f"{row['method']:8s} {row['noise']:7s} {row['acd']:10.3f} {row['ar']:8.3f}")

print("\ncoupling-weight sweep (clean arm, all classes):")
print(f"{'lam':>8s} {'ACD (m)':>10s} {'AR':>8s}")
for row in bench_rows:
    if row["run"] == "sweep" and row["segment_class"] == "all":
        print(f"{row['lam']:8g} {row['acd']:10.3f} {row['ar']:8.3f}")

print("\nrobustness index (lower = more robust, all classes):")
print(f"{'method':8s} {'R(ACD)':>10s} {'R(AR)':>8s}")
for row in robustness_rows:
    if row["segment_class"] == "all":
        print(f"{row['method']:8s} {row['r_acd']:10.3f} {row['r_ar']:8.3f}")
