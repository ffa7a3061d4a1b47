"""Compare the alignment method against the four classic matchers.

One corrupted segment, five methods, two scores: pooled coordinate
deviation (meters, lower is better) and recall within half a meter.
"""
import numpy as np

from spotalign import rectify, synth_corpus
from spotalign.geo import project_points
from spotalign.metrics import evaluate_segments

pairs = synth_corpus(3, 3, seed=42, taxonomies=("mixed",))
print(f"{len(pairs)} synthetic segments, mixed corruption "
      "(lateral drift + rotation + outliers + jitter)\n")

print(f"{'method':8s} {'ACD (m)':>10s} {'AR':>8s}")
for method in ("raa", "ed", "cd", "ha", "wd"):
    preds, truths = [], []
    for segment, collected in pairs:
        out = rectify(collected, segment, method, th=1.0)
        frame = segment.frame()
        preds.append(project_points(frame, out.points))
        truths.append(project_points(frame, collected.ground_truth))
    report = evaluate_segments(preds, truths)
    print(f"{method:8s} {report.acd:10.3f} {report.ar:8.3f}")

print("\nED snaps each point to its nearest candidate, so outliers land on")
print("whatever candidate is nearest; WD assigns the points to distinct")
print("candidates, which keeps two points off one spot but still has no window")
print("prior.  Chamfer scoring is brittle against the jitter.  The Hungarian")
print("window matcher keeps up on small clean corpora; the benchmark demo shows")
print("how the methods separate once uniform noise is injected.")
