"""Digests of every file the CLI writes, to show that two source trees give the same outputs.

For each seed, in a fresh directory, :func:`record` runs ``synth``, then
``sample``, ``rectify`` with each method, ``evaluate`` of each method's
rectified points, ``noise``, ``bench`` and ``plot`` with RAA and HA over that
corpus, at ``--th 1`` where a command takes it.  Each command and method
writes to its own directory, and the record maps each seed to the sha256 of
every file written, keyed by its path relative to the seed's directory.
Running this module as a script records seeds 0 and 1 on the default
``synth`` corpus in a temporary directory:

    PYTHONPATH=<tree>/src python tests/test_output_digests.py OUT.json

(with no argument the record goes to stdout).  Run it once with each tree's
``src`` and compare the two records: they are equal when every output is
byte-identical.  The test records a 2-straight + 1-curve corpus at one seed
in two directories and requires the same record, naming every file written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from spotalign.cli import run_cli
from spotalign.pipeline import ALL_METHODS

SEEDS = (0, 1)
PLOT_METHODS = ("raa", "ha")
TH = "1"


def run_commands(out: Path, seed: int, corpus: tuple[str, ...]) -> None:
    """Every command once per seed, and once per method where it takes one, each into its own directory."""
    def cli(*argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(list(argv))
        if code != 0:
            raise RuntimeError(f"spotalign {' '.join(argv)} exited with {code}")

    ds = out / "synth"
    cli("synth", "--seed", str(seed), *corpus, "--out-dir", str(ds))
    segments, collected, truth = (str(ds / f"{name}.csv") for name in ("segments", "collected", "truth"))
    data = ["--segments", segments, "--collected", collected, "--truth", truth]
    cli("sample", *data, "--out-dir", str(out / "sample"))
    for method in ALL_METHODS:
        rectify_dir = out / f"rectify-{method}"
        cli("rectify", *data, "--method", method, "--th", TH, "--out-dir", str(rectify_dir))
        cli("evaluate", "--segments", segments, "--collected", str(rectify_dir / "rectified.csv"),
            "--truth", truth, "--method", method, "--out-dir", str(out / f"evaluate-{method}"))
    cli("noise", *data, "--seed", str(seed), "--out-dir", str(out / "noise"))
    cli("bench", *data, "--th", TH, "--seed", str(seed), "--out-dir", str(out / "bench"))
    for method in PLOT_METHODS:
        cli("plot", "--segments", segments, "--collected", collected, "--method", method, "--th", TH,
            "--out-dir", str(out / f"plot-{method}"))


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def record(work: Path, seeds=SEEDS, corpus: tuple[str, ...] = ()) -> dict[str, dict[str, str]]:
    """Run every command per seed under ``work`` and digest what each wrote.

    ``corpus`` holds extra ``synth`` flags, such as ``--n-straight``.
    """
    out = {}
    for seed in seeds:
        run_commands(work / str(seed), seed, corpus)
        out[str(seed)] = digests(work / str(seed))
    return out


def test_record_names_every_output_and_does_not_depend_on_the_directory(tmp_path):
    corpus = ("--n-straight", "2", "--n-curve", "1")
    first = record(tmp_path / "a", seeds=(1,), corpus=corpus)
    second = record(tmp_path / "b", seeds=(1,), corpus=corpus)
    assert first == second
    rows = (tmp_path / "a" / "1" / "synth" / "collected.csv").read_text().splitlines()[2:]
    sids = sorted({row.split(",")[0] for row in rows})
    assert len(sids) == 3
    plots = [f"plot-{m}/plots/{sid}.{ext}" for m in PLOT_METHODS for sid in sids for ext in ("csv", "svg")]
    assert sorted(first["1"]) == sorted([
        "synth/segments.csv", "synth/collected.csv", "synth/truth.csv", "sample/candidates.csv",
        *(f"rectify-{m}/rectified.csv" for m in ALL_METHODS),
        *(f"evaluate-{m}/eval.csv" for m in ALL_METHODS),
        "noise/segments.csv", "noise/collected.csv", "noise/truth.csv",
        "bench/bench.csv", "bench/robustness.csv", *plots,
    ])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(record(Path(tmp)), indent=1, sort_keys=True) + "\n"
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
