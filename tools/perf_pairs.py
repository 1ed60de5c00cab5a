"""Run alternating parent/change pairs of the wall-clock benchmark and summarize them.

Usage (from the repository root)::

    python tools/perf_pairs.py --rev HEAD~1 --pairs 10 --seconds 30 \\
        [--workload connectivity-large ...] [--first-seed 1] [--out FILE.md]

The *change* side is the working tree this script lives in; the *parent*
side is a clean export of ``--rev`` (``git archive``) under
``.perfbench-tmp/``, removed on exit.  Pair ``i`` runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
on both sides with seed ``S = first_seed + i``; odd pairs run the parent
first, even pairs the change, so drift in the machine's load falls on both
sides alike.  Each workload then gets one markdown table: per end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles, the ratio
of the medians, and the number of pairs the change won in the metric's
direction.  Nothing under ``perfbench/`` is edited; an export has no
``.git``, so an interrupted run leaves no git state behind.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".perfbench-tmp"


def export_rev(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` (a fresh directory)."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its final JSON line (``failed`` set on a crash)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)``, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def table(workload: str, metrics: list[dict], runs: list[tuple[dict, dict]]) -> str:
    """Markdown summary of one workload's ``(parent, change)`` pairs."""
    failed = [sum(int(side["failed"]) for side in column) for column in zip(*runs)]
    lines = [
        f"### {workload}",
        f"pairs: {len(runs)}; failed parent={failed[0]} change={failed[1]}",
        "| metric | parent median [Q1, Q3] | change median [Q1, Q3] | change/parent | change wins |",
        "|---|---|---|---|---|",
    ]
    for metric in metrics:
        name = metric["name"]
        pairs = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in runs
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not pairs:
            continue
        parent, change = ([pair[i] for pair in pairs] for i in (0, 1))
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        ratio = f"{cmed / pmed:.3f}" if pmed else "n/a"
        lines.append(
            f"| `{name}` | {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] | {cmed:.4g} [{cq1:.4g}, {cq3:.4g}] "
            f"| {ratio} | {wins}/{len(pairs)} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 30))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--out", type=Path, help="also write the tables to this file")
    args = parser.parse_args(argv)

    TMP_ROOT.mkdir(exist_ok=True)
    parent = Path(tempfile.mkdtemp(prefix="parent-", dir=TMP_ROOT))
    try:
        export_rev(args.rev, parent)
        sections = []
        for workload in args.workload or names:
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = (("parent", parent), ("change", ROOT))
                if i % 2:
                    order = order[::-1]
                result = {side: run_once(path, workload, seed, args.seconds)
                          for side, path in order}
                runs.append((result["parent"], result["change"]))
                summary = {side: result[side]["metrics"].get("op_p50_s", {}).get("value")
                           for side in ("parent", "change")}
                print(f"{workload} seed {seed}: op_p50_s {summary}", file=sys.stderr, flush=True)
            sections.append(table(workload, spec["end_to_end"], runs))
        text = "\n\n".join(sections) + "\n"
        print(text)
        if args.out:
            args.out.write_text(text, encoding="utf-8")
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # a benchmark run of its own still uses it
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
