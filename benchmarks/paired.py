"""Paired runs of the end-to-end benchmark: a base commit against the
working tree.  ``python3 benchmarks/paired.py BASE_REF``

``BASE_REF`` is exported (``git archive``) into a temporary directory;
then, per workload, the driver's own command

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0

runs once in that directory and once in this checkout, ``--pairs`` times,
alternating which side goes first.  Each side runs the benchmark files of
its own tree, as the driver does.  Per end-to-end metric the report gives
both medians and quartiles, how many pairs the working tree won, and a
verdict by the rule for claiming a gain on a shared sandbox: ``gain`` when
the working tree wins at least nine tenths of the pairs (ties count for
neither side) and the medians are further apart than the base's own
quartiles; otherwise the word ``benchmarks/e2e/compare.py`` gives the two
sets of runs (``REGRESSION`` / ``unresolved`` / ``better`` / ``ok``).
Exit status 1 on any ``REGRESSION``, run that reported wrong output or
record digest that differs between the sides.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(HERE, "e2e"))

from compare import verdict  # noqa: E402
from run import quartiles  # noqa: E402

#: Share of the pairs the working tree must win before a gain is claimed.
WIN_SHARE = 0.9


def export(ref: str, directory: str) -> None:
    """The committed files of ``ref``, unpacked into ``directory``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=ROOT, capture_output=True, check=True,
    )  # fmt: skip
    subprocess.run(
        ["tar", "-x", "-C", directory], input=archive.stdout, check=True
    )


def one_run(root: str, workload: str, seed: int, seconds: int) -> dict:
    """The driver's command in ``root``: its last stdout line, parsed,
    plus the record digest from the ``detail`` line before it."""
    done = subprocess.run(
        [
            sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=root, capture_output=True, text=True,
    )  # fmt: skip
    if done.returncode != 0:
        raise SystemExit(f"benchmark failed in {root}:\n{done.stderr}")
    detail, result = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result)
    result["digest"] = json.loads(detail[len("detail ") :])["digest"]
    return result


def _summary(values: Sequence[float]) -> Dict[str, object]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def judge(
    metric: dict, base: Sequence[float], new: Sequence[float]
) -> Dict[str, object]:
    """Summaries, win count and verdict for one metric of one workload."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(1 for b, n in zip(base, new) if sign * n < sign * b)
    losses = sum(1 for b, n in zip(base, new) if sign * n > sign * b)
    base_s, new_s = _summary(base), _summary(new)
    word, worsening = verdict(
        base_s, new_s, bound=metric["bound"], better=metric["better"]
    )
    apart = sign * (base_s["median"] - new_s["median"])
    if (
        word != "REGRESSION"
        and wins >= WIN_SHARE * len(base)
        and apart > abs(base_s["q3"] - base_s["q1"])
    ):
        word = "gain"
    return {
        "base": base_s, "new": new_s, "wins": wins, "losses": losses,
        "worsening": worsening, "verdict": word,
    }  # fmt: skip


def positive_int(text: str) -> int:
    """``--pairs`` / ``--seconds``: a count of at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        contract = json.load(fp)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref", metavar="BASE_REF")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--pairs", type=positive_int, default=10)
    parser.add_argument(
        "--seconds", type=positive_int, default=contract["run_seconds"]
    )
    parser.add_argument("--out", default=os.path.join(HERE, "BENCH_paired.json"))
    args = parser.parse_args(argv)
    known = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{args.base_ref}^{{commit}}"],
        cwd=ROOT, capture_output=True,
    )  # fmt: skip
    if known.returncode != 0:
        parser.error(f"BASE_REF {args.base_ref!r} names no commit")

    report: Dict[str, dict] = {}
    failed = False
    with tempfile.TemporaryDirectory(prefix="paired-base-") as base_root:
        export(args.base_ref, base_root)
        for workload in args.workload or names:
            runs: Dict[str, List[dict]] = {"base": [], "new": []}
            for pair in range(args.pairs):
                order = ("base", "new") if pair % 2 == 0 else ("new", "base")
                for side in order:
                    print(f"{workload} pair {pair + 1}/{args.pairs} {side}",
                          file=sys.stderr)  # fmt: skip
                    root = base_root if side == "base" else ROOT
                    runs[side].append(
                        one_run(root, workload, pair + 1, args.seconds)
                    )
            for side, results in runs.items():
                bad = [r for r in results if not r["correct"] or r["failed"]]
                if bad:
                    print(f"CHECK FAILED: {workload}: {len(bad)} {side} "
                          "run(s) reported wrong output", file=sys.stderr)  # fmt: skip
                    failed = True
            if len({r["digest"] for rs in runs.values() for r in rs}) != 1:
                print(f"CHECK FAILED: {workload}: record digests differ",
                      file=sys.stderr)  # fmt: skip
                failed = True
            print(f"\n== {workload}  ({args.base_ref} -> working tree, "
                  f"{args.pairs} pairs of {args.seconds} s)")  # fmt: skip
            report[workload] = {}
            for metric in contract["end_to_end"]:
                name = metric["name"]
                result = judge(
                    metric,
                    [r["metrics"][name]["value"] for r in runs["base"]],
                    [r["metrics"][name]["value"] for r in runs["new"]],
                )
                report[workload][name] = result
                failed = failed or result["verdict"] == "REGRESSION"
                b, n = result["base"], result["new"]
                print(
                    f"  {name:<20} {metric['unit']:<5} "
                    f"base {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]  "
                    f"new {n['median']:.5g} [{n['q1']:.5g}, {n['q3']:.5g}]  "
                    f"{result['worsening']:+.2%}  "
                    f"wins {result['wins']}/{args.pairs}  {result['verdict']}"
                )
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(
            {"base_ref": args.base_ref, "pairs": args.pairs,
             "seconds": args.seconds, "workloads": report},
            fp, indent=1, sort_keys=True,
        )  # fmt: skip
        fp.write("\n")
    print(f"\nwrote {os.path.relpath(args.out)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
