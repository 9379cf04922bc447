#!/usr/bin/env python3
"""Run the committed mutants of scripts/mutants.json under tier-1.

Each mutant replaces one exact snippet of one source file.  It runs in a
fresh copy of the working tree under a temporary directory, never in the
tree itself, with tier-1 as `pytest -q -x -p no:cacheprovider` and a
timeout of TIMEOUT seconds.  A failing or timed-out run kills the
mutant; a passing run lets it survive; a snippet that is not in its file
exactly once makes it stale.
The expected outcome is "killed", or "equivalent" for a mutant that must
survive, with a pointer to its proof.

Prints one JSON record: the ids killed, survived and stale, the ids whose
outcome differs from the expected one, and each run's result.  Exits 1 if
any outcome is unexpected.

    python scripts/mutants.py           # every mutant
    python scripts/mutants.py --gate    # check the script itself

--gate runs three probes and expects each outcome: the equivalent mutants
survive, `return True` at the top of `_lemma_holds` is killed, and a
snippet that is not in its file is reported stale.

Each mutant costs up to one full tier-1 run, so this is not part of
tier-1.  A stale mutant is re-anchored to the code that replaced its
snippet, or retired from the file with its reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "scripts" / "mutants.json"
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".bench_work"
)
GATE_KILLED = "lemma-holds-always"
TIMEOUT = 600


def run(mutant: dict) -> dict:
    """Apply mutant to a fresh copy of the tree and run tier-1 there."""
    source = (ROOT / mutant["file"]).read_text()
    if source.count(mutant["snippet"]) != 1:
        return {"outcome": "stale"}
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        (copy / mutant["file"]).write_text(
            source.replace(mutant["snippet"], mutant["replacement"])
        )
        path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        start = time.monotonic()
        try:
            done = subprocess.run(
                command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return {"outcome": "killed", "summary": f"timeout after {TIMEOUT} s"}
    lines = done.stdout.strip().splitlines()
    return {
        "outcome": "survived" if done.returncode == 0 else "killed",
        "summary": lines[-1] if lines else f"exit {done.returncode}",
        "seconds": round(time.monotonic() - start, 1),
    }


def report(mutants: list[dict]) -> dict:
    """Run each mutant; the JSON record of outcomes."""
    record: dict = {"killed": [], "survived": [], "stale": [], "unexpected": [], "runs": {}}
    for mutant in mutants:
        result = run(mutant)
        record[result["outcome"]].append(mutant["id"])
        record["runs"][mutant["id"]] = result
        want = {"killed": "killed", "equivalent": "survived", "stale": "stale"}[mutant["expect"]]
        if result["outcome"] != want:
            record["unexpected"].append(mutant["id"])
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--gate", action="store_true", help="check the script itself")
    args = parser.parse_args(argv)
    mutants = json.loads(DATA.read_text())
    if args.gate:
        probe = next(m for m in mutants if m["id"] == GATE_KILLED)
        missing = {**probe, "id": "missing-snippet", "expect": "stale",
                   "snippet": "# no such line\n" + probe["snippet"]}
        mutants = [m for m in mutants if m["expect"] == "equivalent"] + [probe, missing]
    record = report(mutants)
    print(json.dumps(record, indent=1))
    return 1 if record["unexpected"] else 0


if __name__ == "__main__":
    sys.exit(main())
