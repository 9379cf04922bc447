"""Show that the benchmark's output checks catch and name corrupted output.

    python3 benchmark/selftest.py

Each fault goes through the same attempt() and Tally as a benchmark op:
a corrupted report field, a corrupted coefficient, a malformed graph6
file, and an exception raised inside the program.  Each must count as one
failed op whose message names the difference, and none may stop the run.
Exits 0 when every fault is caught, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def corrupt_total(result):
    code, stdout, stderr = result
    report = json.loads(stdout)
    report["census"]["total"] += 1
    return code, json.dumps(report, indent=2) + "\n", stderr


def corrupt_coefficient(cc):
    def tamper(poly):
        coeffs = list(poly.coeffs)
        coeffs[len(coeffs) // 2] += 1
        return cc.IntPolynomial(tuple(coeffs))

    return tamper


def main() -> int:
    cc, _ = run.load_package()
    seed = run.DEFAULT_SEED
    grid = workloads.build("census-grid", seed)
    spectra = workloads.build("spectral", seed)
    census_op = workloads.make_op("census-grid", cc, run.load_golden("census-grid", seed))
    spectral_op = workloads.make_op("spectral", cc, run.load_golden("spectral", seed))
    broken = grid[1]

    def raising(argv):
        raise RecursionError("maximum recursion depth exceeded")

    faults = [
        ("clean census op", census_op, grid[0], None, None, None),
        ("clean spectral op", spectral_op, spectra[0], None, None, None),
        ("corrupted report field", census_op, grid[0], corrupt_total, None, "census.total"),
        ("corrupted coefficient", spectral_op, spectra[0], corrupt_coefficient(cc), None,
         "coefficients"),
        ("malformed graph6 file", census_op, broken, None, None, "graph6 payload"),
        ("exception inside the program", census_op, grid[0], None, raising, "RecursionError"),
    ]
    tally = run.Tally()
    caught = 0
    with run.inputs_dir("census-grid", grid, "selftest") as workdir:
        (workdir / broken.name).write_text(workloads.graph6(broken.n, broken.edges)[:-40] + "\n")
        for label, op, case, tamper, replace_run, needle in faults:
            before = len(tally.failures)
            original = cc.cli_run
            if replace_run is not None:
                cc.cli_run = replace_run
            try:
                _, problems = run.attempt(op, case, tamper)
            finally:
                cc.cli_run = original
            tally.add(case, problems)
            failed = len(tally.failures) > before
            message = tally.failures[-1] if failed else "passed"
            ok = (not failed) if needle is None else (failed and needle in message)
            caught += ok
            print(f"{'ok ' if ok else 'BAD'} {label}: {message}")
    print(f"{caught}/{len(faults)} as expected; tally: {tally.attempted} attempted, "
          f"{len(tally.failures)} failed")
    return 0 if caught == len(faults) else 1


if __name__ == "__main__":
    sys.exit(main())
