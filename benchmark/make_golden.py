"""Write benchmark/golden/<workload>.json from the current program.

    python3 benchmark/make_golden.py [workload ...]

The golden files hold, for the default seed, every census report as the
exact text `analyze --format json` printed, and the sha256 of every
spectral expansion's coefficient text.  The benchmark compares each op at
the default seed with them byte for byte.  Regenerate them only for a
change meant to alter the report bytes, and say so in that change; a
report that fails its independent checks is never written.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    cc, _ = run.load_package()
    for workload in argv or workloads.WORKLOADS:
        cases = workloads.build(workload, run.DEFAULT_SEED)
        op = workloads.make_op(workload, cc, golden=None)
        golden = {}
        with run.inputs_dir(workload, cases, "golden"):
            for case in cases:
                result = op.run(case)
                problems = op.check(case, result)
                if problems:
                    raise SystemExit(f"{workload} {case.name}: {'; '.join(problems)}")
                if workload == "spectral":
                    golden[case.name] = hashlib.sha256(result.to_text().encode()).hexdigest()
                else:
                    golden[case.name] = result[1]
        path = run.HERE / "golden" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)} ({len(golden)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
