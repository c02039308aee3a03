"""Record the golden rows that checks.py compares against at the default seed.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known good; the file it writes is
the reference every later commit must reproduce to 1e-12.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    golden = {}
    with workloads.cskit_jobs(1):
        for name in workloads.NAMES:
            for sweep in workloads.build(name, workloads.DEFAULT_SEED).sweeps:
                if sweep.name not in golden:
                    golden[sweep.name] = checks.sample(sweep, workloads.run_sweep(sweep))
    checks.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    # One row per line keeps the file readable and its diffs small.
    entries = []
    for name, table in golden.items():
        rows = ",\n".join(json.dumps(row) for row in table["rows"])
        entries.append(f'{json.dumps(name)}: {{"columns": {json.dumps(table["columns"])}, "rows": [\n{rows}]}}')
    checks.GOLDEN_PATH.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} sweeps to {checks.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
