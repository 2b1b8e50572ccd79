"""Write `reference.json`: the outcome record of every operation of one
pass at the default seed, for the suite inputs (all five variants) and
the sweep inputs (MORN_FULL at each tau_c value).

    python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change, and say
which ones moved and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import outcomes  # noqa: E402


def main() -> int:
    records = {}
    for kind in ("suite", "sweep"):
        p = harness.run_pass(harness.setup(kind, harness.DEFAULT_SEED))
        if p.errors:
            raise RuntimeError(f"{kind}: operations raised: {p.errors[:5]}")
        for key, rec in p.records.items():
            bad = outcomes.violations(rec, p.budgets[key])
            if bad:
                raise RuntimeError(f"{kind} {key}: {bad}")
        records[kind] = p.records
    doc = {"seed": harness.DEFAULT_SEED,
           "goal_fields": ["goal_id", "state", "spent", "found", "committed", "aborted_by_meta"],
           "records": records}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    # one record per line keeps diffs of the file readable
    outcomes.REFERENCE.write_text(text.replace('},"', '},\n"') + "\n")
    print(f"wrote {outcomes.REFERENCE} "
          f"({sum(len(r) for r in records.values())} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
