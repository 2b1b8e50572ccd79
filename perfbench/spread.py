"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload suite --runs 10 [--first-seed 1]

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric the median and the quartile spread (third minus first
quartile, over the median) next to the metric's bound; a spread above a
third of the bound is flagged. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import figures  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args(argv)
    cat = figures.load_catalogue()
    seconds = args.seconds or cat["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=True, cwd=HERE.parent)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: failed {result['failed']} of {result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}"
                                          for k, m in result["metrics"].items()), flush=True)
    worst = 0.0
    for m in cat["end_to_end"]:
        vals = values[m["name"]]
        s = figures.spread(vals)
        flag = "" if s < m["bound"] / 3 else "  <-- above a third of the bound"
        if m["name"] != "setup_s":
            worst = max(worst, s / m["bound"])
        print(f"{m['name']:<16} median {statistics.median(vals):<12.6g} spread {s:.4f} "
              f"bound {m['bound']}{flag}")
    print(f"worst spread / bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
