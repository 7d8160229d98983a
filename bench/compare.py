"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py bench/results/parent bench/results/change

Each side is a directory of result files written by `run.py --out`;
traced results are ignored. For every workload and end-to-end metric the
report gives each side's run count, quartiles and median, the median's
change as a share of side A's median (positive is worse), each side's
spread (interquartile distance over median) and a verdict:

  worse       B's median is worse than A's by more than the metric's bound
  better      B's median is better by more than both sides' spread and
              B's middle half lies wholly on the better side of A's
  unresolved  neither of the above

It also prints the attempted and failed counts per side. The exit status
is 1 when any metric is worse, any run was incorrect, or the share of
failed operations differs between the sides, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_side(path) -> dict[str, list[dict]]:
    """Untraced results by workload."""
    by: dict[str, list[dict]] = {}
    for f in sorted(Path(path).glob("*.json")):
        rec = json.loads(f.read_text(encoding="utf-8"))
        if not rec["trace"]:
            by.setdefault(rec["workload"], []).append(rec["result"])
    return by


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float, float]:
    """(verdict, change, spread of a, spread of b); change > 0 means b is worse."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (bm - am) / am
    spread_a, spread_b = (a3 - a1) / am, (b3 - b1) / bm
    clear = b3 < a1 if better == "lower" else b1 > a3
    if change > bound:
        return "worse", change, spread_a, spread_b
    if -change > max(spread_a, spread_b) and clear:
        return "better", change, spread_a, spread_b
    return "unresolved", change, spread_a, spread_b


def compare(side_a, side_b, spec) -> tuple[list[str], bool]:
    a, b = load_side(side_a), load_side(side_b)
    lines = [
        f"{'workload':<15} {'metric':<12} {'unit':<8} {'runs':>5}  "
        f"{'A q1 / median / q3':<32} {'B q1 / median / q3':<32} {'change':>8} {'spread A/B':>13} {'bound':>6}  verdict"
    ]
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        ra, rb = a.get(name, []), b.get(name, [])
        if not ra or not rb:
            lines.append(f"{name:<15} missing results (A: {len(ra)} runs, B: {len(rb)} runs)")
            ok = False
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["metrics"][m["name"]]["value"] for r in rb]
            v, change, sa, sb = verdict(va, vb, m["better"], m["bound"])
            ok = ok and v != "worse"
            qa = "{:.4g} / {:.4g} / {:.4g}".format(*quartiles(va))
            qb = "{:.4g} / {:.4g} / {:.4g}".format(*quartiles(vb))
            lines.append(
                f"{name:<15} {m['name']:<12} {m['unit']:<8} {len(va):>2}/{len(vb):<2}  {qa:<32} {qb:<32} "
                f"{change:>+8.1%} {sa:>6.1%}/{sb:<6.1%} {m['bound']:>6.2f}  {v}"
            )
        counts = []
        shares = []
        for side, runs in (("A", ra), ("B", rb)):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            wrong = sum(not r["correct"] for r in runs)
            shares.append({r["failed"] / r["attempted"] for r in runs})
            counts.append(f"{side}: attempted {att}, failed {fail}, incorrect runs {wrong}")
            ok = ok and wrong == 0
        same = len(shares[0] | shares[1]) == 1
        ok = ok and same
        lines.append(f"{name:<15} {'; '.join(counts)}; failed share {'same' if same else 'DIFFERS'} in every run")
    return lines, ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, ok = compare(argv[0], argv[1], spec)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
