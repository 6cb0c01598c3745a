"""Compare two benchmark results: ``python bench/compare.py A.json B.json``.

``A`` is the parent commit's ``bench/out/results.json``, ``B`` the
change's, both made with the same settings.  For every workload and
end-to-end metric it prints both medians and quartiles, the pairs ``B``
won (pass ``i`` of ``A`` against pass ``i`` of ``B``) and a verdict, with
the bounds taken from ``BENCHMARK.json``:

* ``unresolved`` -- ``A``'s spread (quartile distance over median) is
  wider than the bound, and not every pass of ``B`` beats every pass of
  ``A``;
* ``worse`` -- ``B``'s median is worse than ``A``'s by more than the bound;
* ``improved`` -- at least ten pairs, ``B`` won at least nine tenths of
  them, and the medians differ by more than ``A``'s quartile distance
  (use ``--seconds`` to get enough passes);
* ``no change`` -- otherwise.

Per-layer counts (present when both runs were traced) must be identical.
Exits 1 on any ``worse`` verdict or differing count.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A gain needs at least this many parent/change pairs.
MIN_PAIRS = 10

#: Units of the per-layer metrics that are exact counts of simulated work.
COUNT_UNITS = {"count", "B", "sim_s", "jobs/run"}


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Dict[str, Any]:
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = (statistics.quantiles(a, n=4) if len(a) > 1
                 else (med_a, med_a, med_a))
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    worse_by = sign * (med_a - med_b) / med_a
    if (q3 - q1) / med_a > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            result = "improved"
        else:
            result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    elif (len(pairs) >= MIN_PAIRS and won >= 0.9 * len(pairs)
          and abs(med_b - med_a) > q3 - q1):
        result = "improved"
    else:
        result = "no change"
    return {"median_a": med_a, "median_b": med_b, "q1_a": q1, "q3_a": q3,
            "won": won, "pairs": len(pairs), "verdict": result}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    a, b = (doc["workloads"] for doc in docs)
    failed = False
    print(f"A {docs[0].get('git_sha')}  B {docs[1].get('git_sha')}")
    print(f"{'workload':<13} {'metric':<13} {'unit':<9} {'A median':>11} "
          f"{'A q1..q3':>21} {'B median':>11} {'B q1..q3':>21} "
          f"{'won':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [p["metrics"][name] for p in a[workload]["passes"]]
            values_b = [p["metrics"][name] for p in b[workload]["passes"]]
            row = verdict(values_a, values_b, metric["better"],
                          metric["bound"])
            stats_b = b[workload]["metrics"][name]
            print(f"{workload:<13} {name:<13} {metric['unit']:<9} "
                  f"{row['median_a']:>11.5g} "
                  f"{row['q1_a']:>10.5g}..{row['q3_a']:<10.5g} "
                  f"{row['median_b']:>11.5g} "
                  f"{stats_b['q1']:>10.5g}..{stats_b['q3']:<10.5g} "
                  f"{row['won']:>3}/{row['pairs']:<2}  {row['verdict']}")
            failed |= row["verdict"] == "worse"
        layers_a = a[workload].get("layers", {})
        layers_b = b[workload].get("layers", {})
        for name in sorted(set(layers_a) & set(layers_b)):
            if layers_a[name]["unit"] not in COUNT_UNITS:
                continue  # a timing, not a count
            if layers_a[name]["value"] != layers_b[name]["value"]:
                print(f"{workload}: count {name} differs: "
                      f"{layers_a[name]['value']} vs "
                      f"{layers_b[name]['value']}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
