#!/usr/bin/env python3
"""Diff per-stage p99 breakdowns between two bench JSON-lines files.

Used by CI's perf-smoke job (report-only — ALWAYS exits 0; shared
runners are too noisy to gate on percent-level stage drift):

    tools/compare_stage_p99.py bench/baselines/BENCH_baseline.json BENCH_ci.json

Both inputs are LSTORE_BENCH_JSON files: one JSON object per line, the
stage rows shaped

    {"bench":"workload","metric":"<mode>.t<N>.p99_by_stage.<stage>",
     "value":<us>,"unit":"us"}

Non-metric lines (e.g. the commit/run header) are skipped. When a
metric appears several times in one file (multiple runs appending),
the LAST value wins — it reflects the newest run.

Output: one table per comparison key, baseline vs current with
absolute and relative deltas, plus the keys present on only one side.
"""

import json
import sys

MARKER = ".p99_by_stage."


def load_stage_rows(path):
    rows = {}
    try:
        f = open(path, "r", encoding="utf-8")
    except OSError as e:
        print(f"compare_stage_p99: cannot read {path}: {e}")
        return rows
    with f:
        for raw in f:
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # tolerate partial/foreign lines
            metric = obj.get("metric")
            value = obj.get("value")
            if (isinstance(metric, str) and MARKER in metric
                    and isinstance(value, (int, float))):
                rows[metric] = float(value)  # last write wins
    return rows


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} <baseline.json> <current.json>")
        return  # report-only: even usage errors do not fail the job
    base_path, cur_path = sys.argv[1], sys.argv[2]
    base = load_stage_rows(base_path)
    cur = load_stage_rows(cur_path)

    if not base and not cur:
        print("compare_stage_p99: no p99_by_stage rows in either file "
              "(built with LSTORE_TRACING=OFF, or no traced run)")
        return

    common = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))

    if common:
        print(f"p99_by_stage: {base_path} -> {cur_path}")
        width = max(len(k) for k in common)
        print(f"  {'stage':<{width}} {'baseline':>12} {'current':>12} "
              f"{'delta':>10} {'pct':>8}")
        for key in common:
            b, c = base[key], cur[key]
            delta = c - b
            pct = f"{100.0 * delta / b:+.1f}%" if b > 0 else "n/a"
            flag = ""
            if b > 0 and abs(delta) / b >= 0.25:
                flag = "  <-- drifted"  # eyeball marker, not a gate
            print(f"  {key:<{width}} {b:>10.1f}us {c:>10.1f}us "
                  f"{delta:>+8.1f}us {pct:>8}{flag}")
    else:
        print("p99_by_stage: no stage keys in common")

    for name, keys, path in (("baseline-only", only_base, base_path),
                             ("current-only", only_cur, cur_path)):
        if keys:
            print(f"  {name} ({path}):")
            for key in keys:
                src = base if name == "baseline-only" else cur
                print(f"    {key} = {src[key]:.1f}us")

    # Report-only by design: the perf-smoke SLO gate owns pass/fail.


if __name__ == "__main__":
    main()
