#!/usr/bin/env python3
"""Hold the primary index's bytes per key under its bounds.

Reads Google Benchmark JSON on stdin, as CI runs it:

    ./build/bench/micro_ops --benchmark_filter=IndexLoad \\
        --benchmark_format=json | python3 tools/check_index_bytes.py

Each BM_IndexLoad/wide:W/keys:N run reports `bytes_per_key`, the
index's byte_size() over its N keys. From 2^18 keys up it must not
exceed 9.5 for narrow keys (8-byte slots, W = 0) or 14.5 for wide ones
(12-byte slots, W = 1). The counts are deterministic: the same keys
always give the same bytes. Smaller loads are printed but not checked,
since each shard's header and first run weigh more there.

Exits 0 with a summary on success, 1 if a run is over its bound or no
run was checked.
"""

import json
import re
import sys

BOUNDS = {0: 9.5, 1: 14.5}  # bytes per key, by wide:W
MIN_KEYS = 1 << 18
NAME = re.compile(r"^BM_IndexLoad/wide:(\d)/keys:(\d+)")


def main():
    runs = json.load(sys.stdin).get("benchmarks", [])
    checked, over = 0, []
    for run in runs:
        m = NAME.match(run.get("name", ""))
        if not m or run.get("run_type", "iteration") != "iteration":
            continue
        wide, keys = int(m.group(1)), int(m.group(2))
        bytes_per_key, bound = run["bytes_per_key"], BOUNDS[wide]
        verdict = "not checked"
        if keys >= MIN_KEYS:
            checked += 1
            verdict = "ok"
            if bytes_per_key > bound:
                verdict = "over %.1f" % bound
                over.append(run["name"])
        print("check_index_bytes: wide:%d keys:%d %.3f bytes/key %s" %
              (wide, keys, bytes_per_key, verdict))
    if checked == 0:
        print("check_index_bytes: no BM_IndexLoad run of 2^18 keys or more",
              file=sys.stderr)
        sys.exit(1)
    if over:
        print("check_index_bytes: over the bound: " + ", ".join(over),
              file=sys.stderr)
        sys.exit(1)
    print("check_index_bytes: %d runs within bounds" % checked)


if __name__ == "__main__":
    main()
