#!/usr/bin/env python3
"""Zero out host wall-clock fields so two runs can be diffed byte-for-byte.

The study's determinism contract (DESIGN.md, "Parallel study runner")
says every sidecar, journal line, and report is bit-identical at any
thread count *except* host wall-clock measurements, which differ between
any two runs — sequential or parallel. CI therefore normalizes those
fields before diffing a `--threads 1` run against a `--threads 4` run:

* JSON/JSONL: `"sum_ns"`, `"min_ns"`, `"max_ns"`, `"wall_ns"`,
  `"elapsed_ns"` values become 0.
* CSV sidecars: the span rows' timing columns (sum/min/max ns) become 0.
* Report text (Table II, fig1): decimal numbers become `#.#` — wall
  seconds are the only floating-point output that varies run to run,
  but normalizing all of them keeps this script free of per-report
  column knowledge. Integer fields (counts, censuses) stay exact.

With `--strip-engine`, executor-specific telemetry is also removed, so
a sequential-engine run diffs clean against an intra-trace PDES run
(`--sim-threads N`). DESIGN.md §11 lists the series each executor owns;
everything else (replay counters, packet work, link aggregates, message
histogram, budget consumed) is part of the bit-identity contract and is
deliberately NOT stripped. Stripped series, by prefix:

* `des.engine.pending_hwm`, `des.queue.*`, `sim.queue.peak_occupancy`,
  `sim.engine.dt_ps` — sequential-engine internals;
* `des.pdes.*` — windowed-executor internals;
* `sim.route.arena_bytes` — per-LP route arenas re-intern shared routes,
  so the summed footprint legitimately exceeds the sequential arena;
  `sim.route.lp_arena_bytes` — the largest single LP's arena, which only
  the partitioned executor has.

Strip mode re-serializes JSON canonically (both sides of a diff must be
normalized with the same flags) and drops matching CSV rows.

Usage: normalize_timing.py [--strip-engine] FILE...
(rewrites each file in place)
"""

import json
import re
import sys

NS_FIELDS = re.compile(r'"(sum_ns|min_ns|max_ns|wall_ns|elapsed_ns)":\s*\d+')
FLOATS = re.compile(r"\d+\.\d+")
# masim CSV sidecar span rows: span,name,,count,sum_ns,min_ns,max_ns
CSV_SPAN = re.compile(r"^(span,[^,]*,,\d+),\d+,\d+,\d+$", re.M)

ENGINE_PREFIXES = (
    "des.engine.pending_hwm",
    "des.queue.",
    "des.pdes.",
    "sim.queue.peak_occupancy",
    "sim.route.arena_bytes",
    "sim.route.lp_arena_bytes",
    "sim.engine.dt_ps",
)

NS_KEYS = {"sum_ns", "min_ns", "max_ns", "wall_ns", "elapsed_ns"}


def is_engine_series(name: str) -> bool:
    return name.startswith(ENGINE_PREFIXES)


def zero_ns(value):
    """Recursively zero wall-clock fields in parsed JSON."""
    if isinstance(value, dict):
        return {
            k: (0 if k in NS_KEYS and isinstance(v, (int, float)) else zero_ns(v))
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [zero_ns(v) for v in value]
    return value


def strip_json(value):
    """Drop executor-specific series from a sidecar-shaped document."""
    if not isinstance(value, dict):
        return value
    out = {}
    for section, body in value.items():
        if section in ("counters", "gauges", "spans", "hists") and isinstance(body, dict):
            out[section] = {k: v for k, v in body.items() if not is_engine_series(k)}
        else:
            out[section] = body
    return out


def strip_csv(text: str) -> str:
    kept = []
    for line in text.splitlines(keepends=True):
        cols = line.split(",")
        if len(cols) >= 2 and is_engine_series(cols[1]):
            continue
        kept.append(line)
    return "".join(kept)


def normalize(path: str, strip_engine: bool) -> None:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if path.endswith((".json", ".jsonl")):
        if strip_engine:
            # Canonical re-dump: both sides of the diff run through this
            # same code path, so formatting is identical by construction.
            lines = text.splitlines() if path.endswith(".jsonl") else [text]
            out = [
                json.dumps(zero_ns(strip_json(json.loads(ln))), sort_keys=True)
                for ln in lines
                if ln.strip()
            ]
            text = "\n".join(out) + "\n"
        else:
            text = NS_FIELDS.sub(lambda m: f'"{m.group(1)}":0', text)
    elif path.endswith(".csv"):
        text = CSV_SPAN.sub(r"\1,0,0,0", text)
        if strip_engine:
            text = strip_csv(text)
    else:
        text = FLOATS.sub("#.#", text)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def main() -> int:
    args = sys.argv[1:]
    strip_engine = False
    if args and args[0] == "--strip-engine":
        strip_engine = True
        args = args[1:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    for path in args:
        normalize(path, strip_engine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
