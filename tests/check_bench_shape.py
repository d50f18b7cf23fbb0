#!/usr/bin/env python3
"""Checks that a fresh bench-json= baseline has the committed one's shape.

Usage: check_bench_shape.py COMMITTED.json FRESH.json

FRESH must list COMMITTED's top-level keys in the same order, and every
entry of its per_phase array must carry the fields tools/compare_bench.py
reads. Values are not compared: timings differ from run to run.
"""

import json
import sys

PHASE_KEYS = ("section", "calls", "total_ms", "ns_per_call")


def shape_errors(committed, fresh):
    errors = []
    if list(fresh) != list(committed):
        errors.append("top-level keys %s differ from the committed %s"
                      % (list(fresh), list(committed)))
    phases = fresh.get("per_phase")
    if not isinstance(phases, list) or not phases:
        errors.append("per_phase is missing or empty")
        return errors
    for i, phase in enumerate(phases):
        missing = [key for key in PHASE_KEYS if key not in phase]
        if missing:
            errors.append("per_phase[%d] lacks %s" % (i, ", ".join(missing)))
    return errors


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        committed = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)
    errors = shape_errors(committed, fresh)
    for error in errors:
        print("%s: %s" % (argv[2], error), file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
