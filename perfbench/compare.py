"""Diff the per-op results of two benchmark records.

  python3 perfbench/compare.py OLD.json NEW.json

Records are the files run.py writes to perfbench/out/.  A speedup must leave
verdicts, objective values (to 1e-12) and the lowest-start-index tie rule
unchanged, so this reports, op by op over the ops both runs completed:
a verdict change, an objective_value or max_mk_mean value drift above 1e-12,
a best_start change, an exit-code change and an input that differs.
Exit code 0 means no difference, 1 that some were found.
"""

from __future__ import annotations

import json
import sys

TOLERANCE = 1e-12
EXACT = ("input", "verdict", "best_start", "exit_code")
CLOSE = ("objective_value", "value")


def differences(old_rows, new_rows):
    found = []
    for old, new in zip(old_rows, new_rows):
        for key in EXACT:
            if old.get(key) != new.get(key):
                found.append(f"op {old['index']}: {key} {old.get(key)!r} -> {new.get(key)!r}")
        for key in CLOSE:
            if key in old or key in new:
                a, b = old.get(key), new.get(key)
                if a is None or b is None or abs(a - b) > TOLERANCE:
                    found.append(f"op {old['index']}: {key} {a!r} -> {b!r}")
    return found


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    old, new = records
    old_meta, new_meta = old["meta"], new["meta"]
    for key in ("workload", "seed", "tiny"):
        if old_meta[key] != new_meta[key]:
            print(f"error: the records differ in {key}: {old_meta[key]!r} vs {new_meta[key]!r}",
                  file=sys.stderr)
            return 2
    found = differences(old["ops"], new["ops"]) + differences(old["traced_ops"], new["traced_ops"])
    compared = min(len(old["ops"]), len(new["ops"])) + min(len(old["traced_ops"]), len(new["traced_ops"]))
    for line in found:
        print(line)
    print(f"{len(found)} differences over {compared} ops compared")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
