"""Compare benchmark records of two commits.

    python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are ``record.json`` files or directories searched for
them (for example copies of ``.bench_out`` made on each commit).
Records pair up by workload, seed and trace flag.  Prints each metric's
change and lists every job whose emitted-bytes sha256 changed; exits 1
when any digest changed, so the list can gate a refactor that must not
change behaviour.
"""

import json
import os
import sys


def load_records(path):
    files = [path] if os.path.isfile(path) else [
        os.path.join(base, name) for base, _, names in os.walk(path)
        for name in names if name == "record.json"]
    records = {}
    for name in sorted(files):
        with open(name, encoding="utf-8") as fh:
            rec = json.load(fh)
        records[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return records


def digests(rec):
    """First untraced pass: job id -> (sha256, arguments)."""
    return {j["id"]: (j["sha256"], j["args"]) for j in rec["jobs"]
            if j["pass"] == 0 and not j["traced"]}


def main(argv):
    before, after = (load_records(p) for p in argv)
    changed = 0
    for key in sorted(set(before) & set(after)):
        old, new = before[key], after[key]
        print(f"{key[0]} seed {key[1]} trace {key[2]}: "
              f"{old['metadata']['commit'][:12]} -> "
              f"{new['metadata']['commit'][:12]}")
        for name, value in old["metrics"].items():
            if name in new["metrics"] and isinstance(value, (int, float)):
                now = new["metrics"][name]
                rel = f"{now / value - 1:+.1%}" if value else "n/a"
                print(f"  {name:<44} {value:>14.6g} {now:>14.6g}  {rel}")
        old_d, new_d = digests(old), digests(new)
        for job_id in sorted(set(old_d) & set(new_d)):
            if old_d[job_id][0] != new_d[job_id][0]:
                changed += 1
                print(f"  DIGEST CHANGED job {job_id}: "
                      f"{json.dumps(new_d[job_id][1], sort_keys=True)}")
    unmatched = sorted(set(before) ^ set(after))
    for key in unmatched:
        print(f"unpaired record: {key}")
    print(f"{changed} digest(s) changed")
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
