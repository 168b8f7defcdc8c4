"""Compare the output digests recorded by two benchmark runs.

Usage: python3 perfbench/digests.py A.json B.json

A and B are records that ``run.py`` writes to ``.perfbench/results/``. Runs
of one workload with one seed issue the same argv sequence, so ops are
matched by key; a run that lasted longer simply has more ops. Every op
present in both must have the same argv and the same sha256 for each output
file. Exits 0 when they all match, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def op_digests(record: dict) -> dict:
    """Map (op key, traced) to (argv, {output role: sha256}) for the ops that succeeded."""
    return {(op["key"], op["traced"]): (op["argv"], op["sha256"])
            for op in record["ops"] if op["ok"]}


def compare(a: dict, b: dict) -> tuple[int, list[str]]:
    """Number of ops compared, and one line per difference."""
    problems = []
    for field in ("workload", "seed"):
        if a[field] != b[field]:
            problems.append(f"{field} differs: {a[field]!r} vs {b[field]!r}")
    da, db = op_digests(a), op_digests(b)
    common = sorted(set(da) & set(db))
    if not common:
        problems.append("no successful op in common")
    for key in common:
        (argv_a, sha_a), (argv_b, sha_b) = da[key], db[key]
        name = key[0] + (" (traced)" if key[1] else "")
        if argv_a != argv_b:
            problems.append(f"{name}: argv differs")
        for role in sorted(set(sha_a) | set(sha_b)):
            if sha_a.get(role) != sha_b.get(role):
                problems.append(f"{name}: {role} differs")
    return len(common), problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fa, open(argv[1], encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    n, problems = compare(a, b)
    for line in problems:
        print(line)
    print(f"{n} ops compared, {len(problems)} differences")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
