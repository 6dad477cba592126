"""Check that two checkouts of tbi compute the same cohomology tables.

Usage, from the root of a checkout::

    python3 scripts/table_gate.py OTHER_CHECKOUT

Runs bundle_report, once on this checkout's src and once on OTHER_CHECKOUT's
src (each in its own process), over the catalog documents, the test suite's
SMALL_MEMBERS, the six tables-large members with seed 1 and the mixed and
pure-hermitian (12,1) members.  The members are built by this checkout's
tests/support.py and bench/members.py for both runs.  Every (label, rank,
near) sequence, e3, h_structure and h_tangent must be equal; the script prints
the first difference and exits 1 otherwise.  For each float field (the
smallest_kept, largest_dropped and threshold of the rank decisions, and
twist_residual) it prints how many values moved and the largest relative
change.  It also prints, per member, the seconds of one bundle_report call on
OTHER_CHECKOUT and on this checkout, each the median of 3 calls in that
side's own process.  The (12,1) members take a few seconds per call and
about 400 MB each.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOAT_FIELDS = ("smallest_kept", "largest_dropped", "threshold")


def members():
    """(name, datum) for every gated member, in a fixed order."""
    import members as bench_members
    import support
    import tbi
    from tbi.catalog import CATALOG_NAMES

    yield from ((name, tbi.catalog_datum(name)) for name in CATALOG_NAMES)
    for kind, m, d in support.SMALL_MEMBERS:
        yield f"small.{kind}.{m}.{d}", support.small_member(kind, m, d)
    slots = [bench_members.Slot(f"grid.{kind}.{m}.{d}", kind, m, d, scrambled)
             for kind, m, d, scrambled in (
                 ("mixed", 4, 2, False), ("mixed", 7, 3, False), ("mixed", 8, 3, False),
                 ("mixed", 10, 1, False), ("pure_hermitian", 10, 1, False),
                 ("zero_hermitian", 9, 1, True), ("mixed", 12, 1, False),
                 ("pure_hermitian", 12, 1, False))]
    for slot in slots:
        yield slot.name, bench_members.build_member(slot, 1).datum


def dump():
    """One JSON line per member: its discrete facts, its float fields and the
    median seconds of 3 bundle_report calls."""
    import tbi

    for name, datum in members():
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            report = tbi.bundle_report(datum)
            seconds.append(time.perf_counter() - start)
        print(json.dumps({
            "name": name,
            "seconds": statistics.median(seconds),
            "facts": {
                "decisions": [[x.label, x.rank, x.near] for x in report.decisions],
                "e3": report.e3.tolist(),
                "h_structure": list(report.h_structure),
                "h_tangent": list(report.h_tangent),
            },
            "floats": {
                "twist_residual": [report.twist_residual],
                **{field: [getattr(x, field) for x in report.decisions]
                   for field in FLOAT_FIELDS},
            },
        }), flush=True)


def run(checkout):
    paths = [os.path.join(checkout, "src"), os.path.join(ROOT, "tests"),
             os.path.join(ROOT, "bench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump"], env=env,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def relative_change(a, b):
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def compare(other):
    mine, theirs = run(ROOT), run(other)
    changes = {}  # float field -> [(relative change, member)]
    for a, b in zip(mine, theirs, strict=True):
        if a["name"] != b["name"] or a["facts"] != b["facts"]:
            print(f"differs: {a['name']}")
            for key in a["facts"]:
                if a["facts"][key] != b["facts"].get(key):
                    print(f"  {key}: {b['facts'].get(key)} -> {a['facts'][key]}")
            return 1
        for field, values in a["floats"].items():
            changes.setdefault(field, []).extend(
                (relative_change(x, y), a["name"]) for x, y in zip(values, b["floats"][field]))
    print(f"{len(mine)} members: every (label, rank, near), e3, h_structure and "
          "h_tangent equal")
    print("bundle_report seconds, median of 3 (other -> this checkout):")
    for a, b in zip(mine, theirs):
        print(f"  {a['name']}: {b['seconds']:.4f} -> {a['seconds']:.4f}")
    print("float fields:")
    for field, moved in changes.items():
        largest, where = max(moved)
        count = sum(change > 0 for change, _ in moved)
        print(f"  {field}: {count} value(s) moved, largest relative change {largest:.3g}"
              + (f" ({where})" if count else ""))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    elif len(sys.argv) == 2:
        sys.exit(compare(os.path.abspath(sys.argv[1])))
    else:
        sys.exit(__doc__)
