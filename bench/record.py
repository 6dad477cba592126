"""Record the integer invariants every corpus slot must reproduce.

Run once, at the commit that defines the benchmark, from the root of a
checkout::

    PYTHONPATH=src python3 bench/record.py [--seeds 3]

It computes every cli-small and tables-large slot in-process and writes
``bench/expected.json``.  A slot's values must not depend on the workload
seed (members.py moves only the lattice basis with the seed), so each slot is
computed for several seeds and the script fails if they disagree.
"""

import argparse
import json
import os
import sys

import tbi

import check
import members as M
import workloads


def facts_of(datum):
    report = tbi.bundle_report(datum)
    return check.report_facts(report, datum.base.half_rank, datum.fibre.half_rank,
                              datum.membership.member)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()
    expected = {slot: facts_of(datum) for slot, _, datum in workloads.fixed_data()}
    for slot in workloads.CLI_SLOTS + workloads.GRID_SLOTS:
        seen = [facts_of(M.build_member(slot, seed).datum) for seed in range(args.seeds)]
        if any(facts != seen[0] for facts in seen):
            sys.exit(f"{slot.name}: invariants depend on the seed")
        expected[slot.name] = seen[0]
        print(slot.name, seen[0]["h_structure"], seen[0]["h_tangent"], flush=True)
    for slot, want in expected.items():
        problems = check.check_facts(slot, want, expected)
        if problems:
            sys.exit("\n".join(problems))
    with open(check.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
