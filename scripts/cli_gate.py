"""Check that two checkouts of tbi give the same command-line results.

Usage, from the root of a checkout: python3 scripts/cli_gate.py OTHER_CHECKOUT

Runs a fixed corpus of argument lists through tbi.cli.main, once on this
checkout's src and once on OTHER_CHECKOUT's src (each in its own process), and
compares the stdout, stderr and exit code of every run.  The corpus: the
catalog and tests/support.py SMALL_MEMBERS documents under invariants (json
and table), validate and decompose; the bench/members.py GRID members at seed
1 under invariants (json and table; n up to 13, about 20 s per side and 400 MB
at the largest); Iwasawa with one pair of 'A' entries set to each of
EDGE_VALUES under invariants and group; the group ELEMENTS, the curve
CHERN_VECTORS and two sample runs; and invariants near the rank cuts, on
support.near_threshold_member at its own tol and, at every --tol of NEAR_TOLS,
on SMALL_MEMBERS and the points sample_point finds for four forms.

A differing run is float-only when its exit codes agree and its stdout and
stderr differ only in float values: the values under FLOAT_KEYS in JSON
(integral ones such as "scale": 2 too) and the e-notation numbers in text.  It
is printed with its largest relative change, any other differing run with its
argv and both checkouts' (stdout, stderr, exit).  The script exits 1 on any
difference and 0 when every run agrees.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EDGE_VALUES = {"int": 1, "float": 1.0, "fraction": 0.5, "nan": float("nan"), "inf": float("inf"),
               "1e300": 1e300, "10**400": 10 ** 400, "2**63": 2 ** 63, "2**63-1": 2 ** 63 - 1,
               "string": "1", "true": True, "2.0**63": 2.0 ** 63}
ELEMENTS = ("e1", "f2", "1,0/0,0,1,0", "-1,2/3,-4,5,-6", "9223372036854775807,0/1,0,0,0",
            "0,0/9223372036854775808,0,0,0", "e9", "1,2/3")
CHERN_VECTORS = ("2,-4", "0,0", "99999999999999999999,0", "1.5,2", "1,2,3")
NEAR_TOLS = ("1e-3", "0.05", "0.1", "0.2", "0.45")  # at 0.1, ten times a cut is the top
GRID = (("mixed", 4, 2, False), ("mixed", 7, 3, False), ("mixed", 8, 3, False),
        ("mixed", 10, 1, False), ("pure_hermitian", 10, 1, False), ("zero_hermitian", 9, 1, True),
        ("mixed", 12, 1, False), ("pure_hermitian", 12, 1, False))
FLOAT_KEYS = {"tol", "residual", "riemann_residual", "best_residual", "scale", "holomorphic",
              "hermitian", "antiholomorphic", "forbidden", "twist_residual", "smallest_kept",
              "largest_dropped", "threshold", "V", "U"}
E_NUMBER = re.compile(r"-?\d+(?:\.\d+)?e[-+]\d+")


def write_corpus(workdir) -> list:
    """Write the corpus documents into workdir and return the argv lists."""
    sys.path[:0] = [os.path.join(ROOT, folder) for folder in ("src", "tests", "bench")]
    import members as bench_members
    import numpy as np
    import support
    import tbi
    from tbi.catalog import CATALOG_NAMES

    def write(name, text):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as handle:
            handle.write(text)
        return path

    def document(datum, **extra):
        return tbi.dumps(tbi.input_document(datum.form, datum.base, datum.fibre, **extra))

    members = [(name, tbi.catalog_datum(name)) for name in CATALOG_NAMES]
    members += [(f"small.{kind}.{m}.{d}", support.small_member(kind, m, d))
                for kind, m, d in support.SMALL_MEMBERS]
    argvs = []
    for name, datum in members:
        path = write(name, document(datum))
        argvs += [["invariants", path], ["invariants", path, "--format", "table"],
                  ["validate", path], ["decompose", path]]
        if name.startswith("small."):
            argvs += [["invariants", path, "--tol", tol] for tol in NEAR_TOLS]

    near = support.near_threshold_member()
    paths = [write("near-threshold", document(near, tol=near.tol))]
    for kind, m, d, scrambled in GRID:
        slot = bench_members.Slot(f"grid.{kind}.{m}.{d}", kind, m, d, scrambled)
        paths.append(write(slot.name, document(bench_members.build_member(slot, 1).datum)))
    argvs += [argv for path in paths
              for argv in (["invariants", path], ["invariants", path, "--format", "table"])]
    rng = np.random.default_rng(7)
    forms = [tbi.iwasawa_form()] + [support.random_alternating_form(rng, 2, 1) for _ in range(3)]
    for number, form in enumerate(forms):
        for seed in (0, 1):
            result = tbi.sample_point(form, seed=seed, max_attempts=50)
            if result.found:
                path = write(f"sampled.{number}.{seed}",
                             tbi.dumps(tbi.input_document(form, result.base, result.fibre)))
                argvs += [["invariants", path, "--tol", tol] for tol in NEAR_TOLS]

    iwasawa = json.loads(document(tbi.iwasawa_datum()))
    edge_cases = [(label, value, 0) for label, value in EDGE_VALUES.items()]
    edge_cases.append(("2**63-1-beside-0.0", 2 ** 63 - 1, 0.0))
    for label, value, zero in edge_cases:
        doc = json.loads(json.dumps(iwasawa))
        negated = -value if isinstance(value, (int, float)) else value
        doc["A"][0][0][0] = zero
        doc["A"][0][0][1], doc["A"][0][1][0] = value, negated
        path = write(f"edge.{label}", json.dumps(doc))
        argvs += [["invariants", path], ["group", path, "e1", "e3"]]

    path = write("iwasawa.group", json.dumps(iwasawa))
    argvs += [["group", path, element, "e3"] for element in ELEMENTS]
    argvs += [["curve", "--genus", "2", "--fibre-dim", "1", "--chern", vector]
              for vector in CHERN_VECTORS]
    argvs += [["sample", path, "--count", "2", "--seed", "3"],
              ["sample", write("zero.3.1", tbi.dumps(tbi.input_document(tbi.product_form(3, 1)))),
               "--count", "2", "--max-attempts", "5"]]
    return argvs


def dump(argv_file):
    """One JSON line per argv: its stdout, stderr and exit code."""
    from tbi import cli
    with open(argv_file) as handle:
        argvs = json.load(handle)
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        print(json.dumps([out.getvalue(), err.getvalue(), code]), flush=True)


def run(checkout, argv_file):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", argv_file],
                         env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def cut_floats(result):
    """The (stdout, stderr, exit) result with each float value as '#', and the values."""
    values = []

    def cut(node, key):
        if isinstance(node, dict):
            return {k: cut(v, k) for k, v in node.items()}
        if isinstance(node, list):
            return [cut(v, key) for v in node]
        if key in FLOAT_KEYS and isinstance(node, (int, float)) and not isinstance(node, bool):
            values.append(node)
            return "#"
        return node

    def cut_text(text):
        with contextlib.suppress(ValueError):  # text that is no JSON document stays as it is
            text = json.dumps(cut(json.loads(text), None))
        values.extend(float(x) for x in E_NUMBER.findall(text))
        return E_NUMBER.sub("#", text)

    out, err, code = result
    return (cut_text(out), cut_text(err), code), values


def compare(other):
    with tempfile.TemporaryDirectory() as workdir:
        argvs = write_corpus(workdir)
        argv_file = os.path.join(workdir, "argv.json")
        with open(argv_file, "w") as handle:
            json.dump(argvs, handle)
        theirs, mine = run(other, argv_file), run(ROOT, argv_file)
        shown = [[os.path.basename(x) if x.startswith(workdir) else x for x in a] for a in argvs]
    differ = float_only = 0
    for argv, before, after in zip(shown, theirs, mine, strict=True):
        if before == after:
            continue
        differ += 1
        (skeleton, values), (skeleton_after, values_after) = cut_floats(before), cut_floats(after)
        if skeleton != skeleton_after:
            print(f"differs: {argv}\n  other: {before}\n  this:  {after}")
            continue
        float_only += 1
        change = max((abs(a - b) / max(abs(a), abs(b))
                      for a, b in zip(values, values_after) if a != b), default=0.0)
        print(f"float-only: {argv}: largest relative change {change:.3g}")
    if differ:
        print(f"{differ} of {len(argvs)} runs differ, {float_only} of them float-only")
        return 1
    print(f"{len(argvs)} runs: stdout, stderr and exit code equal")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 2:
        sys.exit(compare(os.path.abspath(sys.argv[1])))
    else:
        sys.exit(__doc__)
