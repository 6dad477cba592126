"""Check that two checkouts of tbi give the same command-line results.

Usage, from the root of a checkout::

    python3 scripts/cli_gate.py OTHER_CHECKOUT

Runs a fixed corpus of argument lists through tbi.cli.main, once on this
checkout's src and once on OTHER_CHECKOUT's src (each in its own process), and
compares the stdout, stderr and exit code of every run.  The corpus:

- the catalog documents and the test suite's SMALL_MEMBERS documents under
  invariants (json and table), validate and decompose;
- Iwasawa documents with one pair of 'A' entries replaced by an integer edge
  case (1, 1.0, 0.5, NaN, inf, 1e300, 10**400, 2**63, 2**63 - 1 beside 0 and
  beside 0.0, "1", true, 2.0**63), under invariants and group;
- eight group-element spellings on Iwasawa, five curve --chern vectors and two
  sample runs.

The documents are written once, by this checkout's tbi and tests/support.py,
into a temporary directory that both runs read.  Every differing run is
printed as its argv and the (stdout, stderr, exit) of OTHER_CHECKOUT and of
this checkout, and the script exits 1; otherwise it prints the number of runs
that agree.  The whole corpus takes a few seconds per side.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EDGE_VALUES = {
    "int": 1, "float": 1.0, "fraction": 0.5, "nan": float("nan"), "inf": float("inf"),
    "1e300": 1e300, "10**400": 10 ** 400, "2**63": 2 ** 63, "2**63-1": 2 ** 63 - 1,
    "string": "1", "true": True, "2.0**63": 2.0 ** 63,
}
ELEMENTS = ("e1", "f2", "1,0/0,0,1,0", "-1,2/3,-4,5,-6", "9223372036854775807,0/1,0,0,0",
            "0,0/9223372036854775808,0,0,0", "e9", "1,2/3")
CHERN_VECTORS = ("2,-4", "0,0", "99999999999999999999,0", "1.5,2", "1,2,3")


def write_corpus(workdir) -> list:
    """Write the corpus documents into workdir and return the argv lists."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import support
    import tbi
    from tbi.catalog import CATALOG_NAMES

    def write(name, doc):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as handle:
            handle.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def document(datum):
        return tbi.dumps(tbi.input_document(datum.form, datum.base, datum.fibre))

    members = [(name, tbi.catalog_datum(name)) for name in CATALOG_NAMES]
    members += [(f"small.{kind}.{m}.{d}", support.small_member(kind, m, d))
                for kind, m, d in support.SMALL_MEMBERS]
    argvs = []
    for name, datum in members:
        path = write(name, document(datum))
        argvs += [["invariants", path], ["invariants", path, "--format", "table"],
                  ["validate", path], ["decompose", path]]

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


def compare(other):
    with tempfile.TemporaryDirectory() as workdir:
        argvs = write_corpus(workdir)
        argv_file = os.path.join(workdir, "argv.json")
        with open(argv_file, "w") as handle:
            json.dump(argvs, handle)
        theirs, mine = run(other, argv_file), run(ROOT, argv_file)
        differ = 0
        for argv, before, after in zip(argvs, theirs, mine, strict=True):
            if before != after:
                differ += 1
                shown = [os.path.basename(x) if x.startswith(workdir) else x for x in argv]
                print(f"differs: {shown}\n  other: {before}\n  this:  {after}")
    if differ:
        print(f"{differ} of {len(argvs)} runs differ")
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
