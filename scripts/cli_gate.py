"""Check that two checkouts of tbi give the same command-line results.

Usage, from the root of a checkout: python3 scripts/cli_gate.py OTHER_CHECKOUT

Runs a fixed corpus of argument lists through tbi.cli.main, once on this
checkout's src and once on OTHER_CHECKOUT's src (each in its own process), and
compares the stdout, stderr and exit code of every run.  The corpus: the
catalog and tests/support.py SMALL_MEMBERS documents under invariants (json
and table), validate and decompose; the bench/members.py GRID members at seed
1 under invariants (json and table); Iwasawa with one pair of 'A' entries set
to each of EDGE_VALUES under invariants and group; Iwasawa made not
alternating by each of SKEWED_ENTRIES under validate, invariants, group and
sample; the MALFORMED_JSON documents under validate and invariants; the group
ELEMENTS; group on a random (6,3) form, seeded by
GROUP_FORM_SEED, for one pair of elements of each GROUP_SPANS size (small, 2**33..2**40 whose products leave int64, and
past 2**63), which test group_multiply and group_inverse and each
operand's bound through the spot check's product chain (no command reaches
the closed-form tbi.commutator, whose tests are in tests/test_lattices.py);
the curve CHERN_VECTORS; sample on Iwasawa, also at each --tol of
SAMPLE_TOLS, on the zero (3,1) form, on two random (3,1) forms and on a random
(3,2) form, on Iwasawa and the second random (3,1) form at each --seed of
WIDE_SEEDS, and on the (3,2) form, on which every attempt fails, also with 600
attempts; invariants near the rank cuts, on support.near_threshold_member at
its own tol and, at every --tol of NEAR_TOLS, on SMALL_MEMBERS and the points
sample_point finds for four forms; the OVERFLOW_SCALES documents, whose split
overflows, under validate, decompose and invariants (json and table); a seeded
random document at (m, d) = LARGE, a size at which a term-by-term split takes
about a second, under validate and decompose; and catalog product at base
dimension 40.
An exception that escapes tbi.cli.main is recorded as the run's exit code.
After the corpus, each process runs every invariants argv a second time, and
that run's stdout must equal the first one's on the same checkout, so that
no state kept between calls can change a later report.  Each process
reports its peak resident set size (ru_maxrss), and both are printed, beside
the number of lines in each checkout's src/tbi/*.py.

A differing run is fields-only when its exit codes and stderr agree and its
JSON stdout is equal once the keys present on only one side are dropped; it is
printed with those keys.  It is float-only when its exit codes agree and its
stdout and stderr differ only in float values: the values under FLOAT_KEYS in
JSON (integral ones such as "scale": 2 too) and the e-notation numbers in text.
It is printed with its largest relative change, any other differing run with
its argv and both checkouts' (stdout, stderr, exit).  The script exits 1 on any
difference and 0 when every run agrees.
"""

import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EDGE_VALUES = {"int": 1, "float": 1.0, "fraction": 0.5, "nan": float("nan"), "inf": float("inf"),
               "1e300": 1e300, "10**400": 10 ** 400, "2**63": 2 ** 63, "2**63-1": 2 ** 63 - 1,
               "string": "1", "true": True, "2.0**63": 2.0 ** 63}
ELEMENTS = ("e1", "f2", "1,0/0,0,1,0", "-1,2/3,-4,5,-6", "9223372036854775807,0/1,0,0,0",
            "0,0/9223372036854775808,0,0,0", "e9", "1,2/3")
SKEWED_ENTRIES = {  # 'A' entries set on Iwasawa to make it not alternating
    "diagonal": [((0, 0, 0), 1)],
    "symmetric": [((0, 0, 1), 1), ((0, 1, 0), 1)],
    "int64-min": [((0, 0, 1), -2 ** 63), ((0, 1, 0), -2 ** 63)],
}
MALFORMED_JSON = {  # past the JSON decoder's limits: nesting depth, int() digits
    "deep": '{"m": 1, "d": 1, "A": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "long-integer": '{"m": 1, "d": 1, "A": [[[0, %s], [0, 0]], [[0, 0], [0, 0]]]}' % ("1" * 5000),
}
GROUP_FORM_SEED = 63  # a random (6,3) form, the shape of the benchmark's second group form
GROUP_SPANS = ((0, 1001), (2 ** 33, 2 ** 40), (2 ** 63, 2 ** 63 + 2 ** 40))  # |coordinate|
CHERN_VECTORS = ("2,-4", "0,0", "99999999999999999999,0", "1.5,2", "1,2,3")
NEAR_TOLS = ("1e-3", "0.05", "0.1", "0.2", "0.45")  # at 0.1, ten times a cut is the top
OVERFLOW_SCALES = (("iwasawa", 1e308, 1.0), ("small.mixed.2.1", 1e100, 1e-150))  # of V, of U
LARGE = (30, 2)
SAMPLE_TOLS = ("1e-300", "0.5", "10")  # sample on Iwasawa: tol tiny, middling and past 1
SAMPLE_FORMS_SEED = 31  # two random (3,1) forms, then a (3,2) form that no attempt solves
WIDE_SEEDS = ("4294967296", "18446744073709551617")  # 2**32 and 2**64 + 1: 2 and 3 seed words
GRID = (("mixed", 4, 2, False), ("mixed", 7, 3, False), ("mixed", 8, 3, False),
        ("mixed", 10, 1, False), ("pure_hermitian", 10, 1, False), ("zero_hermitian", 9, 1, True),
        ("mixed", 12, 1, False), ("pure_hermitian", 12, 1, False),
        ("pure_hermitian", 6, 3, False), ("pure_hermitian", 14, 1, False))
FLOAT_KEYS = {"tol", "residual", "riemann_residual", "best_residual", "scale", "holomorphic",
              "hermitian", "antiholomorphic", "forbidden", "smallest_kept",
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
    for label, entries in SKEWED_ENTRIES.items():
        doc = json.loads(json.dumps(iwasawa))
        for (k, i, j), value in entries:
            doc["A"][k][i][j] = value
        path = write(f"skewed.{label}", json.dumps(doc))
        argvs += [["validate", path], ["invariants", path], ["group", path, "e1", "e3"],
                  ["sample", path]]
    for name, text in MALFORMED_JSON.items():
        path = write(f"malformed.{name}", text)
        argvs += [["validate", path], ["invariants", path]]

    datums = dict(members)
    for name, scale_base, scale_fibre in OVERFLOW_SCALES:
        datum = datums[name]
        path = write(f"overflow.{name}", tbi.dumps(tbi.input_document(
            datum.form, tbi.ComplexStructure(datum.base.period * scale_base),
            tbi.ComplexStructure(datum.fibre.period * scale_fibre))))
        argvs += [["validate", path], ["decompose", path], ["invariants", path],
                  ["invariants", path, "--format", "table"]]
    rng = np.random.default_rng(LARGE)
    path = write("random.large", tbi.dumps(tbi.input_document(
        support.random_alternating_form(rng, *LARGE), tbi.random_structure(LARGE[0], rng),
        tbi.random_structure(LARGE[1], rng))))
    argvs += [["validate", path], ["decompose", path]]
    argvs.append(["catalog", "product", "--base-dim", "40"])

    path = write("iwasawa.group", json.dumps(iwasawa))
    argvs += [["group", path, element, "e3"] for element in ELEMENTS]
    rng = np.random.default_rng(GROUP_FORM_SEED)
    form = support.random_alternating_form(rng, 6, 3)
    group_path = write("random.6.3", tbi.dumps(tbi.input_document(form)))
    for low, high in GROUP_SPANS:
        elements = []
        for _ in range(2):
            entries = [(low + int(rng.integers(high - low))) * int(rng.choice([-1, 1]))
                       for _ in range(form.fibre_rank + form.base_rank)]
            elements.append(",".join(map(str, entries[:form.fibre_rank])) + "/"
                            + ",".join(map(str, entries[form.fibre_rank:])))
        argvs.append(["group", group_path, *elements])
    argvs += [["curve", "--genus", "2", "--fibre-dim", "1", "--chern", vector]
              for vector in CHERN_VECTORS]
    argvs += [["sample", path, "--count", "2", "--seed", "3"],
              ["sample", write("zero.3.1", tbi.dumps(tbi.input_document(tbi.product_form(3, 1)))),
               "--count", "2", "--max-attempts", "5"]]
    argvs += [["sample", path, "--count", "3", "--tol", tol] for tol in SAMPLE_TOLS]
    rng = np.random.default_rng(SAMPLE_FORMS_SEED)
    for number in range(2):
        form = support.random_alternating_form(rng, 3, 1)
        form_path = write(f"random.3.1.{number}", tbi.dumps(tbi.input_document(form)))
        argvs.append(["sample", form_path, "--count", "3"])
    argvs += [["sample", sample_path, "--count", "2", "--seed", seed]
              for seed in WIDE_SEEDS for sample_path in (path, form_path)]
    hopeless = write("random.3.2", tbi.dumps(tbi.input_document(
        support.random_alternating_form(rng, 3, 2))))
    argvs += [["sample", hopeless, "--count", "3"],
              ["sample", hopeless, "--count", "1", "--max-attempts", "600"]]
    return argvs


def dump(argv_file):
    """One JSON line per argv: its stdout, stderr and exit code; then one
    line with the process's peak resident set size in MB."""
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
            except Exception as exc:  # a traceback on the command line
                code = repr(exc)
        print(json.dumps([out.getvalue(), err.getvalue(), code]), flush=True)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)  # Linux reports KiB


def run(checkout, argv_file):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", argv_file],
                         env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    *results, peak_mb = (json.loads(line) for line in out.splitlines())
    return results, peak_mb


def source_lines(checkout):
    """The number of lines in the checkout's src/tbi/*.py, as wc -l counts them."""
    package = os.path.join(checkout, "src", "tbi")
    total = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                total += handle.read().count(b"\n")
    return total


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


def one_sided_keys(result, result_after):
    """(removed, added) key paths, as "section.key", when the two results are
    equal once the JSON keys present on only one side are dropped, else None."""
    (out, err, code), (out_after, err_after, code_after) = result, result_after
    if (err, code) != (err_after, code_after):
        return None
    try:
        old, new = json.loads(out), json.loads(out_after)
    except ValueError:
        return None
    removed, added = [], []

    def common(old, new, path):
        if isinstance(old, dict) and isinstance(new, dict):
            removed.extend(path + key for key in old if key not in new)
            added.extend(path + key for key in new if key not in old)
            pairs = {key: common(old[key], new[key], f"{path}{key}.") for key in old if key in new}
            return ({key: a for key, (a, _) in pairs.items()},
                    {key: b for key, (_, b) in pairs.items()})
        if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            pairs = [common(a, b, path) for a, b in zip(old, new)]
            return [a for a, _ in pairs], [b for _, b in pairs]
        return old, new

    old, new = common(old, new, "")
    return (list(dict.fromkeys(removed)), list(dict.fromkeys(added))) if old == new else None


def compare(other):
    with tempfile.TemporaryDirectory() as workdir:
        argvs = write_corpus(workdir)
        again = [index for index, argv in enumerate(argvs) if argv[0] == "invariants"]
        argv_file = os.path.join(workdir, "argv.json")
        with open(argv_file, "w") as handle:
            json.dump(argvs + [argvs[index] for index in again], handle)
        (theirs, their_peak), (mine, my_peak) = run(other, argv_file), run(ROOT, argv_file)
        shown = [[os.path.basename(x) if x.startswith(workdir) else x for x in a] for a in argvs]
    print(f"peak RSS: other {their_peak:.0f} MB, this {my_peak:.0f} MB; "
          f"src/tbi lines: other {source_lines(other)}, this {source_lines(ROOT)}")
    leaks = 0
    for side, results in (("other", theirs), ("this", mine)):
        for index, repeat in zip(again, results[len(argvs):], strict=True):
            if repeat[0] != results[index][0]:
                leaks += 1
                print(f"second run differs on {side}: {shown[index]}\n"
                      f"  first:  {results[index]}\n  second: {repeat}")
    theirs, mine = theirs[:len(argvs)], mine[:len(argvs)]
    differ = float_only = fields_only = 0
    for argv, before, after in zip(shown, theirs, mine, strict=True):
        if before == after:
            continue
        differ += 1
        keys = one_sided_keys(before, after)
        if keys is not None:
            fields_only += 1
            removed, added = keys
            print(f"fields only: {argv}: removed {removed}" + (f", added {added}" if added else ""))
            continue
        (skeleton, values), (skeleton_after, values_after) = cut_floats(before), cut_floats(after)
        if skeleton != skeleton_after:
            print(f"differs: {argv}\n  other: {before}\n  this:  {after}")
            continue
        float_only += 1
        change = max((abs(a - b) / max(abs(a), abs(b))
                      for a, b in zip(values, values_after) if a != b), default=0.0)
        print(f"float-only: {argv}: largest relative change {change:.3g}")
    if leaks:
        print(f"{leaks} of {2 * len(again)} second invariants runs differ from the first")
    if differ:
        print(f"{differ} of {len(argvs)} runs differ, {fields_only} of them fields-only "
              f"and {float_only} float-only")
    if leaks or differ:
        return 1
    print(f"{len(argvs)} runs: stdout, stderr and exit code equal; "
          f"{len(again)} invariants runs repeated in each process, stdout equal")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 2:
        sys.exit(compare(os.path.abspath(sys.argv[1])))
    else:
        sys.exit(__doc__)
