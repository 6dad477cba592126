"""The three workloads: seeded inputs, one closed-loop pass, and its checks.

Each workload is a closed loop with one client: the next call is made only
after the last one has returned.  ``setup`` makes every input from the
workload seed (the program only ever sees the generated documents and data)
and validates it; ``run_pass`` makes one pass over those inputs and checks
every output.  Only the calls themselves are timed, never the checking.

cli-small
    About ten small documents through ``tbi invariants``: as fresh
    ``python -m tbi`` processes (cold, mostly import) and through
    ``tbi.cli.main`` in this process (warm).
tables-large
    ``tbi.bundle_report`` on a seeded grid that reaches n = m + d = 11, with
    mixed, pure-hermitian and zero-hermitian members.  Each pass builds a
    fresh ``BundleDatum``, so no cached split survives between passes.
sample-group
    ``tbi sample`` requests through ``tbi.cli.main`` on forms from always
    solvable to never solvable, then the group law on seeded element pairs,
    one pair in eight with coordinates near 2^33..2^40 whose products
    overflow int64.
"""

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import tbi
import tbi.cli

import check
import members as M

CLI_SLOTS = (
    M.Slot("cli.mixed.2.1", M.MIXED, 2, 1),
    M.Slot("cli.mixed.3.1", M.MIXED, 3, 1),
    M.Slot("cli.mixed.3.2", M.MIXED, 3, 2),
    M.Slot("cli.mixed.4.1", M.MIXED, 4, 1),
    M.Slot("cli.mixed.4.2", M.MIXED, 4, 2),
)
# Stops at n = 11: (12, 1) alone costs several times a whole pass.
GRID_SLOTS = (
    M.Slot("grid.mixed.4.2", M.MIXED, 4, 2),
    M.Slot("grid.mixed.7.3", M.MIXED, 7, 3),
    M.Slot("grid.mixed.8.3", M.MIXED, 8, 3),
    M.Slot("grid.mixed.10.1", M.MIXED, 10, 1),
    M.Slot("grid.pure_hermitian.10.1", M.PURE_HERMITIAN, 10, 1),
    M.Slot("grid.zero_hermitian.9.1", M.ZERO_HERMITIAN, 9, 1, scrambled=True),
)
SAMPLE_COUNT = 2  # points per request: two pool threads, at most nproc here
MAX_ATTEMPTS = 100
SEARCHES = 16  # random (3, 1) forms a pass, each failing all its attempts
PAIRS_PER_FORM = 128
OVERFLOW_EVERY = 8  # one pair in eight uses coordinates near 2^33..2^40


def fixed_data():
    """Corpus entries that do not depend on the seed: (slot, kind, datum)."""
    kodaira = tbi.BundleDatum.checked(
        tbi.ExtensionForm(np.array([[[0, 0], [0, 0]], [[0, 1], [-1, 0]]])),
        tbi.ComplexStructure(np.array([[1.0], [-1j]])),
        tbi.ComplexStructure(np.array([[2j], [1.0]])))
    return [("iwasawa", M.ZERO_HERMITIAN, tbi.iwasawa_datum()),
            ("product.3.2", "abelian", tbi.product_datum(3, 2)),
            ("kodaira", M.PURE_HERMITIAN, kodaira)]


@dataclass
class Doc:
    slot: str
    kind: str
    path: str
    table: bool
    datum: tbi.BundleDatum

    @property
    def argv(self):
        return ["invariants", self.path] + (["--format", "table"] if self.table else [])


@dataclass
class SampleRequest:
    label: str
    path: str
    form: tbi.ExtensionForm
    seed: int
    must_find: bool
    first_output: str | None = None

    @property
    def argv(self):
        return ["sample", self.path, "--seed", str(self.seed), "--count", str(SAMPLE_COUNT),
                "--max-attempts", str(MAX_ATTEMPTS)]


@dataclass
class Pair:
    form: tbi.ExtensionForm
    g1: tbi.GroupElement
    g2: tbi.GroupElement
    expected: tuple  # Python-int (fibre, base) for multiply, inverse, commutator
    overflow: bool


@dataclass
class PassResult:
    seconds: float = 0.0  # calibrated when a clock is given, else raw
    raw_seconds: float = 0.0
    requests: int = 0
    latencies: list = field(default_factory=list)  # per request, seconds
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)  # failures outside known defects
    sample_seconds: float = 0.0
    group_seconds: float = 0.0
    group_ops: int = 0
    group_failed: int = 0

    def count(self, problems, known_defect=False):
        self.attempted += 1
        if problems:
            self.failed += 1
            if not known_defect:
                self.unexpected.extend(problems)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def run_cli(argv):
    """tbi.cli.main in this process, looked up at call time so a tracer's
    wrapper is used; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tbi.cli.main(argv)
    return code, out.getvalue()


def doc_problems(doc, code, text, expected):
    if code != 0:
        return [f"{doc.slot}: exit code {code}"]
    try:
        facts = check.table_facts(text) if doc.table else check.json_facts(text)
    except (ValueError, KeyError) as exc:
        return [f"{doc.slot}: unreadable output ({exc})"]
    return check.check_facts(doc.slot, facts, expected)


# ---------------------------------------------------------------------------
# Set-up


def setup(workload, seed, workdir):
    """Generate and validate every input of the workload; returns its state."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "cli-small":
        return _setup_cli(seed, workdir)
    if workload == "tables-large":
        return [M.build_member(slot, seed) for slot in GRID_SLOTS]
    return _setup_sample_group(seed, workdir)


def _setup_cli(seed, workdir):
    entries = fixed_data()
    for slot in CLI_SLOTS:
        entries.append((slot.name, slot.kind, M.build_member(slot, seed).datum))
    docs = []
    for slot, kind, datum in entries:
        path = os.path.join(workdir, f"{slot}.json")
        _write(path, tbi.dumps(tbi.input_document(datum.form, datum.base, datum.fibre)))
        docs.append(Doc(slot, kind, path, False, datum))
    by_slot = {doc.slot: doc for doc in docs}
    for slot in ("iwasawa", "cli.mixed.3.2"):
        base = by_slot[slot]
        docs.append(Doc(slot, base.kind, base.path, True, base.datum))
    return docs


def _setup_sample_group(seed, workdir):
    rng = np.random.default_rng([seed, 7])
    forms = [("iwasawa", tbi.iwasawa_form(), True),
             ("zero.3.1", tbi.product_form(3, 1), True)]
    # Four requests that succeed at once (a few ms, mostly argument parsing
    # and the pool's thread start-up) and many searches that fail all their
    # attempts.  The searches' cost varies from form to form, so there are
    # enough of them that a pass's cost hardly depends on the seed, and the
    # pooled p50 and p90 fall well inside their times rather than on the quick
    # requests, whose thread hand-offs move with the load on a shared host.
    forms += [(f"random.2.1.{k}", M.random_form(rng, 2, 1), False) for k in range(2)]
    forms += [(f"random.3.1.{k}", M.random_form(rng, 3, 1), False)
              for k in range(SEARCHES)]
    requests = []
    for label, form, must_find in forms:
        if tbi.validate_form(form):
            raise ValueError(f"generated form {label} is not alternating")
        path = os.path.join(workdir, f"sample.{label}.json")
        _write(path, tbi.dumps(tbi.input_document(form)))
        requests.append(SampleRequest(label, path, form, int(rng.integers(2 ** 31)), must_find))
    pairs = []
    for form in (tbi.iwasawa_form(), M.random_form(rng, 6, 3)):
        pairs += [_make_pair(rng, form, k % OVERFLOW_EVERY == OVERFLOW_EVERY - 1)
                  for k in range(PAIRS_PER_FORM)]
    return requests, pairs


def _make_pair(rng, form, overflow):
    """A pair whose three reference results all fit int64, or (overflow) all
    lie outside it; redrawn until that holds, so the overflow share is exact."""
    coefficients = form.coefficients.tolist()
    while True:
        if overflow:
            size = form.fibre_rank + form.base_rank
            parts = [[int(x) for x in rng.integers(2 ** 33, 2 ** 40, size=size)
                      * rng.choice([-1, 1], size=size)] for _ in range(2)]
        else:
            parts = [[int(x) for x in rng.integers(-1000, 1001, size=form.fibre_rank
                                                    + form.base_rank)] for _ in range(2)]
        a, b = [(p[:form.fibre_rank], p[form.fibre_rank:]) for p in parts]
        expected = (check.ref_multiply(coefficients, a, b), check.ref_inverse(coefficients, a),
                    check.ref_commutator(coefficients, a, b))
        fits = [check.fits_int64(e) for e in expected]
        if (not overflow and all(fits)) or (overflow and not any(fits)):
            return Pair(form, tbi.GroupElement(*a), tbi.GroupElement(*b), expected, overflow)


# ---------------------------------------------------------------------------
# Passes


def warm_up(workload, state, expected):
    """One untimed pass (on tables-large, over its smallest member only), so
    lazy BLAS set-up (about a second on the first large complex SVD) is not
    charged to the first timed call."""
    np.linalg.svd(np.ones((256, 256), dtype=complex))
    if workload == "tables-large":
        run_pass(workload, state[:1], expected)
    else:
        run_pass(workload, state, expected)


def run_pass(workload, state, expected, tracer=None, clock=None, request_clock=None):
    """One pass over the workload's inputs.  With a clock, a calibration
    probe runs before every timed request and times are calibrated.  On
    sample-group the ``tbi sample`` requests use request_clock, when given,
    and the group operations use clock."""
    result = PassResult()
    if workload == "cli-small":
        for doc in state:
            _tag(tracer, doc.slot, doc.kind)
            _probe(clock)
            start = time.perf_counter()
            try:
                code, text = run_cli(doc.argv)
            except Exception as exc:  # an operation that raises is a failure
                code, text = f"raised {exc!r}", ""
            _timed(result, start, clock)
            result.count(doc_problems(doc, code, text, expected))
    elif workload == "tables-large":
        for member in state:
            datum = member.datum
            _tag(tracer, member.slot, member.slot.split(".")[1])
            _probe(clock)
            start = time.perf_counter()
            try:
                fresh = tbi.BundleDatum(datum.form, datum.base, datum.fibre, tol=datum.tol)
                report = tbi.bundle_report(fresh)
            except Exception as exc:
                _timed(result, start, clock)
                result.count([f"{member.slot}: raised {exc!r}"])
                continue
            _timed(result, start, clock)
            facts = check.report_facts(report, datum.base.half_rank, datum.fibre.half_rank,
                                       fresh.membership.member)
            result.count(check.check_facts(member.slot, facts, expected))
    else:
        _sample_group_pass(state, result, tracer, clock, request_clock or clock)
    return result


def _sample_group_pass(state, result, tracer, clock, request_clock):
    requests, pairs = state
    for request in requests:
        _tag(tracer, f"sample.{request.label}", None)
        _probe(request_clock)
        start = time.perf_counter()
        try:
            code, text = run_cli(request.argv)
        except Exception as exc:
            code, text = f"raised {exc!r}", ""
        elapsed = _timed(result, start, request_clock)
        result.sample_seconds += elapsed
        if code != 0:
            result.count([f"sample {request.label}: exit code {code}"])
            continue
        problems = check.check_sample_output(text, request.form, SAMPLE_COUNT,
                                             MAX_ATTEMPTS, request.must_find)
        if request.first_output is None:
            request.first_output = text
        elif text != request.first_output:
            problems.append(f"sample {request.label}: output differs between passes")
        result.count(problems)
    _tag(tracer, "group", None)
    for index, pair in enumerate(pairs):
        if index % 32 == 0:
            _probe(clock)
        start = time.perf_counter()
        outputs = (_attempt(tbi.group_multiply, pair.form, pair.g1, pair.g2),
                   _attempt(tbi.group_inverse, pair.form, pair.g1),
                   _attempt(tbi.commutator, pair.form, pair.g1, pair.g2))
        raw = time.perf_counter() - start
        elapsed = clock.scale(raw) if clock else raw
        result.group_seconds += elapsed
        result.raw_seconds += raw
        result.seconds += elapsed
        for name, output, want in zip(("multiply", "inverse", "commutator"),
                                      outputs, pair.expected):
            result.group_ops += 1
            if isinstance(output, Exception):
                problems = [f"group {name}: raised {output!r}"]
            elif (output.fibre.tolist(), output.base.tolist()) != (want[0], want[1]):
                problems = [f"group {name}: {output.fibre.tolist()} != {want[0]}"]
            else:
                problems = []
            result.group_failed += bool(problems)
            result.count(problems, known_defect=pair.overflow)


def _attempt(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # an operation that raises is a failure
        return exc


def _probe(clock):
    if clock is not None:
        clock.probe()


def _timed(result, start, clock):
    raw = time.perf_counter() - start
    elapsed = clock.scale(raw) if clock else raw
    result.raw_seconds += raw
    result.seconds += elapsed
    result.latencies.append(elapsed)
    result.requests += 1
    return elapsed


def _tag(tracer, doc, kind):
    if tracer is not None:
        tracer.tag = {"doc": doc, "class": kind}


# ---------------------------------------------------------------------------
# Cold processes


def cold_call(root, doc, expected, clock, probe=True):
    """One fresh ``python -m tbi invariants`` process, timed right after a
    calibration probe when probe is true; (raw seconds, calibrated seconds,
    problems)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if probe:
        clock.probe()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tbi"] + doc.argv, cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    raw = time.perf_counter() - start
    return raw, clock.scale(raw), doc_problems(doc, proc.returncode, proc.stdout, expected)
