"""Per-layer metrics from the traced run's spans.

Counts and times are normalised per pass (``passes`` traced passes over the
same inputs), so a count repeats exactly from run to run; ``*_ms``/``*_us``/
``*_s`` metrics named after one function are mean wall time per call of that
function.  A layer that the workload does not reach reports 0.
"""

import re
import statistics
import subprocess
import sys
from collections import defaultdict

from tracer import LAYERS, self_times, svd_flops

CLASSES = ("mixed", "pure_hermitian", "zero_hermitian", "abelian")
GROUP_OPS = ("group_multiply", "group_inverse", "commutator")
FORMS = ("h0_forms", "closed_forms_dim", "h1_structure_sheaf")

OBSERVERS = {
    "dumps": lambda text: {"out_bytes": len(text.encode())},
    "sample_point": lambda result: {"attempts": result.attempts, "found": int(result.found)},
}

# name -> (unit, better); the order here is the order of BENCHMARK.json.
PER_LAYER = {
    "cli.import_ms": ("ms", "lower"),
    "cli.import_numpy_ms": ("ms", "lower"),
    "cli.main_self_ms": ("ms", "lower"),
    "serialize.parse_input_ms": ("ms", "lower"),
    "serialize.dumps_ms": ("ms", "lower"),
    "serialize.out_bytes": ("bytes", "lower"),
    "lattices.validate_form_ms": ("ms", "lower"),
    "lattices.group_op_us": ("us", "lower"),
    "periods.random_structure_us": ("us", "lower"),
    "periods.validate_structure.calls": ("count", "lower"),
    "decomposition.decompose_ms": ("ms", "lower"),
    "decomposition.riemann_check_us": ("us", "lower"),
    "decomposition.riemann_check.calls": ("count", "lower"),
    "variety.sample_point_ms": ("ms", "lower"),
    "variety.attempts": ("count", "lower"),
    "variety.found_per_attempt": ("ratio", "higher"),
    "cohomology.forms_ms": ("ms", "lower"),
    **{f"cohomology.{table}_s.{kind}": ("s", "lower")
       for table in ("leray_table", "tangent_table") for kind in CLASSES},
    "cohomology.leray_table.calls_per_doc": ("count", "lower"),
    "cohomology.numerical_rank.calls": ("count", "lower"),
    "cohomology.svd.calls": ("count", "lower"),
    "cohomology.svd_s": ("s", "lower"),
    "cohomology.svd_flops_computed": ("flop", "lower"),
    "cohomology.alloc_peak_mb": ("MB", "lower"),
    **{f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS},
    "trace.overhead_pass_s": ("s", "lower"),
    "trace.overhead_requests_per_s": ("1/s", "higher"),
}


def _mean(values, scale=1.0):
    return scale * sum(values) / len(values) if values else 0.0


def span_metrics(spans, passes):
    """Every per-layer metric derivable from spans, keyed as in PER_LAYER."""
    selfs = self_times(spans)
    by_id = {s.ident: s for s in spans}
    calls = defaultdict(list)
    for s in spans:
        calls[s.name].append(s)

    def durations(name, kind=None):
        return [s.end - s.start for s in calls[name]
                if kind is None or s.attrs.get("class") == kind]

    def layer_of(span):
        while span is not None and span.layer is None:
            span = by_id.get(span.parent)
        return span.layer if span is not None else None

    out = {
        "cli.main_self_ms": _mean([selfs[s.ident] for s in calls["main"]], 1e3),
        "serialize.parse_input_ms": _mean(durations("parse_input"), 1e3),
        "serialize.dumps_ms": _mean(durations("dumps"), 1e3),
        "serialize.out_bytes": _mean([s.attrs["out_bytes"] for s in calls["dumps"]]),
        "lattices.validate_form_ms": _mean(durations("validate_form"), 1e3),
        "lattices.group_op_us": _mean(
            [s.end - s.start for name in GROUP_OPS for s in calls[name]
             if by_id.get(s.parent) is None or by_id[s.parent].name not in GROUP_OPS], 1e6),
        "periods.random_structure_us": _mean(durations("random_structure"), 1e6),
        "periods.validate_structure.calls": len(calls["validate_structure"]) / passes,
        "decomposition.decompose_ms": _mean(durations("decompose"), 1e3),
        "decomposition.riemann_check_us": _mean(durations("riemann_check"), 1e6),
        "decomposition.riemann_check.calls": len(calls["riemann_check"]) / passes,
        "variety.sample_point_ms": _mean(durations("sample_point"), 1e3),
    }
    attempts = sum(s.attrs["attempts"] for s in calls["sample_point"])
    found = sum(s.attrs["found"] for s in calls["sample_point"])
    out["variety.attempts"] = attempts / passes
    out["variety.found_per_attempt"] = found / attempts if attempts else 0.0
    reports = len(calls["bundle_report"])
    out["cohomology.forms_ms"] = (
        1e3 * sum(s.end - s.start for name in FORMS for s in calls[name]) / reports
        if reports else 0.0)
    for table in ("leray_table", "tangent_table"):
        for kind in CLASSES:
            out[f"cohomology.{table}_s.{kind}"] = _mean(durations(table, kind))
    per_root = defaultdict(int)
    for s in calls["leray_table"]:
        per_root[s.root] += 1
    out["cohomology.leray_table.calls_per_doc"] = max(per_root.values(), default=0)
    out["cohomology.numerical_rank.calls"] = len(calls["numerical_rank"]) / passes
    svds = [s for s in calls["numpy.linalg.svd"] if layer_of(s) == "cohomology"]
    out["cohomology.svd.calls"] = len(svds) / passes
    out["cohomology.svd_s"] = sum(s.end - s.start for s in svds) / passes
    out["cohomology.svd_flops_computed"] = sum(
        svd_flops(s.attrs["shape"], s.attrs["complex"], s.attrs["uv"], s.attrs["full"])
        for s in svds) / passes
    layer_self = defaultdict(float)
    for s in spans:
        if s.layer is not None:
            layer_self[s.layer] += selfs[s.ident]
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / passes
    return out


def import_times(env, repeats=3):
    """Median cumulative import time of tbi.cli and of numpy within it, from
    ``python -X importtime -c "import tbi.cli"``, in ms."""
    cli_ms, numpy_ms = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tbi.cli"],
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if match:
                cumulative[match.group(3)] = int(match.group(1)) / 1e3
        cli_ms.append(cumulative["tbi.cli"])
        numpy_ms.append(cumulative["numpy"])
    return {"cli.import_ms": statistics.median(cli_ms),
            "cli.import_numpy_ms": statistics.median(numpy_ms)}
