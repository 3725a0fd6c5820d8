#!/usr/bin/env python3
"""Check the artifacts finbench writes (docs/observability.md).

Usage:
    validate.py report PATH [--gate blocked|lattice|serve] [--histogram PREFIX]...
                            [--nonzero NAME]... [--zero NAME]... [--converted LAYOUT]
    validate.py trace PATH
    validate.py tune-cache PATH [--max-loss X]
    validate.py openmetrics PATH [--metric NAME]...
    validate.py chaos PATH
    validate.py flight PATH [--unpriced]

Each subcommand checks one file against its schema and prints one
`validate: OK: ...` line, or one `validate: FAIL: PATH: ...` line on
stderr and exits 1. The flags add the gates CI applies on top:

  report --gate G       every exhibit shape check passed, plus G's own rows,
                        checks and histograms (fig4_blackscholes: blocked,
                        lattice_tasks: lattice, serve_latency: serve)
  report --histogram P  a non-empty histogram whose name starts with P
  report --nonzero N / --zero N
                        counter N (metrics, robust or tasks counters; a
                        counter never bumped reads 0) is > 0 / == 0
  report --converted L  the request layout was L and a conversion was timed
  tune-cache --max-loss X
                        every winner within X of its best successful candidate
  openmetrics --metric N
                        the scrape holds a sample named N
  flight --unpriced     a deadline post-mortem: unpriced ranges named and a
                        deadline / not_run record present
"""

import argparse
import json
import math
import re
import sys


class Invalid(Exception):
    """One schema or gate violation; main() prints it as the FAIL line."""


# --- Loading and typed fields -------------------------------------------------

def load(path, text=False):
    try:
        with open(path, "rb") as f:
            raw = f.read().decode("utf-8")
        return raw if text else json.loads(raw)
    except (OSError, UnicodeDecodeError, ValueError) as e:
        raise Invalid(f"unreadable: {e}") from None


# Field types: a Python type, where int never admits a bool (json gives
# `true` as a bool, and isinstance(True, int) holds), NUM is any JSON number
# but a bool, and REAL is a double the C++ writer emits as null when it is
# not finite.
NUM = "number"
REAL = "number or null"


def is_a(value, want):
    if want is NUM or want is int:
        ok = isinstance(value, int if want is int else (int, float))
        return ok and not isinstance(value, bool)
    if want is REAL:
        return value is None or is_a(value, NUM)
    return isinstance(value, want)


def fields(obj, spec, where):
    """Require every `name: type` of spec in obj; return obj."""
    if not isinstance(obj, dict):
        raise Invalid(f"{where}: not an object")
    for name, want in spec.items():
        if name not in obj:
            raise Invalid(f"{where}: missing '{name}'")
        if not is_a(obj[name], want):
            label = want if isinstance(want, str) else want.__name__
            raise Invalid(f"{where}.{name}: expected {label}, "
                          f"got {type(obj[name]).__name__}")
    return obj


def items(obj, key, spec, where):
    """obj[key] is a list (checked by the caller's spec) of spec objects."""
    return [fields(x, spec, f"{where}{key}[{i}]") for i, x in enumerate(obj[key])]


def document(path, schema, spec):
    doc = fields(load(path), spec, "document")
    if doc["schema"] != schema:
        raise Invalid(f"schema is {doc['schema']!r}, want {schema!r}")
    return doc


# --- Run report (finbench.run_report/v2) --------------------------------------

REPORT = {
    "schema": str, "exhibit": str, "units": str, "binary": str,
    "git_sha": str, "full": bool, "reps": int, "threads": int,
    "layout": str, "convert_seconds": NUM, "host": dict, "notes": list,
    "rows": list, "checks": list, "measurements": list, "metrics": dict,
    "histograms": dict, "robust": dict, "tasks": dict, "perf": dict,
    "trace": dict,
}
HOST = {"brand": str, "logical_cpus": int, "ghz": REAL, "cache_bytes": dict,
        "dp_gflops_peak": REAL, "stream_gbs": REAL, "simd_dp_lanes": int}
ROW = {"label": str, "host_items_per_sec": REAL, "snb_projected": REAL,
       "knc_projected": REAL, "paper_snb": REAL, "paper_knc": REAL,
       "width": int, "flops_per_item": REAL, "bytes_per_item": REAL,
       "roofline_efficiency": REAL}
CHECK = {"name": str, "passed": bool, "detail": str}
MEASUREMENT = {"label": str, "items": int, "reps": int, "best_sec": NUM,
               "mean_sec": REAL, "stddev_sec": REAL}
METRICS = {"counters": dict, "gauges": dict, "stats": dict}
# Every histogram carries the full snapshot: identity, moments, quantiles
# and the sparse bucket map.
HISTOGRAM = {"name": str, "labels": str, "count": int, "sum_sec": REAL,
             "mean_sec": REAL, "min_sec": REAL, "max_sec": REAL, "p50": REAL,
             "p90": REAL, "p99": REAL, "p999": REAL, "buckets": dict}
BUCKET = {"le_sec": REAL, "count": int}

# The robust and tasks objects have fixed counter sets: a clean run reports
# explicit zeros rather than omitting keys (docs/robustness.md).
ROBUST_COUNTERS = [
    "robust.sanitize.scanned", "robust.sanitize.faulty",
    "robust.sanitize.clamped", "robust.sanitize.skipped",
    "robust.guard.violations", "robust.guard.repaired",
    "robust.inject.poisoned", "robust.inject.corrupted",
    "robust.inject.thrown", "robust.inject.slow",
    "robust.fallback.chunks", "robust.fallback.exhausted",
    "robust.deadline.expired", "robust.deadline.chunks_skipped",
    "robust.admission.shed",
    "robust.admission.shed_queue_full", "robust.admission.shed_bytes",
    "pool.exceptions.suppressed",
]
TASK_COUNTERS = ["engine.tasks.spawned", "engine.tasks.steals", "engine.tasks.depth"]


def counter_set(obj, names, where):
    """obj.counters holds every name in names; all its values are counts."""
    counters = fields(obj, {"counters": dict}, where)["counters"]
    for name in names:
        if name not in counters:
            raise Invalid(f"{where}.counters missing '{name}'")
    for name, value in counters.items():
        if not is_a(value, int) or value < 0:
            raise Invalid(f"{where}.counters['{name}'] should be a non-negative integer")


def check_report(path):
    doc = document(path, "finbench.run_report/v2", REPORT)
    fields(doc["host"], HOST, "host")
    items(doc, "rows", ROW, "")
    items(doc, "checks", CHECK, "")
    for i, m in enumerate(items(doc, "measurements", MEASUREMENT, "")):
        if m["best_sec"] <= 0:
            raise Invalid(f"measurements[{i}] has non-positive best_sec")
    fields(doc["metrics"], METRICS, "metrics")
    counter_set(doc["metrics"], [], "metrics")

    for key, h in doc["histograms"].items():
        where = f"histograms['{key}']"
        fields(h, HISTOGRAM, where)
        if h["count"] < 0:
            raise Invalid(f"{where}.count is negative")
        if h["count"] == 0:
            continue
        # Quantiles come off a log-bucketed histogram: monotone.
        q = [h[p] for p in ("p50", "p90", "p99", "p999")]
        if not all(is_a(v, NUM) for v in q) or q != sorted(q):
            raise Invalid(f"{where} quantiles not monotone: {q}")
        total = sum(fields(b, BUCKET, f"{where}.buckets['{k}']")["count"]
                    for k, b in h["buckets"].items())
        if total != h["count"]:
            raise Invalid(f"{where} bucket counts sum to {total}, expected {h['count']}")

    robust = doc["robust"]
    if robust.get("denormal_mode") not in ("ftz+daz", "ieee"):
        raise Invalid(f"robust.denormal_mode should be 'ftz+daz' or 'ieee', "
                      f"got {robust.get('denormal_mode')!r}")
    counter_set(robust, ROBUST_COUNTERS, "robust")
    counter_set(doc["tasks"], TASK_COUNTERS, "tasks")

    perf = fields(doc["perf"], {"available": bool}, "perf")
    if not perf["available"] and "reason" not in perf:
        raise Invalid("perf unavailable but no 'reason'")
    return doc


def counter(doc, name):
    """The fixed robust and tasks sets first, then the registry's counters."""
    for section in (doc["robust"], doc["tasks"], doc["metrics"]):
        if name in section["counters"]:
            return section["counters"][name]
    return 0


def histogram(doc, key):
    h = doc["histograms"].get(key)
    if h is None or h["count"] < doc["reps"]:
        raise Invalid(f"no populated {key!r} histogram (count >= reps = {doc['reps']})")
    return h


def ms(h):
    return f"p50 = {1e3 * h['p50']:.3f} ms, p99 = {1e3 * h['p99']:.3f} ms over {h['count']}"


def row(doc, label):
    for r in doc["rows"]:
        if r["label"] == label:
            return r
    raise Invalid(f"missing row {label!r}")


def require_checks(doc, names):
    have = {c["name"] for c in doc["checks"]}
    for name in names:
        if name not in have:
            raise Invalid(f"missing the {name!r} shape check (wrong binary?)")


def gate_blocked(doc):
    """fig4: the fused block-local conversion beats SOA incl. conversion
    (>= 1.0x: loose on purpose, shared CI hosts are noisy)."""
    blocked = row(doc, "Blocked SIMD incl. AOS->blocked conversion")["host_items_per_sec"]
    soa = row(doc, "SOA SIMD incl. AOS<->SOA conversion")["host_items_per_sec"]
    if not (is_a(blocked, NUM) and is_a(soa, NUM)) or blocked < soa:
        raise Invalid(f"blocked incl. conversion ({blocked}) is slower than SOA incl. "
                      f"conversion ({soa}) (gate: >= 1.0x)")
    h = histogram(doc, 'bench.rep.seconds{label="bs.blocked_conv"}')
    ratio = blocked / soa if soa > 0 else math.inf
    return f"blocked/SOA incl. conversion {ratio:.2f}x, blocked reps {ms(h)}"


def gate_lattice(doc):
    """lattice_tasks: fork-join engaged, tasking holds rep p99 against flat
    chunking, and the blocked binomial family beats the spec-gather path."""
    require_checks(doc, [
        "nested fork-join engaged (segment tasks spawned)",
        "tasking beats flat chunking on rep p99 (<= 1.10x slack)",
        "binomial.blocked.{4,8} beats the spec-gather path",
    ])
    hists = [histogram(doc, f'bench.rep.seconds{{label="lattice.{m}"}}')
             for m in ("flat", "tasks")]
    spawned = counter(doc, "engine.tasks.spawned")
    if spawned <= 0:
        raise Invalid("tasks.counters shows no spawned tasks: the fork-join layer never engaged")
    return f"flat {ms(hists[0])}; tasks {ms(hists[1])}; {spawned} tasks spawned"


def gate_serve(doc):
    """serve_latency: coalescing holds p99 at the top load, and both modes
    land labeled serve.request.seconds histograms in the report."""
    require_checks(doc, ["coalescing does not worsen p99 at the highest offered load"])
    for mode in ("coalesced", "uncoalesced"):
        if not any(k.startswith("serve.request.seconds{") and f'mode="{mode}"' in k
                   and h["count"] > 0 for k, h in doc["histograms"].items()):
            raise Invalid(f"no populated serve.request.seconds histogram for mode={mode}")
    return "serve.request.seconds populated for both modes"


GATES = {"blocked": gate_blocked, "lattice": gate_lattice, "serve": gate_serve}


def cmd_report(args):
    doc = check_report(args.path)
    notes = [f"{len(doc['rows'])} rows", f"{len(doc['measurements'])} measurements",
             f"{len(doc['histograms'])} histograms",
             f"perf={'on' if doc['perf']['available'] else 'off'}"]
    if args.gate:
        failed = [f"{c['name']}: {c['detail']}" for c in doc["checks"] if not c["passed"]]
        if failed:
            raise Invalid(f"exhibit check(s) failed: {'; '.join(failed)}")
        notes.append(f"gate {args.gate}: {GATES[args.gate](doc)}")
    for prefix in args.histogram:
        if not any(h["name"].startswith(prefix) and h["count"] > 0
                   for h in doc["histograms"].values()):
            raise Invalid(f"no non-empty histogram with name prefix '{prefix}'")
    for name in args.nonzero:
        if counter(doc, name) <= 0:
            raise Invalid(f"counter {name} = {counter(doc, name)}, expected > 0")
    for name in args.zero:
        if counter(doc, name) != 0:
            raise Invalid(f"counter {name} = {counter(doc, name)}, expected 0")
    if args.converted:
        if doc["layout"] != args.converted:
            raise Invalid(f"layout is {doc['layout']!r}, expected {args.converted!r}")
        if doc["convert_seconds"] <= 0:
            raise Invalid("no conversion recorded (convert_seconds <= 0)")
    return ", ".join(notes)


# --- Chrome trace -------------------------------------------------------------

SPAN = {"name": str, "ts": NUM, "dur": NUM, "pid": int, "tid": int}


def cmd_trace(args):
    doc = fields(load(args.path), {"traceEvents": list}, "document")
    tids = set()
    spans = 0
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if fields(ev, {"ph": str}, where)["ph"] != "X":
            continue
        fields(ev, SPAN, where)
        if ev["dur"] < 0:
            raise Invalid(f"{where} has negative duration")
        spans += 1
        tids.add(ev["tid"])
    if spans == 0:
        raise Invalid("no complete ('X') span events: was tracing enabled?")
    return f"{spans} spans across {len(tids)} thread(s)"


# --- Tune cache (finbench.tune_cache/v2) --------------------------------------

TUNE_CACHE = {"schema": str, "fingerprint": dict, "entries": list}
FINGERPRINT = {"brand": str, "host": str, "logical_cpus": int, "avx2": bool,
               "fma": bool, "avx512f": bool, "avx512dq": bool}
KEY = {"family": str, "layout": str, "size_bucket": int, "threads": int,
       "steps": int, "steps_per_year": int, "npath": NUM, "bridge_depth": int,
       "cn_num_prices": int, "american": bool}
PLAN = {"variant": str, "chunks_per_thread": int, "tasks": bool,
        "items_per_sec": NUM, "imbalance": NUM}
CANDIDATE = dict(PLAN, id=str, ok=bool, note=str)
del CANDIDATE["variant"]


def cmd_tune_cache(args):
    doc = document(args.path, "finbench.tune_cache/v2", TUNE_CACHE)
    fields(doc["fingerprint"], FINGERPRINT, "fingerprint")
    if not doc["entries"]:
        raise Invalid("entries array is empty")
    for i, entry in enumerate(doc["entries"]):
        where = f"entries[{i}]"
        fields(entry, {"key": dict, "plan": dict, "race": dict}, where)
        fields(entry["key"], KEY, f"{where}.key")
        plan = fields(entry["plan"], PLAN, f"{where}.plan")
        if not plan["variant"]:
            raise Invalid(f"{where}.plan.variant: empty")
        if plan["chunks_per_thread"] < 1:
            raise Invalid(f"{where}.plan.chunks_per_thread: {plan['chunks_per_thread']}")
        if plan["items_per_sec"] <= 0:
            raise Invalid(f"{where}.plan.items_per_sec: {plan['items_per_sec']}")
        race = fields(entry["race"], {"seconds": NUM, "candidates": list}, f"{where}.race")
        if not race["candidates"]:
            raise Invalid(f"{where}.race.candidates: empty, a plan with no race behind it")
        ok = [c for c in items(race, "candidates", CANDIDATE, f"{where}.race.") if c["ok"]]
        if not ok:
            raise Invalid(f"{where}: no candidate succeeded, yet a winner was recorded")
        if not any(c["id"] == plan["variant"] for c in ok):
            raise Invalid(f"{where}: winner '{plan['variant']}' is not a successful candidate")
        best = max(c["items_per_sec"] for c in ok)
        if args.max_loss is not None and plan["items_per_sec"] < (1.0 - args.max_loss) * best:
            raise Invalid(f"{where}: winner '{plan['variant']}' at {plan['items_per_sec']:.3e} "
                          f"items/s loses more than {args.max_loss:.0%} to the best "
                          f"candidate ({best:.3e} items/s)")
    gate = f", max-loss {args.max_loss:.0%} ok" if args.max_loss is not None else ""
    return f"{len(doc['entries'])} entries{gate}"


# --- OpenMetrics text (pricectl --metrics) ------------------------------------

SAMPLE_RE = re.compile(r'(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
                       r'(?:\{(?P<labels>.*)\})? (?P<value>\S+)(?: \S+)?')
LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"')
TYPES = ("counter", "gauge", "histogram", "summary", "unknown", "info",
         "stateset", "gaugehistogram")


def parse_value(text, where):
    try:
        return float(text)  # float() reads "+Inf" and "-Inf" too
    except ValueError:
        raise Invalid(f"{where}: unparseable sample value {text!r}") from None


def parse_labels(raw, where):
    """`key="escaped value"` pairs separated by commas."""
    labels = {}
    pos = 0
    while raw:
        m = LABEL_RE.match(raw, pos)
        end = m.end() if m else pos
        if m is None or raw[end:end + 1] not in ("", ","):
            raise Invalid(f"{where}: malformed label pairs in {{{raw}}}")
        labels[m.group("key")] = m.group("val")
        if end == len(raw):
            break
        pos = end + 1
    return labels


def family_of(name):
    for suffix in ("_bucket", "_sum", "_count", "_total"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def cmd_openmetrics(args):
    lines = load(args.path, text=True).split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise Invalid(f"document must end with '# EOF', got {(lines or [''])[-1]!r}")
    if lines.count("# EOF") != 1:
        raise Invalid("'# EOF' must appear exactly once, at the end")

    types = {}
    series = {}  # (family, labels minus le) -> histogram/summary parts
    names = set()
    for n, line in enumerate(lines[:-1], start=1):
        where = f"line {n}"
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in TYPES:
                raise Invalid(f"{where}: malformed TYPE line {line!r}")
            if parts[2] in types:
                raise Invalid(f"{where}: family '{parts[2]}' announced twice")
            types[parts[2]] = parts[3]
            continue
        m = SAMPLE_RE.fullmatch(line)
        if line.startswith("#") or not m:
            raise Invalid(f"{where}: unparseable line {line!r}")
        name = m.group("name")
        labels = parse_labels(m.group("labels") or "", where)
        value = parse_value(m.group("value"), where)
        names.add(name)
        family = family_of(name)
        mtype = types.get(family)
        if mtype is None:
            raise Invalid(f"{where}: sample '{name}' has no '# TYPE {family}' line")
        if mtype == "counter":
            if not name.endswith("_total") or value < 0:
                raise Invalid(f"{where}: counter sample '{name}' must be a non-negative _total")
        elif mtype in ("histogram", "summary"):
            key = (family, tuple(sorted((k, v) for k, v in labels.items() if k != "le")))
            s = series.setdefault(key, {"type": mtype, "buckets": []})
            if name.endswith("_bucket") and mtype == "histogram" and "le" in labels:
                s["buckets"].append((parse_value(labels["le"], where), value))
            elif name.endswith(("_sum", "_count")):
                s[name.rsplit("_", 1)[1]] = value
            else:
                raise Invalid(f"{where}: sample '{name}' is not a _bucket (with le), "
                              f"_sum or _count of {mtype} '{family}'")
    if not names:
        raise Invalid("no samples")

    for (family, key), s in series.items():
        ident = f"{family}{{{', '.join('='.join(kv) for kv in key)}}}"
        for part in ("sum", "count"):
            if part not in s:
                raise Invalid(f"{ident} missing _{part}")
        if s["type"] != "histogram":
            continue
        les = [le for le, _ in s["buckets"]]
        counts = [c for _, c in s["buckets"]]
        if not les or les != sorted(les) or les[-1] != math.inf:
            raise Invalid(f"histogram {ident} buckets must be ordered by le and end at +Inf")
        if counts != sorted(counts):
            raise Invalid(f"histogram {ident} bucket counts not monotone")
        if counts[-1] != s["count"]:
            raise Invalid(f"histogram {ident} +Inf bucket ({counts[-1]:g}) != "
                          f"_count ({s['count']:g})")
    for name in args.metric:
        if name not in names:
            raise Invalid(f"required metric '{name}' has no samples")
    hists = sum(1 for s in series.values() if s["type"] == "histogram")
    return f"{len(names)} sample names, {len(types)} families, {hists} histogram series"


# --- Chaos report (finbench.chaos_report/v1) ----------------------------------

CHAOS = {"schema": str, "scenarios": list}
SCENARIO = {"name": str, "sent": int, "accepted": int, "available": int,
            "availability": NUM, "p50_ms": NUM, "p99_ms": NUM, "trips": int,
            "retries": int, "transitions": int, "brownout_shed": int,
            "max_level": int, "final_level": int, "degraded_marked": int,
            "wall_seconds": NUM}


def cmd_chaos(args):
    """The resilience contract serve_chaos exists to prove (docs/resilience.md)."""
    doc = document(args.path, "finbench.chaos_report/v1", CHAOS)
    by_name = {s["name"]: s for s in items(doc, "scenarios", SCENARIO, "")}
    for name in ("poison_breakers_on", "poison_breakers_off", "brownout_on", "brownout_off"):
        if name not in by_name:
            raise Invalid(f"missing scenario '{name}'")
    on, off = by_name["poison_breakers_on"], by_name["poison_breakers_off"]
    bon, boff = by_name["brownout_on"], by_name["brownout_off"]
    if on["accepted"] == 0:
        raise Invalid("poison_breakers_on accepted no requests")
    if on["availability"] < 0.99:
        raise Invalid(f"availability with breakers on is {on['availability']:.4f}, "
                      f"expected >= 0.99")
    if off["availability"] > on["availability"] - 0.05:
        raise Invalid(f"breakers-off availability {off['availability']:.4f} is not "
                      f"measurably worse than breakers-on {on['availability']:.4f}")
    if on["trips"] < 1:
        raise Invalid("the poisoned variant's breaker never tripped")
    if bon["max_level"] < 1:
        raise Invalid("brownout ladder never stepped down under overload")
    if not 2 <= bon["transitions"] <= 12:
        raise Invalid(f"brownout transitions = {bon['transitions']}, expected 2..12 "
                      f"(hysteresis should bound flapping)")
    if bon["degraded_marked"] < 1:
        raise Invalid("no browned-out result was marked kDegraded with applied knobs")
    if boff["transitions"] != 0:
        raise Invalid(f"the disabled ladder transitioned {boff['transitions']} times")
    if bon["p99_ms"] >= boff["p99_ms"]:
        raise Invalid(f"brownout did not bound p99: on={bon['p99_ms']:.3f}ms "
                      f"vs off={boff['p99_ms']:.3f}ms")
    return (f"poison availability {on['availability']:.4f} (on) vs "
            f"{off['availability']:.4f} (off), {on['trips']} trip(s); brownout "
            f"max_level={bon['max_level']} transitions={bon['transitions']} "
            f"p99 {bon['p99_ms']:.1f}ms (on) vs {boff['p99_ms']:.1f}ms (off)")


# --- Flight dump (finbench.flight_dump/v1) ------------------------------------

FLIGHT = {"schema": str, "reason": str, "capacity": int, "total_recorded": int,
          "last_request_id": int, "unpriced_ranges": list, "records": list}
RECORD = {"request_id": int, "chunk": int, "worker": int, "begin": int, "end": int,
          "start_us": NUM, "end_us": NUM, "kernel": str, "status": str}


def cmd_flight(args):
    doc = document(args.path, "finbench.flight_dump/v1", FLIGHT)
    records = items(doc, "records", RECORD, "")
    if not records:
        raise Invalid("no flight records")
    for i, r in enumerate(doc["unpriced_ranges"]):
        if not (isinstance(r, list) and len(r) == 2 and all(is_a(x, int) for x in r)):
            raise Invalid(f"unpriced_ranges[{i}]: expected [begin, end]")
    if args.unpriced:
        if not doc["unpriced_ranges"]:
            raise Invalid("no unpriced ranges named")
        if not any(r["status"] in ("deadline", "not_run") for r in records):
            raise Invalid("no deadline-skipped records")
    return (f"{len(records)} records, {len(doc['unpriced_ranges'])} unpriced "
            f"range(s), reason {doc['reason']}")


# --- Command line -------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="artifact", required=True)

    def artifact(name, run):
        p = sub.add_parser(name)
        p.add_argument("path")
        p.set_defaults(run=run)
        return p

    p = artifact("report", cmd_report)
    p.add_argument("--gate", choices=sorted(GATES))
    p.add_argument("--histogram", action="append", default=[], metavar="PREFIX")
    p.add_argument("--nonzero", action="append", default=[], metavar="NAME")
    p.add_argument("--zero", action="append", default=[], metavar="NAME")
    p.add_argument("--converted", metavar="LAYOUT")
    artifact("trace", cmd_trace)
    artifact("tune-cache", cmd_tune_cache).add_argument("--max-loss", type=float, metavar="X")
    artifact("openmetrics", cmd_openmetrics).add_argument(
        "--metric", action="append", default=[], metavar="NAME")
    artifact("chaos", cmd_chaos)
    artifact("flight", cmd_flight).add_argument("--unpriced", action="store_true")
    args = ap.parse_args()

    try:
        summary = args.run(args)
    except Invalid as e:
        print(f"validate: FAIL: {args.path}: {e}", file=sys.stderr)
        return 1
    print(f"validate: OK: {args.path} ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
