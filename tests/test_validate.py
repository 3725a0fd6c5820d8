#!/usr/bin/env python3
"""Broken artifacts through tools/validate.py.

Usage:
    test_validate.py VALIDATE_PY REPORT TRACE TUNE_CACHE METRICS FLIGHT

Takes valid files written by pricectl, runs mutated copies through the
checker and requires each to fail cleanly: exit 1, exactly one
`validate: FAIL:` line, no traceback. Two hand-written OpenMetrics
documents pin the label parser: a comma inside a quoted value is valid, a
stray quote is not. Prints one line per case; exits 1 if any case is wrong.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

validate, report, trace, tune_cache, metrics, flight = sys.argv[1:7]


def edit_json(fn):
    def mutate(text):
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc)
    return mutate


def unbalance_buckets(doc):
    h = next(h for h in doc["histograms"].values() if h["count"] > 0)
    next(iter(h["buckets"].values()))["count"] += 1


def break_bucket_order(text):
    line = next(l for l in text.splitlines() if "_bucket{" in l)
    return text.replace(line, line.rsplit(" ", 1)[0] + " 1e9", 1)


truncate = lambda text: text[: len(text) // 2]
garbage = lambda text: bytes(range(256)) * 4
comma_in_label = '# TYPE x counter\nx_total{k="a,b"} 1\n# EOF\n'

# (subcommand, source file, mutation, expect the checker to pass)
CASES = [
    ("report", report, None, True),
    ("report", report, truncate, False),
    ("report", report, garbage, False),
    ("report", report, edit_json(lambda d: d.update(schema="finbench.run_report/v1")), False),
    ("report", report, edit_json(lambda d: d.pop("histograms")), False),
    ("report", report, edit_json(lambda d: d.update(reps=True)), False),
    ("report", report, edit_json(lambda d: d.update(threads=False)), False),
    ("report", report, edit_json(unbalance_buckets), False),
    ("trace", trace, None, True),
    ("trace", trace, truncate, False),
    ("tune-cache", tune_cache, None, True),
    ("tune-cache", tune_cache, garbage, False),
    ("tune-cache", tune_cache, edit_json(lambda d: d.update(schema="x")), False),
    ("tune-cache", tune_cache,
     edit_json(lambda d: d["fingerprint"].update(logical_cpus=True)), False),
    ("tune-cache", tune_cache,
     edit_json(lambda d: d["entries"][0]["key"].update(threads=True)), False),
    ("flight", flight, None, True),
    ("flight", flight, truncate, False),
    ("flight", flight, edit_json(lambda d: d.pop("records")), False),
    ("chaos", report, None, False),
    ("openmetrics", metrics, None, True),
    ("openmetrics", metrics, lambda text: text.replace("# EOF\n", ""), False),
    ("openmetrics", metrics, break_bucket_order, False),
    ("openmetrics", metrics, garbage, False),
    ("openmetrics", None, lambda _: comma_in_label, True),
    ("openmetrics", None, lambda _: comma_in_label.replace('"a,b"', '"a"b"'), False),
]

wrong = 0
with tempfile.TemporaryDirectory() as tmp:
    for i, (cmd, src, mutate, ok) in enumerate(CASES):
        path = Path(src) if mutate is None else Path(tmp) / f"case{i}"
        if mutate is not None:
            out = mutate(Path(src).read_text() if src else "")
            if isinstance(out, bytes):
                path.write_bytes(out)
            else:
                path.write_text(out)
        run = subprocess.run([sys.executable, validate, cmd, str(path)],
                             capture_output=True, text=True)
        lines = run.stderr.splitlines()
        clean = (run.returncode == 0 and not lines) if ok else (
            run.returncode == 1 and len(lines) == 1 and lines[0].startswith("validate: FAIL: "))
        wrong += not clean
        print(f"{'ok ' if clean else 'BAD'} case {i} {cmd} "
              f"{'valid' if ok else 'broken'}: exit {run.returncode} "
              f"{(run.stderr or run.stdout).strip()[:160]}")
sys.exit(1 if wrong else 0)
