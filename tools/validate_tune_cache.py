#!/usr/bin/env python3
"""Validate a finbench.tune_cache/v2 plan-cache file (docs/autotuning.md).

Usage:
    validate_tune_cache.py CACHE.json [--max-loss X]
                           [--report RUN.json (--expect-hits | --expect-race)]

Structural checks (always): the schema string, the host fingerprint block,
and every entry's key / plan / race report — including that the winning
plan names a candidate that actually raced and succeeded.

`--max-loss X` additionally gates plan quality: for every entry the
winner's measured rate must be within X of the best successful candidate
(winner >= (1 - X) * best).

`--report RUN.json` reads a pricectl `--json` v2 run report and asserts
the engine.tune.* counters tell the right story:
    --expect-hits   a warm run: engine.tune.hit > 0 and engine.tune.race == 0
                    (every auto request resolved from the cache, zero races)
    --expect-race   a cold or --tune run: engine.tune.race >= 1

Exits non-zero with a message on the first violation; CI runs this after
the tuner smoke invocations.
"""

import argparse
import json
import sys

SCHEMA = "finbench.tune_cache/v2"

FINGERPRINT_FIELDS = {
    "brand": str,
    "host": str,
    "logical_cpus": int,
    "avx2": bool,
    "fma": bool,
    "avx512f": bool,
    "avx512dq": bool,
}

KEY_FIELDS = {
    "family": str,
    "layout": str,
    "size_bucket": int,
    "threads": int,
    "steps": int,
    "steps_per_year": int,
    "npath": (int, float),
    "bridge_depth": int,
    "cn_num_prices": int,
    "american": bool,
}

PLAN_FIELDS = {
    "variant": str,
    "chunks_per_thread": int,
    "tasks": bool,
    "items_per_sec": (int, float),
    "imbalance": (int, float),
}

CANDIDATE_FIELDS = {
    "id": str,
    "chunks_per_thread": int,
    "tasks": bool,
    "items_per_sec": (int, float),
    "imbalance": (int, float),
    "ok": bool,
    "note": str,
}

def fail(msg):
    print(f"validate_tune_cache: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, spec, where):
    if not isinstance(obj, dict):
        fail(f"{where}: not an object")
    for name, types in spec.items():
        if name not in obj:
            fail(f"{where}: missing '{name}'")
        if not isinstance(obj[name], types):
            fail(f"{where}.{name}: expected {types}, got {type(obj[name]).__name__}")


def check_entry(entry, i, max_loss):
    where = f"entries[{i}]"
    for section in ("key", "plan", "race"):
        if section not in entry:
            fail(f"{where}: missing '{section}'")

    key, plan, race = entry["key"], entry["plan"], entry["race"]
    check_fields(key, KEY_FIELDS, f"{where}.key")
    check_fields(plan, PLAN_FIELDS, f"{where}.plan")
    if not plan["variant"]:
        fail(f"{where}.plan.variant: empty")
    if plan["chunks_per_thread"] < 1:
        fail(f"{where}.plan.chunks_per_thread: {plan['chunks_per_thread']}")
    if plan["items_per_sec"] <= 0:
        fail(f"{where}.plan.items_per_sec: {plan['items_per_sec']}")

    check_fields(race, {"seconds": (int, float), "candidates": list}, f"{where}.race")
    candidates = race["candidates"]
    if not candidates:
        fail(f"{where}.race.candidates: empty — a plan with no race behind it")
    ok_rates = []
    winner_raced = False
    for j, cand in enumerate(candidates):
        check_fields(cand, CANDIDATE_FIELDS, f"{where}.race.candidates[{j}]")
        if cand["ok"]:
            ok_rates.append(cand["items_per_sec"])
            if cand["id"] == plan["variant"]:
                winner_raced = True
    if not ok_rates:
        fail(f"{where}: no candidate succeeded, yet a winner was recorded")
    if not winner_raced:
        fail(f"{where}: winner '{plan['variant']}' is not a successful candidate")

    if max_loss is not None:
        best = max(ok_rates)
        floor = (1.0 - max_loss) * best
        if plan["items_per_sec"] < floor:
            fail(f"{where}: winner '{plan['variant']}' at {plan['items_per_sec']:.3e} "
                 f"items/s loses more than {max_loss:.0%} to the best candidate "
                 f"({best:.3e} items/s)")


def check_report(path, expect_hits, expect_race):
    with open(path) as f:
        report = json.load(f)
    counters = report.get("metrics", {}).get("counters", {})
    hits = counters.get("engine.tune.hit", 0)
    races = counters.get("engine.tune.race", 0)
    if expect_hits:
        if hits <= 0:
            fail(f"{path}: expected warm-cache hits, engine.tune.hit = {hits}")
        if races != 0:
            fail(f"{path}: expected zero races on a warm cache, "
                 f"engine.tune.race = {races}")
        print(f"  report {path}: warm run ok ({hits} hits, 0 races)")
    if expect_race:
        if races < 1:
            fail(f"{path}: expected at least one race, engine.tune.race = {races}")
        print(f"  report {path}: cold/forced run ok ({races} race(s))")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cache", help="finbench.tune_cache/v2 JSON file")
    ap.add_argument("--max-loss", type=float, default=None, metavar="X",
                    help="gate: winners within X of the best candidate"
                         " (e.g. 0.15)")
    ap.add_argument("--report", default=None, metavar="RUN.json",
                    help="pricectl --json v2 run report to counter-check")
    ap.add_argument("--expect-hits", action="store_true",
                    help="with --report: assert hit > 0 and race == 0")
    ap.add_argument("--expect-race", action="store_true",
                    help="with --report: assert race >= 1")
    args = ap.parse_args()
    if (args.expect_hits or args.expect_race) and not args.report:
        ap.error("--expect-hits/--expect-race require --report")

    try:
        with open(args.cache) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{args.cache}: {e}")

    if not isinstance(doc, dict):
        fail(f"{args.cache}: top level is not an object")
    if doc.get("schema") != SCHEMA:
        fail(f"{args.cache}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    check_fields(doc.get("fingerprint"), FINGERPRINT_FIELDS, "fingerprint")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        fail(f"{args.cache}: missing entries array")
    if not entries:
        fail(f"{args.cache}: entries array is empty")

    for i, e in enumerate(entries):
        check_entry(e, i, args.max_loss)
    gate = f", max-loss {args.max_loss:.0%} ok" if args.max_loss is not None else ""
    print(f"validate_tune_cache: {args.cache}: {len(entries)} entr"
          f"{'y' if len(entries) == 1 else 'ies'}{gate}")

    if args.report:
        check_report(args.report, args.expect_hits, args.expect_race)
    print("validate_tune_cache: OK")


if __name__ == "__main__":
    main()
