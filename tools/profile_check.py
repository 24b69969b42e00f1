#!/usr/bin/env python3
"""Validate APQ per-query profile JSON (profile/profile_json.h schema).

Usage:
    tools/profile_check.py profile.json [--require-adaptive] [--min-queries N]

Accepts either an APQ_PROFILE dump ({"queries": [<doc>, ...]}) or a single
document as served by GET /debug/profile/<id>. Exit codes mirror
bench_trend.py: 0 = schema-valid, 1 = schema violation, 2 = unreadable or
unparseable input.

Checks per document:
  * scalar envelope: positive integer query_id, kind in {plan, adaptive},
    status in {ok, error} (error implies a non-empty error message),
    non-negative wall_ns/time_ns/rows/runs/mutations and the resource
    accounting fields (peak_bytes/cpu_ns/queue_wait_ns/workers/
    parallel_efficiency);
  * lineage: a list; for a successful adaptive query exactly `runs` entries
    (the AdaptiveOutcome invariant), each with run/time_ns/skew fields, a
    victim, an action, and ascending split_rows; `mutations` equals the
    count of entries whose action is not "none"; plain queries have [];
  * profile: null or an object with makespan_ns/utilization and an "ops"
    list whose entries carry the per-operator fields (wall, tuples,
    peak_bytes/cpu_ns/queue_wait_ns, morsel count/skews, p50/p95) and a
    "morsels" histogram list (possibly empty — historical profiles are
    stripped).

Prints a one-line summary (documents, runs, mutations) on success.
"""

import argparse
import json
import sys

DOC_NUMBERS = ("wall_ns", "time_ns", "rows", "runs", "mutations",
               "peak_bytes", "cpu_ns", "queue_wait_ns", "workers",
               "parallel_efficiency")
LINEAGE_NUMBERS = ("run", "time_ns", "wall_ns", "max_morsel_skew",
                   "max_morsel_tuple_skew", "skew_hint_ops", "victim")
OP_NUMBERS = ("node_id", "work_ns", "start_ns", "end_ns", "wall_ns", "core",
              "tuples_in", "tuples_out", "peak_bytes", "cpu_ns",
              "queue_wait_ns", "num_morsels", "morsel_skew",
              "morsel_tuple_skew", "morsel_wall_p50_ns", "morsel_wall_p95_ns")
MORSEL_NUMBERS = ("tuples_in", "tuples_out", "wall_ns", "worker",
                  "domain_begin", "domain_end")
ACTIONS = ("none", "basic", "basic-skew", "medium", "advanced")


def fail(msg):
    print("profile_check: FAIL: %s" % msg, file=sys.stderr)
    return 1


def check_numbers(obj, keys, where, signed=()):
    for key in keys:
        v = obj.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return '%s: "%s" missing or not a number (%r)' % (where, key, v)
        if v < 0 and key not in signed:
            return '%s: "%s" is negative (%r)' % (where, key, v)
    return None


def check_lineage(doc, where):
    lineage = doc.get("lineage")
    if not isinstance(lineage, list):
        return '%s: "lineage" missing or not a list' % where
    if doc["kind"] == "plan" and lineage:
        return "%s: plain query carries %d lineage entries" % (
            where, len(lineage))
    if doc["kind"] == "adaptive" and doc["status"] == "ok":
        if len(lineage) != doc["runs"]:
            return "%s: %d lineage entries for %d runs" % (
                where, len(lineage), doc["runs"])
    mutations = 0
    for i, entry in enumerate(lineage):
        here = "%s lineage[%d]" % (where, i)
        if not isinstance(entry, dict):
            return "%s: not an object" % here
        err = check_numbers(entry, LINEAGE_NUMBERS, here, signed=("victim",))
        if err:
            return err
        if entry.get("run") != i:
            return "%s: run %r out of order" % (here, entry.get("run"))
        action = entry.get("action")
        if action not in ACTIONS:
            return "%s: unknown action %r" % (here, action)
        if not isinstance(entry.get("skew_aware"), bool):
            return '%s: "skew_aware" missing or not a bool' % here
        rows = entry.get("split_rows")
        if not isinstance(rows, list):
            return '%s: "split_rows" missing or not a list' % here
        if any(not isinstance(r, int) or isinstance(r, bool) for r in rows):
            return '%s: non-integer split row' % here
        if rows != sorted(rows):
            return '%s: split_rows not ascending' % here
        if action != "none":
            mutations += 1
        elif entry.get("victim", -1) != -1 or rows:
            return "%s: action none but victim/split_rows set" % here
    if doc["mutations"] != mutations:
        return '%s: "mutations" %d but %d lineage entries mutated' % (
            where, doc["mutations"], mutations)
    return None


def check_profile(doc, where):
    profile = doc.get("profile", "absent")
    if profile == "absent":
        return '%s: "profile" key missing' % where
    if profile is None:
        return None  # valid for failed queries
    if not isinstance(profile, dict):
        return '%s: "profile" not an object' % where
    err = check_numbers(profile, ("makespan_ns", "utilization"),
                        "%s profile" % where)
    if err:
        return err
    ops = profile.get("ops")
    if not isinstance(ops, list):
        return '%s profile: "ops" missing or not a list' % where
    for i, op in enumerate(ops):
        here = "%s ops[%d]" % (where, i)
        if not isinstance(op, dict):
            return "%s: not an object" % here
        err = check_numbers(op, OP_NUMBERS, here, signed=("node_id", "core"))
        if err:
            return err
        for key in ("kind", "label"):
            if not isinstance(op.get(key), str):
                return '%s: "%s" missing or not a string' % (here, key)
        morsels = op.get("morsels")
        if not isinstance(morsels, list):
            return '%s: "morsels" missing or not a list' % here
        for j, m in enumerate(morsels):
            err = check_numbers(m, MORSEL_NUMBERS, "%s morsels[%d]" % (here, j),
                                signed=("worker",))
            if err:
                return err
    return None


def check_doc(doc, where):
    if not isinstance(doc, dict):
        return "%s: not an object" % where
    qid = doc.get("query_id")
    if not isinstance(qid, int) or isinstance(qid, bool) or qid <= 0:
        return '%s: "query_id" missing or not a positive integer (%r)' % (
            where, qid)
    if doc.get("kind") not in ("plan", "adaptive"):
        return '%s: "kind" is %r, expected "plan" or "adaptive"' % (
            where, doc.get("kind"))
    if doc.get("status") not in ("ok", "error"):
        return '%s: "status" is %r' % (where, doc.get("status"))
    if not isinstance(doc.get("error"), str):
        return '%s: "error" missing or not a string' % where
    if doc["status"] == "error" and not doc["error"]:
        return "%s: status error with empty error message" % where
    err = check_numbers(doc, DOC_NUMBERS, where)
    if err:
        return err
    return check_lineage(doc, where) or check_profile(doc, where)


def check(path, require_adaptive=False, min_queries=1):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print("profile_check: cannot load %s: %s" % (path, e),
              file=sys.stderr)
        return 2

    if isinstance(data, dict) and "queries" in data:
        docs = data["queries"]
        if not isinstance(docs, list):
            return fail('"queries" is not a list')
    else:
        docs = [data]

    if len(docs) < min_queries:
        return fail("%d document(s), expected at least %d"
                    % (len(docs), min_queries))

    runs = mutations = adaptive = 0
    for i, doc in enumerate(docs):
        err = check_doc(doc, "doc[%d]" % i)
        if err:
            return fail(err)
        runs += doc["runs"]
        mutations += doc["mutations"]
        adaptive += doc["kind"] == "adaptive"

    if require_adaptive and adaptive == 0:
        return fail("no adaptive query documents (--require-adaptive)")

    print("profile_check: ok: %d document(s) (%d adaptive), %d run(s), "
          "%d mutation(s)" % (len(docs), adaptive, runs, mutations))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Validate APQ per-query profile JSON.")
    ap.add_argument("profile",
                    help="APQ_PROFILE dump or a /debug/profile/<id> body")
    ap.add_argument("--require-adaptive", action="store_true",
                    help="fail unless at least one adaptive document exists")
    ap.add_argument("--min-queries", type=int, default=1,
                    help="minimum number of documents (default 1)")
    args = ap.parse_args()
    return check(args.profile, args.require_adaptive, args.min_queries)


if __name__ == "__main__":
    sys.exit(main())
