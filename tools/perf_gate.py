#!/usr/bin/env python3
"""Gate a perf_events run against the tracked baseline.

Compares each measured path of a BENCH_perf.json produced by
build/bench/perf_events against bench/perf_baseline.json and fails
(exit 1) when any path's events/s regresses by more than the
tolerance. The report shows per-section deltas — events/s AND
ns/event for the micro and workload paths — not just an aggregate
pass/fail, and when BOTH files carry a per-subsystem "profile"
section (a --profile run gated against a --profile baseline) it also
prints the self-ns/call delta of every slot, so a regression names
the subsystem that caused it.

A gated section missing from either file is a hard error naming the
file and section. The profile section is optional: present in only
one file prints a note and skips the per-slot comparison — but never
gate a --profile run against a no-profile baseline's events/s, the
scope overhead would read as a regression. When BOTH sides carry
profiles, one slot comparison IS gated: the combined
nand.read.ber_eval + nand.program.ispp self-ns/call must not regress
by more than 20% (the term-cache memoization keeps the model hot path
nearly flat; see MODEL_EVAL_SLOTS).

Faster-than-baseline results never fail; they print a hint to re-pin
the baseline when the improvement is large enough to look intentional.

Every comparison first prints the host record (CPU model, nproc,
compiler, build type, git SHA) of both files, "unknown" where a file
has none, so a failure against a baseline pinned on another machine
reads as a host mismatch rather than a code regression.

Usage:
    python3 tools/perf_gate.py BENCH_perf.json [--baseline FILE]
                               [--tolerance 0.20]
"""

import argparse
import json
import sys

PATHS = ("micro", "workload")

# Model-evaluation slots whose combined self-ns/call is gated when both
# sides carry profiles: the term-cache memoization keeps these nearly
# flat, so a large regression means the cache stopped hitting (or a
# hot-path change re-introduced per-call transcendental work).
MODEL_EVAL_SLOTS = ("nand.read.ber_eval", "nand.program.ispp")
MODEL_EVAL_TOLERANCE = 0.20


HOST_KEYS = ("cpu", "nproc", "compiler", "build_type", "git_sha")
MACHINE_KEYS = HOST_KEYS[:-1]  # what must match for events/s to compare


def host_line(doc, keys=HOST_KEYS):
    """The file's host record on one line, or 'unknown'."""
    host = doc.get("host")
    if not isinstance(host, dict):
        return "unknown"
    return "  ".join(f"{k}={host.get(k, 'unknown')}" for k in keys)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"perf_gate: cannot read {path}: {e}")


def section(doc, path_name, key):
    """A gated section, or a hard error naming file and section."""
    if key not in doc:
        sys.exit(
            f"perf_gate: section '{key}' is missing from {path_name} "
            f"(has: {', '.join(sorted(doc))}) — was the file produced "
            "by build/bench/perf_events?"
        )
    return doc[key]


def gate_paths(result, baseline, args):
    """Per-path events/s gate + ns/event delta report."""
    failed = False
    for path in PATHS:
        got_sec = section(result, args.result, path)
        want_sec = section(baseline, args.baseline, path)
        try:
            got = float(got_sec["events_per_s"])
            want = float(want_sec["events_per_s"])
        except (KeyError, TypeError, ValueError):
            sys.exit(
                f"perf_gate: '{path}.events_per_s' is missing or "
                f"non-numeric in {args.result} or {args.baseline}"
            )
        floor = want * (1.0 - args.tolerance)
        ratio = got / want if want > 0 else float("inf")
        verdict = "OK"
        if got < floor:
            verdict = "REGRESSION"
            failed = True
        elif ratio > 1.0 + args.tolerance:
            verdict = "OK (faster than baseline -- consider re-pinning)"
        print(
            f"perf_gate: {path:9s} {got:14,.0f} events/s"
            f"  baseline {want:14,.0f}  ({ratio:6.2%})  {verdict}"
        )
        # ns/event is the same measurement inverted, but it is the
        # unit the per-subsystem breakdown uses — print the delta so
        # the two reports line up. The baseline may predate ns_per_event.
        got_ns = got_sec.get("ns_per_event")
        want_ns = want_sec.get("ns_per_event")
        if got_ns is not None and want_ns is not None and want_ns > 0:
            print(
                f"perf_gate: {path:9s} {got_ns:14,.1f} ns/event "
                f"  baseline {want_ns:14,.1f}  "
                f"({got_ns / want_ns - 1.0:+7.2%})"
            )
    return failed


def profile_slots(doc):
    prof = doc.get("profile")
    if not isinstance(prof, dict) or "slots" not in prof:
        return None
    return {s["name"]: s for s in prof["slots"]}


def report_profile_delta(result, baseline, result_path, baseline_path):
    """Informational per-subsystem self-ns/call deltas."""
    got = profile_slots(result)
    want = profile_slots(baseline)
    if got is None and want is None:
        return
    if got is None or want is None:
        which = result_path if got is None else baseline_path
        print(
            f"perf_gate: note: no 'profile' section in {which} — "
            "skipping the per-subsystem breakdown (run "
            "perf_events --profile on both sides to compare slots)"
        )
        return
    print("perf_gate: per-subsystem self ns/call (result vs baseline):")
    for name in sorted(set(got) | set(want)):
        g, w = got.get(name), want.get(name)
        if g is None or w is None:
            only = "baseline" if g is None else "result"
            slot = w if g is None else g
            print(
                f"perf_gate:   {name:24s} "
                f"{slot.get('self_ns_per_call', 0.0):10,.1f}"
                f"  (only in {only})"
            )
            continue
        gv = float(g.get("self_ns_per_call", 0.0))
        wv = float(w.get("self_ns_per_call", 0.0))
        delta = f"{gv / wv - 1.0:+7.2%}" if wv > 0 else "    n/a"
        print(
            f"perf_gate:   {name:24s} {gv:10,.1f}  baseline "
            f"{wv:10,.1f}  ({delta})"
        )


def gate_model_eval(result, baseline):
    """Hard gate: combined ber_eval+ispp self-ns/call regression.

    Only applies when BOTH files carry a profile section with every
    gated slot; otherwise prints a note and passes (a no-profile run
    cannot regress what it does not measure).
    """
    got = profile_slots(result)
    want = profile_slots(baseline)
    if got is None or want is None:
        return False
    missing = [
        s for s in MODEL_EVAL_SLOTS if s not in got or s not in want
    ]
    if missing:
        print(
            "perf_gate: note: model-eval slots missing on one side "
            f"({', '.join(missing)}) — skipping the ber_eval+ispp gate"
        )
        return False
    gv = sum(float(got[s].get("self_ns_per_call", 0.0)) for s in MODEL_EVAL_SLOTS)
    wv = sum(float(want[s].get("self_ns_per_call", 0.0)) for s in MODEL_EVAL_SLOTS)
    if wv <= 0:
        return False
    ratio = gv / wv
    verdict = "OK"
    failed = False
    if ratio > 1.0 + MODEL_EVAL_TOLERANCE:
        verdict = "REGRESSION"
        failed = True
    print(
        f"perf_gate: model-eval (ber_eval+ispp) {gv:10,.1f} "
        f"self ns/call  baseline {wv:10,.1f}  ({ratio - 1.0:+7.2%})  "
        f"{verdict}"
    )
    if failed:
        print(
            "perf_gate: FAIL -- the combined nand.read.ber_eval + "
            "nand.program.ispp self-ns/call regressed more than "
            f"{MODEL_EVAL_TOLERANCE:.0%}: the term-cache memoization "
            "is no longer covering the model hot path.",
            file=sys.stderr,
        )
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("result", help="BENCH_perf.json from perf_events")
    parser.add_argument(
        "--baseline",
        default="bench/perf_baseline.json",
        help="tracked baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional regression (default: %(default)s)",
    )
    args = parser.parse_args()

    result = load(args.result)
    baseline = load(args.baseline)

    print(f"perf_gate: host result   {host_line(result)}")
    print(f"perf_gate: host baseline {host_line(baseline)}")
    failed = gate_paths(result, baseline, args)
    report_profile_delta(result, baseline, args.result, args.baseline)
    failed = gate_model_eval(result, baseline) or failed

    if failed:
        machine = host_line(result, MACHINE_KEYS)
        if machine == "unknown" or machine != host_line(baseline, MACHINE_KEYS):
            print(
                "perf_gate: note: the result and the baseline do not "
                "share a recorded host and build (see the 'host' lines), "
                "so this may be a host mismatch rather than a code "
                "regression.",
                file=sys.stderr,
            )
        print(
            f"perf_gate: FAIL -- events/s fell more than "
            f"{args.tolerance:.0%} below bench/perf_baseline.json. "
            "If the slowdown is intentional, re-pin the baseline "
            "(median of >=5 runs) in the same change.",
            file=sys.stderr,
        )
        return 1
    print("perf_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
