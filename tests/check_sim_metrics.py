#!/usr/bin/env python3
"""Check the --metrics-out document of one cubessd_sim run mode.

usage: check_sim_metrics.py <cubessd_sim> single|sweep|tenants

Runs the simulator at a small request count in the given mode (with
fault injection on, so the failure counters are live) and asserts that
the document parses and carries every section its mode must have,
including the full `ftl`, `failures` and `gc` key sets. In sweep mode
it also asserts that the document is byte-identical at --jobs 1 and
--jobs 2. Exits non-zero with a message on the first failed check.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

COMMON = ["--requests", "400", "--fault-program", "1e-3"]
MODES = {
    "single": ["--sample-interval-us", "1000"],
    "sweep": ["--seeds", "2"],
    "tenants": ["--tenants", "A:readhot:w=3:slo=500us,B:writeheavy:w=1",
                "--open-loop", "--load", "0.8"],
}
SECTIONS = {
    "single": {"config", "run", "requests", "utilization", "ftl",
               "failures", "gc", "timeseries"},
    "sweep": {"config", "cells", "requests", "ftl", "failures", "gc"},
    "tenants": {"config", "run", "tenants", "utilization", "ftl",
                "failures", "gc"},
}
KEYS = {
    "config": {"ftl", "pe_cycles", "retention_months", "blocks_per_chip",
               "requests", "seed", "queue_depth", "faults"},
    "ftl": {"host_read_pages", "host_write_pages", "buffer_hits",
            "nand_reads", "host_programs", "gc_programs",
            "leader_programs", "follower_programs", "read_retries",
            "safety_reprograms", "write_stalls", "write_amplification",
            "avg_program_latency_us", "buffer_peak_pages"},
    "failures": {"program_failures", "erase_failures", "retired_blocks",
                 "bad_block_relocations", "flush_replays",
                 "uncorrectable_reads", "read_only_rejects",
                 "rejected_requests"},
    "gc": {"collections", "relocated_pages", "erases", "scan_reads",
           "programs", "avg_program_latency_us"},
}
RUN_KEYS = {"iops", "elapsed_s", "completed", "failed", "read_only"}


def fail(message):
    sys.exit(f"check_sim_metrics: {message}")


def run(sim, args, out):
    proc = subprocess.run([sim, *args, "--metrics-out", str(out)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return out.read_bytes()


def check(mode, doc):
    missing = SECTIONS[mode] - doc.keys()
    if missing:
        fail(f"{mode}: missing sections {sorted(missing)}")
    for section, keys in KEYS.items():
        if keys - doc[section].keys():
            fail(f"{mode}: {section} lacks {sorted(keys - doc[section].keys())}")
    if not doc["config"]["faults"]["enabled"]:
        fail(f"{mode}: config.faults.enabled is false")
    runs = doc["cells"] if mode == "sweep" else [doc["run"]]
    for r in runs:
        if RUN_KEYS - r.keys():
            fail(f"{mode}: run summary lacks {sorted(RUN_KEYS - r.keys())}")
    if mode == "sweep" and [c["seed"] for c in runs] != [42, 43]:
        fail("sweep: cells are not in seed order")
    if mode == "tenants" and len(doc["tenants"]) != 2:
        fail("tenants: expected two tenant objects")


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in MODES:
        sys.exit(__doc__)
    sim, mode = sys.argv[1], sys.argv[2]
    args = COMMON + MODES[mode]
    with tempfile.TemporaryDirectory() as tmp:
        text = run(sim, args + (["--jobs", "1"] if mode == "sweep" else []),
                   Path(tmp) / "a.json")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            fail(f"{mode}: document does not parse: {e}")
        check(mode, doc)
        if mode == "sweep" and run(sim, args + ["--jobs", "2"],
                                   Path(tmp) / "b.json") != text:
            fail("sweep: document differs between --jobs 1 and --jobs 2")
    print(f"check_sim_metrics: {mode} ok")


if __name__ == "__main__":
    main()
