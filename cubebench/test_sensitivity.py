#!/usr/bin/env python3
"""Sensitivity self-check of the benchmark.

A known busy-wait per completion in the tenants_open sink must show up
end to end and be attributed to the right span:

  * untraced, host_req_per_s falls to the rate predicted from the added
    ns per request, within the benchmark's own host_req_per_s bound,
    and by more than that bound (so the gate would see it);
  * traced, the span whose self ns per request grows most is the
    harness's sink span, by about the added ns.

The untraced spin is sized from the measured base rate (0.6x a
request's host time, a predicted 37.5% slowdown) so that it clears the
25% bound host noise forces on host_req_per_s. Run from the repository
root:

    python3 cubebench/test_sensitivity.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPIN_SHARE = 0.6  # of the base host ns per request
SEED = 7
SECONDS = 4


def run(trace, spin_ns):
    cmd = [sys.executable, str(ROOT / "cubebench" / "run.py"), "--workload",
           "tenants_open", "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    if spin_ns:
        cmd += ["--sink-spin-ns", str(spin_ns)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    result = json.loads(out[-1])
    attribution = {}
    for line in out:
        if line.startswith("attribution: "):
            attribution = json.loads(line[len("attribution: "):])
    return result, attribution


def bound(name):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in bench["end_to_end"] if m["name"] == name)


class SinkSpinSensitivity(unittest.TestCase):
    def test_host_rate_falls_by_the_predicted_amount(self):
        base, _ = run(0, 0.0)
        h0 = base["metrics"]["host_req_per_s"]["value"]
        spin_ns = SPIN_SHARE * 1e9 / h0
        slow, _ = run(0, spin_ns)
        for r in (base, slow):
            self.assertTrue(r["correct"])
        h1 = slow["metrics"]["host_req_per_s"]["value"]
        # One completion per request: each request costs spin_ns more.
        predicted = 1.0 / (1.0 / h0 + spin_ns * 1e-9)
        b = bound("host_req_per_s")
        self.assertLess(abs(h1 / predicted - 1.0), b,
                        f"h0={h0:.0f} h1={h1:.0f} predicted={predicted:.0f}")
        self.assertGreater(1.0 - h1 / h0, b,
                           "the slowdown must exceed the regression bound")
        # Simulated results do not depend on host speed.
        for name in base["metrics"]:
            if name.startswith("sim_"):
                self.assertEqual(base["metrics"][name], slow["metrics"][name])

    def test_traced_pass_names_the_sink(self):
        base, before = run(1, 0.0)
        spin_ns = 500.0
        _, after = run(1, spin_ns)
        self.assertTrue(base["correct"])
        growth = {k: v - before.get(k, 0.0) for k, v in after.items()}
        top = max(growth, key=growth.get)
        self.assertEqual(top, "bench.sink", growth)
        self.assertGreater(growth["bench.sink"], 0.75 * spin_ns, growth)
        self.assertLess(growth["bench.sink"], 1.5 * spin_ns, growth)


if __name__ == "__main__":
    unittest.main()
