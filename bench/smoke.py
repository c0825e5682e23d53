#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes about ten seconds.

    python3 bench/smoke.py

Runs every workload briefly, traced and untraced, and asserts that each
metric named in BENCHMARK.json appears with its unit.  Then checks that
the correctness gate exits nonzero on a wrong recovery and on a failed
audit, that no server or store file outlives a run, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run as bench
from iplt.matrix import FqMatrix

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def check_metrics() -> None:
    for name in bench.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = bench.run(
                name, seed=7, seconds=0.3, trace=trace, min_retrievals=3, setups=2
            )
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} {section}: {sorted(set(got) ^ set(want))}"
            assert result["correct"] and result["attempted"] >= 3, result
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert any(line.startswith("provenance ") for line in lines)
            print(f"ok  {name:<14} {section:<10} {result['attempted']} retrievals")


def check_gate() -> None:
    recover = bench.recover
    audit = bench.audit_individual_privacy

    def wrong_recover(*args):
        got = recover(*args)
        rows = got.to_rows()
        rows[0][0] = (rows[0][0] + 1) % got.q
        return FqMatrix(got.q, rows, cols=got.cols)

    def failed_audit(*args):
        return dataclasses.replace(audit(*args), ok=False)

    args = ["--workload", "tiny-rpc", "--seed", "7", "--seconds", "0.1"]
    for attr, fake in (("recover", wrong_recover), ("audit_individual_privacy", failed_audit)):
        original = getattr(bench, attr)
        setattr(bench, attr, fake)
        try:
            status = bench.main(args)
        finally:
            setattr(bench, attr, original)
        assert status == 1, f"a faked {attr} did not fail the run"
        print(f"ok  gate trips on a faked {attr}")


def check_cleanup() -> None:
    leftovers = list(bench.RUN_DIR.glob("store-*.plts"))
    assert not leftovers, f"store files left behind: {leftovers}"
    print("ok  no store file left behind")


def check_bare_directory() -> None:
    bare = bench.RUN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "tiny-rpc", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0 and not out.stdout, (out.returncode, out.stdout)
    print("ok  refuses to run without the package sources")


if __name__ == "__main__":
    check_metrics()
    check_gate()
    check_cleanup()
    check_bare_directory()
    print("smoke ok")
