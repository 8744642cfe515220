#!/usr/bin/env python3
"""The end-to-end benchmark's own tests and tools. Run from the repo root.

    python3 perfbench/selftest.py smoke
        Smoke-sized runs of every workload, untraced and traced. Checks the
        output schema against BENCHMARK.json, that every output check
        passed, and that the trace file is Chrome trace-event JSON.

    python3 perfbench/selftest.py seeds --seeds 1 2 [--seconds 30]
        Full-size traced runs on each seed; checks that every workload has
        the same dominant layer on every seed.

    python3 perfbench/selftest.py spread --workload NAME --seeds 1 2 3 ...
        Full-size untraced runs, one per seed; prints each end-to-end
        metric's median and quartile spread (IQR / median) beside its
        bound from BENCHMARK.json. With --digests, records each run's
        result digest in perfbench/digests.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace, smoke=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d trace %d failed (exit %d):\n%s" %
                           (workload, seed, trace, r.returncode, r.stderr))
    info = {}
    for line in lines:
        if line.startswith("result: "):
            info = json.loads(line[len("result: "):])
    return json.loads(lines[-1]), info, r.stderr


def check_schema(result, expected, problems, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True:
        problems.append("%s: an output check failed" % label)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted %r" % (label, result["attempted"]))
    if result["failed"] != 0:
        problems.append("%s: failed %r" % (label, result["failed"]))
    names = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(names):
        problems.append("%s: metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (label, sorted(set(names) - set(got)),
                                      sorted(set(got) - set(names))))
    for name, m in got.items():
        if name in names and m.get("unit") != names[name]:
            problems.append("%s: %s unit %r, expected %r" %
                            (label, name, m.get("unit"), names[name]))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s: %s value %r" % (label, name, m.get("value")))


def smoke(_args):
    s = spec()
    problems = []
    for w in s["workloads"]:
        name = w["name"]
        for trace, expected in ((0, s["end_to_end"]), (1, s["per_layer"])):
            label = "%s trace=%d" % (name, trace)
            try:
                result, _, stderr = run(name, 1, 1, trace, smoke=True)
            except RuntimeError as e:
                problems.append(str(e))
                continue
            check_schema(result, expected, problems, label)
            if "CHECK FAILED" in stderr:
                problems.append("%s: %s" % (label, stderr.strip()))
            if trace:
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    "%s-seed1-smoke.json" % name)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                if not events or any(e["ph"] != "X" for e in events):
                    problems.append("%s: bad trace %s" % (label, path))
            print("ok " if not problems else "FAIL ", label, flush=True)
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


def seeds(args):
    failed = False
    for w in spec()["workloads"]:
        dominant = {}
        for seed in args.seeds:
            result, info, _ = run(w["name"], seed, args.seconds, 1)
            failed |= result["correct"] is not True
            dominant[seed] = info.get("dominant_layer")
        same = len(set(dominant.values())) == 1
        failed |= not same
        print("%-14s %s %s" % (w["name"], dominant, "same" if same else
                               "DIFFERENT"), flush=True)
    return 1 if failed else 0


def spread(args):
    s = spec()
    values = {m["name"]: [] for m in s["end_to_end"]}
    digests = {}
    for seed in args.seeds:
        result, info, _ = run(args.workload, seed, args.seconds, 0)
        if result["correct"] is not True:
            print("seed %d: an output check failed" % seed)
            return 1
        digests[str(seed)] = info.get("digest")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (k, v["value"]) for k, v in
            sorted(result["metrics"].items()))), flush=True)
    worst = 0.0
    print("%-28s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    for m in s["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else 0.0
        if m["name"] != "setup_s":
            worst = max(worst, share / m["bound"])
        print("%-28s %14.6g %8.4f %6.2f" % (m["name"], med, share, m["bound"]))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)
    if args.digests:
        path = os.path.join(HERE, "digests.json")
        table = {}
        if os.path.exists(path):
            with open(path) as f:
                table = json.load(f)
        table.setdefault(args.workload, {}).update(digests)
        with open(path, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("smoke")
    ps = sub.add_parser("seeds")
    ps.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ps.add_argument("--seconds", type=float, default=1)
    pp = sub.add_parser("spread")
    pp.add_argument("--workload", required=True)
    pp.add_argument("--seeds", type=int, nargs="+", required=True)
    pp.add_argument("--seconds", type=float,
                    default=None, help="default: run_seconds")
    pp.add_argument("--digests", action="store_true")
    args = p.parse_args()
    if getattr(args, "seconds", 0) is None:
        args.seconds = spec()["run_seconds"]
    return {"smoke": smoke, "seeds": seeds, "spread": spread}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
