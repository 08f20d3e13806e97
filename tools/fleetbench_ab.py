#!/usr/bin/env python3
"""A/B pairs of the FleetStudy benchmark: a base git revision against the working tree.

    python3 tools/fleetbench_ab.py --base HEAD~1 --workload lifecycle-crash --seed 1 \\
        --seconds 20 --pairs 10

Builds fleetbench twice with fleetbench/run.py's CMake command (Release, -O2): once from the
base revision, exported with `git archive` into a temporary directory, and once from the
working tree. Then, for each workload, it runs N pairs of the two binaries with --trace 0,
alternating which side goes first, and reads each run's JSON record from the binary's stdout.

For each end-to-end metric of BENCHMARK.json it prints, per side, the median and quartiles
over the N runs (each run's own value is the median run.py reports), how many pairs the
working tree wins (ties count for neither), whether the medians differ by more than the
base's quartile spread, and whether the gain rule holds: the working tree wins at least 9 of
every 10 pairs and its median is better by more than that spread. It also prints, per study
seed, whether the two sides' report digests are equal, and each side's failed/attempted
study counts.

Exits 1 if any run fails (non-zero exit, no JSON record, or a failed study), else 2 if the
report digests of any study seed differ, else 0. Uses the standard library only and writes
nothing under fleetbench/. With --work-dir the export and
both build trees are kept there and reused by the next call; otherwise they go to a temporary
directory removed on exit.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.dont_write_bytecode = True  # importing run.py must leave fleetbench/ untouched
sys.path.insert(0, os.path.join(ROOT, "fleetbench"))
import run as fleetbench_run  # noqa: E402  (metric definitions shared with the benchmark)

# fleetbench's timed mode checks the warm-up study (study seed 0), then cycles through this
# many study seeds, so digest i > 0 of a run belongs to study seed (i - 1) % this.
STUDY_SEEDS = 6


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True, capture_output=True,
                          text=True).stdout.strip()


def export_revision(sha, dest):
    """Writes the tree of commit `sha` to `dest` (skipped when a previous call left it)."""
    if os.path.isfile(os.path.join(dest, "src", "core", "fleet_study.h")):
        return
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def build(source_root, build_dir):
    """run.py's build: configure Release once, then build the fleetbench target."""
    jobs = str(min(4, fleetbench_run.nproc()))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(source_root, "fleetbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "fleetbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "fleetbench")


def run_once(binary, workload, seed, seconds):
    """One timed fleetbench run: (metric values, digest per study seed, attempted, failed, ok)."""
    args = [binary, "--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
            "--trace=0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        raw = None
    if raw is None:
        log("  %s exited %d without a record" % (binary, proc.returncode))
        return {}, {}, 1, 1, False
    metrics, _, _ = fleetbench_run.timed_metrics(raw)
    digests = {}
    for i, digest in enumerate(raw["digests"]):
        digests.setdefault(0 if i == 0 else (i - 1) % STUDY_SEEDS, set()).add(digest)
    for failure in raw["failures"]:
        log("  FAILED " + failure)
    ok = proc.returncode == 0 and raw["failed"] == 0
    values = {name: m["value"] for name, m in metrics.items()}
    return values, digests, raw["attempted"], raw["failed"], ok


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"], m["better"]) for m in json.load(f)["end_to_end"]]


def judge(base, head, better):
    """One metric's verdict over paired runs: base[i] and head[i] ran as pair i.

    Returns (wins, losses, gap, spread, gain): the working tree's wins and losses (ties count
    for neither), the gap between the medians signed so that positive means the working tree
    is better, the base's quartile spread, and whether the gain rule holds (at least 9 wins in
    every 10 pairs and a gap larger than the spread).
    """
    qb = fleetbench_run.quartiles(base)
    qh = fleetbench_run.quartiles(head)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    gap = sign * (qh[1] - qb[1])
    spread = qb[2] - qb[0]
    return wins, losses, gap, spread, 10 * wins >= 9 * len(base) and gap > spread


def compare(samples, metrics, pairs):
    """Prints the per-metric comparison of one workload's pairs."""
    print("%-16s %-5s %12s %12s %12s   %s" % ("metric", "side", "q1", "median", "q3", "unit"))
    for name, unit, better in metrics:
        base = samples["base"][name]
        head = samples["head"][name]
        qb = fleetbench_run.quartiles(base)
        qh = fleetbench_run.quartiles(head)
        print("%-16s %-5s %12.6g %12.6g %12.6g   %s" % (name, "base", qb[0], qb[1], qb[2], unit))
        print("%-16s %-5s %12.6g %12.6g %12.6g" % ("", "head", qh[0], qh[1], qh[2]))
        for side, values in (("base", base), ("head", head)):
            print("%-16s %s runs: %s" % ("", side, " ".join("%.4g" % v for v in values)))
        wins, losses, gap, spread, gain = judge(base, head, better)
        if gap > spread:
            verdict = "head better by more than the base's quartile spread"
        elif -gap > spread:
            verdict = "head worse by more than the base's quartile spread"
        else:
            verdict = "within the base's quartile spread"
        ratio = ("%.3fx" % (qh[1] / qb[1])) if qb[1] else "n/a"
        print("%-16s head wins %d of %d pairs (%d losses); median ratio %s; %s (%+.6g vs %.6g)"
              % ("", wins, pairs, losses, ratio, verdict, gap, spread))
        print("%-16s gain rule (9 of 10 pairs won, gap over the spread): %s"
              % ("", "holds" if gain else "does not hold"))


def compare_digests(digests):
    """Prints digest equality per study seed; returns True if every seed's digests are equal."""
    all_equal = True
    for study_seed in sorted(set(digests["base"]) | set(digests["head"])):
        b = digests["base"].get(study_seed, set())
        h = digests["head"].get(study_seed, set())
        same = len(b) == 1 and b == h
        all_equal = all_equal and same
        print("digest study seed %d: %s  base %s  head %s" % (
            study_seed, "equal" if same else "DIFFERENT", ",".join(sorted(b)),
            ",".join(sorted(h))))
    return all_equal


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", nargs="+", required=True,
                        choices=fleetbench_run.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--work-dir", help="keep the export and build trees here for reuse")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    try:
        sha = git("rev-parse", "--verify", args.base + "^{commit}")
    except subprocess.CalledProcessError:
        parser.error("--base %s is not a commit of %s" % (args.base, ROOT))
    workloads = fleetbench_run.WORKLOADS if "all" in args.workload else args.workload
    work = args.work_dir or tempfile.mkdtemp(prefix="fleetbench-ab-")
    os.makedirs(work, exist_ok=True)
    try:
        base_src = os.path.join(work, "base-" + sha[:12])
        export_revision(sha, base_src)
        binaries = {
            "base": build(base_src, os.path.join(work, "base-build-" + sha[:12])),
            "head": build(ROOT, os.path.join(work, "head-build")),
        }
        metrics = end_to_end_metrics()
        any_failed = False
        any_different = False
        for workload in workloads:
            samples = {side: {name: [] for name, _, _ in metrics} for side in binaries}
            digests = {side: {} for side in binaries}
            counts = {side: [0, 0] for side in binaries}
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    log("%s pair %d/%d: %s" % (workload, pair + 1, args.pairs, side))
                    values, seen, attempted, failed, ok = run_once(
                        binaries[side], workload, args.seed, args.seconds)
                    any_failed = any_failed or not ok
                    counts[side][0] += attempted
                    counts[side][1] += failed
                    for name, _, _ in metrics:
                        samples[side][name].append(values.get(name, float("nan")))
                    for study_seed, ds in seen.items():
                        digests[side].setdefault(study_seed, set()).update(ds)

            print("== %s, seed %d, %g s, %d pairs: base %s vs the working tree"
                  % (workload, args.seed, args.seconds, args.pairs, sha[:12]))
            compare(samples, metrics, args.pairs)
            any_different = not compare_digests(digests) or any_different
            for side in binaries:
                print("%s: %d failed of %d studies attempted" % (
                    side, counts[side][1], counts[side][0]))
        return 1 if any_failed else 2 if any_different else 0
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
