#!/usr/bin/env python3
"""A/B the repository benchmark between a parent commit and a change.

    git archive HEAD | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python3 tools/ab_pairs.py --parent-tree /tmp/parent --parent \
        "$(git rev-parse HEAD)" --workloads qr_socket,chol_2node --pairs 5

Each arm is its own source tree, and each builds its own .bench_build
through that tree's unchanged perfbench/run.py:

  * change: a copy of this checkout's working tree (uncommitted edits
    included; .git, build and .bench_build left out), made and timed
    before the warm-up and removed at the end. perfbench/run.py rebuilds
    before every run, so timing the live checkout would let an edit made
    during the A/B change the arm between pairs;
  * parent: --parent-tree DIR, a separate copy of the parent revision made
    beforehand with `git clone` or `git archive`. The tool writes nothing
    into this repository's .git, so an interrupted run leaves no
    registered worktree behind. The entry records the copy's HEAD when it
    is a git checkout (one with uncommitted changes is refused); an
    archive copy has no HEAD, so --parent must then name its full sha.

After one warm-up run per arm (which builds it), the tool refuses to go on
when the two vsabench binaries are byte-identical: a copied .bench_build
keeps absolute paths to the tree it came from, so such an A/B would time
one program against itself.

Then it runs N alternating pairs per workload (parent first on even pairs,
change first on odd ones; pair i uses seed --seed + i on both arms) and
prints, per metric, each arm's median and quartiles, the change's relative
move, and the pairs the change won. The direction of each metric comes
from BENCHMARK.json. Last, it prints a BENCH_trajectory.json entry (or
writes it to --entry-out). Only the Python standard library is used.

--claim METRIC@WORKLOAD (repeatable) judges a claimed gain: CLAIM MET when
the change wins at least 9 of every 10 pairs (ties count for neither arm)
and its median beats the parent's by more than the parent's quartile
distance (q3 - q1); NOT MET otherwise. --selftest checks that verdict on
synthetic samples and needs no build.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900
# Left out of the frozen change arm: history and build outputs.
FREEZE_SKIP = (".git", "build", ".bench_build")


def die(msg):
    print("ab_pairs: " + msg, file=sys.stderr)
    sys.exit(2)


def parent_revision(tree, given):
    """The full sha of the parent tree: its HEAD, or `given` (a full sha)
    when the tree is not a git checkout of its own."""
    p = subprocess.run(["git", "-C", tree, "rev-parse", "--show-toplevel",
                        "HEAD"], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    out = p.stdout.split()
    if p.returncode == 0 and os.path.realpath(out[0]) == tree:
        if given and not out[1].startswith(given):
            die("--parent %s is not the HEAD of %s (%s)" % (given, tree,
                                                           out[1]))
        dirty = subprocess.run(["git", "-C", tree, "status", "--porcelain",
                                "--untracked-files=no"],
                               stdout=subprocess.PIPE, text=True).stdout
        if dirty:
            die("%s has uncommitted changes: it is not %s" % (tree, out[1]))
        return out[1]
    if not re.fullmatch(r"[0-9a-f]{40}", given or ""):
        die("%s is not a git checkout: name its revision with --parent "
            "<full sha>" % tree)
    return given


def freeze(tree, parent_dir=None):
    """Copy the working tree `tree` into a new temporary directory (under
    `parent_dir` if given), leaving out FREEZE_SKIP at its top; returns the
    copy and the seconds the copy took."""
    t0 = time.monotonic()
    copy = os.path.join(tempfile.mkdtemp(prefix="ab_pairs_", dir=parent_dir),
                        "change")
    shutil.copytree(tree, copy, symlinks=True,
                    ignore=lambda d, names: [n for n in names if d == tree
                                             and n in FREEZE_SKIP])
    return copy, time.monotonic() - t0


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; returns (failed, metrics)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("timed out in %s: %s" % (tree, " ".join(cmd)))
    lines = p.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr)
        die("no result (exit %d) in %s: %s"
            % (p.returncode, tree, " ".join(cmd)))
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    return last["failed"], metrics


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def claim_verdict(parent, change, way):
    """Whether `change` beats `parent` (paired samples of one metric,
    `way` "lower" or "higher" is better): (met, wins, gap, spread). The
    change must win at least 9/10 of the pairs, ties counting for neither
    arm, and its median must be better by more than the parent's quartile
    distance."""
    sign = 1 if way == "lower" else -1
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])
    spread = pq[2] - pq[0]
    met = 10 * wins >= 9 * len(parent) and gap > spread
    return met, wins, gap, spread


def selftest_freeze():
    """freeze() on a scratch checkout: the copy holds an uncommitted edit,
    leaves out .git and the build outputs, and a later edit to the
    checkout does not reach it. Returns the number of misses."""
    def write(path, text):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)

    def read(path):
        with open(path) as f:
            return f.read()

    with tempfile.TemporaryDirectory() as tmp:
        checkout = os.path.join(tmp, "checkout")
        src = os.path.join(checkout, "src", "kernel.cpp")
        write(src, "committed\n")
        git = ["git", "-C", checkout, "-c", "user.name=ab_pairs",
               "-c", "user.email=ab_pairs@localhost",
               "-c", "commit.gpgsign=false"]
        for cmd in (["init", "-q"], ["add", "-A"],
                    ["commit", "-q", "-m", "committed"]):
            subprocess.run(git + cmd, check=True, stdout=subprocess.DEVNULL)
        write(src, "uncommitted edit\n")
        for d in ("build", ".bench_build"):
            write(os.path.join(checkout, d, "vsabench"), "binary\n")
        copy, _ = freeze(checkout, tmp)
        write(src, "edit made during the A/B\n")
        copied = os.path.join(copy, "src", "kernel.cpp")
        checks = [
            ("copy holds the uncommitted edit",
             read(copied) == "uncommitted edit\n"),
            ("copy leaves out .git and the build outputs",
             not any(os.path.exists(os.path.join(copy, d))
                     for d in FREEZE_SKIP)),
            ("a later edit does not reach the copy",
             read(src) != read(copied)),
        ]
    bad = 0
    for name, ok in checks:
        bad += not ok
        print("ab_pairs selftest: freeze: %-42s %s"
              % (name, "ok" if ok else "FAIL"))
    return bad


def selftest():
    """The claim verdict on synthetic samples and the frozen change arm;
    exits nonzero on a miss."""
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    cases = [
        # (name, parent, change, way, want)
        ("clear gain", base, [x * 0.85 for x in base], "lower", True),
        ("clear gain, higher is better", base, [x * 1.15 for x in base],
         "higher", True),
        ("clear loss", base, [x * 1.15 for x in base], "lower", False),
        ("8/10 pairs won", base,
         [x * 0.85 for x in base[:8]] + [x * 1.1 for x in base[8:]],
         "lower", False),
        ("9/10 pairs won", base,
         [x * 0.85 for x in base[:9]] + [x * 1.1 for x in base[9:]],
         "lower", True),
        ("ties count for neither arm", base,
         [x * 0.85 for x in base[:9]] + base[9:], "lower", True),
        ("all ties", base, list(base), "lower", False),
        ("gap inside the parent's spread", base,
         [x - 0.01 for x in base], "lower", False),
        ("wide parent spread", [0.6, 1.4, 0.7, 1.3, 1.0],
         [0.5, 1.3, 0.6, 1.2, 0.9], "lower", False),
    ]
    bad = 0
    for name, parent, change, way, want in cases:
        met = claim_verdict(parent, change, way)[0]
        ok = met == want
        bad += not ok
        print("ab_pairs selftest: %-32s %s (want %s) %s"
              % (name, "MET" if met else "NOT MET",
                 "MET" if want else "NOT MET", "ok" if ok else "FAIL"))
    bad += selftest_freeze()
    return 1 if bad else 0


def directions(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = {}
    for m in bench.get("end_to_end", []) + bench.get("per_layer", []):
        out[m["name"]] = (m["better"], m.get("bound"))
    return out


def host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%d-CPU %s, Python %s" % (os.cpu_count() or 0, model,
                                      platform.python_version())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    help="comma-separated perfbench workloads")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--parent-tree",
                    help="a copy of the parent revision (git clone or "
                         "git archive)")
    ap.add_argument("--parent",
                    help="full sha of --parent-tree when it is not a git "
                         "checkout")
    ap.add_argument("--change", default="",
                    help="one-line description for the trajectory entry")
    ap.add_argument("--entry-out", help="write the entry here")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC@WORKLOAD",
                    help="judge a claimed gain (repeatable)")
    ap.add_argument("--selftest", action="store_true",
                    help="check the claim verdict on synthetic samples")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not args.workloads or not args.parent_tree:
        die("--workloads and --parent-tree are required")
    if args.pairs < 1:
        die("--pairs must be >= 1")
    workloads = [w for w in args.workloads.split(",") if w]
    claims = []
    for c in args.claim:
        metric, _, wl = c.partition("@")
        if not metric or wl not in workloads:
            die("--claim %s: want METRIC@WORKLOAD with a workload from "
                "--workloads" % c)
        claims.append((metric, wl))
    parent_tree = os.path.realpath(args.parent_tree)
    if not os.path.isfile(os.path.join(parent_tree, "perfbench", "run.py")):
        die("%s has no perfbench/run.py" % parent_tree)
    if parent_tree == os.path.realpath(REPO):
        die("parent and change are the same tree")
    parent_rev = parent_revision(parent_tree, args.parent)
    change_tree, copy_s = freeze(REPO)
    print("ab_pairs: froze the change arm into %s in %.2f s"
          % (change_tree, copy_s), file=sys.stderr)
    try:
        run_pairs(args, workloads, claims, parent_tree, parent_rev,
                  change_tree, copy_s)
    finally:
        shutil.rmtree(os.path.dirname(change_tree), ignore_errors=True)


def run_pairs(args, workloads, claims, parent_tree, parent_rev, change_tree,
              copy_s):
    trees = {"parent": parent_tree, "change": change_tree}

    # Warm-up: builds each arm's .bench_build; its numbers are dropped.
    for arm, tree in trees.items():
        print("ab_pairs: building and warming %s (%s)" % (arm, tree),
              file=sys.stderr)
        run_once(tree, workloads[0], args.seed, 1, args.trace)
    bins = {arm: os.path.join(tree, ".bench_build", "vsabench")
            for arm, tree in trees.items()}
    sums = {arm: digest(path) for arm, path in bins.items()}
    if sums["parent"] == sums["change"]:
        die("the two vsabench binaries are byte-identical (%s, %s): "
            "this A/B would time one program against itself"
            % (bins["parent"], bins["change"]))

    better = directions(REPO)
    for metric, _ in claims:
        if better.get(metric, (None, None))[0] not in ("lower", "higher"):
            die("--claim: %s has no direction in BENCHMARK.json" % metric)
    entry_wl = {}
    samples_of = {}
    for wl in workloads:
        samples = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else (
                "change", "parent")
            for arm in order:
                f, m = run_once(trees[arm], wl, args.seed + i,
                                args.seconds, args.trace)
                failed[arm] += f
                samples[arm].append(m)
                print("ab_pairs: %s pair %d %s failed=%d %s"
                      % (wl, i, arm, f, json.dumps(m)), file=sys.stderr)
        samples_of[wl] = samples
        entry_wl[wl] = report(wl, samples, failed, better, args)
    for metric, wl in claims:
        p = [s[metric] for s in samples_of[wl]["parent"]]
        c = [s[metric] for s in samples_of[wl]["change"]]
        met, wins, gap, spread = claim_verdict(p, c, better[metric][0])
        verdict = "CLAIM MET" if met else "NOT MET"
        print("\n%s: %s@%s won %d/%d pairs, median better by %.4g, parent "
              "quartile distance %.4g" % (verdict, metric, wl, wins, len(p),
                                          gap, spread))
        entry_wl[wl][metric + "_claim"] = verdict
    entry = {
        "change": args.change,
        "parent_commit": parent_rev,
        "commit": "the commit that added this entry",
        "change_tree": "a copy of the working tree made before the warm-up "
                       "in %.2f s" % copy_s,
        "host": host(),
        "perfbench": {
            "seconds": args.seconds,
            "trace": args.trace,
            "order": "alternating pairs, parent first on even pairs",
            "workloads": entry_wl,
        },
    }
    text = json.dumps(entry, indent=1)
    if args.entry_out:
        with open(args.entry_out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def report(wl, samples, failed, better, args):
    n = args.pairs
    names = sorted(set(samples["parent"][0]) & set(samples["change"][0]))
    print("\n%s: %d pairs, seeds %d-%d, failed parent %d change %d"
          % (wl, n, args.seed, args.seed + n - 1, failed["parent"],
             failed["change"]))
    print("  %-34s %-30s %-30s %8s %6s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "move", "won"))
    out = {"seeds": "%d-%d" % (args.seed, args.seed + n - 1), "pairs": n,
           "parent": {"failed": failed["parent"]},
           "change": {"failed": failed["change"]}}
    for name in names:
        p = [s[name] for s in samples["parent"]]
        c = [s[name] for s in samples["change"]]
        pq, cq = quartiles(p), quartiles(c)
        out["parent"][name] = {"median": pq[1], "q1": pq[0], "q3": pq[2]}
        out["change"][name] = {"median": cq[1], "q1": cq[0], "q3": cq[2]}
        move = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        way, bound = better.get(name, (None, None))
        won = "n/a"
        if way in ("lower", "higher"):
            wins = sum((b < a) if way == "lower" else (b > a)
                       for a, b in zip(p, c))
            won = "%d/%d" % (wins, n)
            out[name + "_pairs_won"] = won
            worse = move > 0 if way == "lower" else move < 0
            if bound is not None and worse and abs(move) > bound:
                won += " OVER BOUND"
        print("  %-34s %9.4g [%8.4g, %8.4g] %9.4g [%8.4g, %8.4g] %+7.1f%% %6s"
              % (name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
                 100 * move, won))
    return out


if __name__ == "__main__":
    main()
