#!/usr/bin/env python3
"""A/B the repository benchmark between a parent commit and a change.

    git archive HEAD | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    python3 tools/ab_pairs.py --parent-tree /tmp/parent --parent \
        "$(git rev-parse HEAD)" --workloads qr_socket,chol_2node --pairs 5

Each arm is its own source tree, and each builds its own .bench_build
through that tree's unchanged perfbench/run.py:

  * change: this checkout (the working tree, uncommitted edits included);
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
"""
import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


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
    ap.add_argument("--workloads", required=True,
                    help="comma-separated perfbench workloads")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--parent-tree", required=True,
                    help="a copy of the parent revision (git clone or "
                         "git archive)")
    ap.add_argument("--parent",
                    help="full sha of --parent-tree when it is not a git "
                         "checkout")
    ap.add_argument("--change", default="",
                    help="one-line description for the trajectory entry")
    ap.add_argument("--entry-out", help="write the entry here")
    args = ap.parse_args()
    if args.pairs < 1:
        die("--pairs must be >= 1")
    workloads = [w for w in args.workloads.split(",") if w]
    parent_tree = os.path.realpath(args.parent_tree)
    if not os.path.isfile(os.path.join(parent_tree, "perfbench", "run.py")):
        die("%s has no perfbench/run.py" % parent_tree)
    if parent_tree == os.path.realpath(REPO):
        die("parent and change are the same tree")
    parent_rev = parent_revision(parent_tree, args.parent)
    trees = {"parent": parent_tree, "change": REPO}

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
    entry_wl = {}
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
        entry_wl[wl] = report(wl, samples, failed, better, args)
    entry = {
        "change": args.change,
        "parent_commit": parent_rev,
        "commit": "the commit that added this entry",
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
