"""A/B timing pairs of two revisions on the perfbench benchmark.

    python3 tools/ab.py --base HEAD~1 --change worktree --workload search \\
        --seeds 1234 4321 --pairs 5 --seconds 45 --out ab.json
    python3 tools/ab.py --base HEAD --change HEAD --workload search --smoke

Each side is exported into a temporary directory of its own: ``git archive``
of a revision, or for ``worktree`` the checkout's tracked and unignored
files as they are on disk.  Every run is one fresh process of that side's
``perfbench/run.py --trace 0``.  A pair runs both sides once, in random
order.  Giving the same revision twice (A/A) measures the noise floor that
an A/B difference has to beat (Kalibera & Jones, ISMM 2013).

Per run the record holds the end-to-end metrics, ``correct``, the wall
time and the CPU seconds (user + system) that the run and every process it
waited for used, from ``resource.getrusage(RUSAGE_CHILDREN)``, so work
moved into worker processes still counts.  Per workload, seed and metric it
reports each side's median and quartiles, and how many pairs the change
won, lost or tied (the direction comes from ``BENCHMARK.json``).  The JSON
record goes to stdout, or to ``--out``.  Nothing is written into the
checkout.  The exit status is 1 if any run failed or was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_METRICS = {"wall_s": "lower", "cpu_s": "lower"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export(ref: str, dest: str) -> str:
    """Write side ref's files into dest; return what was exported."""
    if ref == "worktree":
        for name in git("ls-files", "-z", "--cached", "--others",
                        "--exclude-standard").split("\0"):
            path = os.path.join(ROOT, name)
            if name and os.path.isfile(path):
                os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                shutil.copy2(path, os.path.join(dest, name))
        dirty = bool(git("status", "--porcelain"))
        return f"worktree of {git('rev-parse', 'HEAD').strip()}{' (modified)' if dirty else ''}"
    archive = os.path.join(dest, ".archive.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
                       stdout=fh)
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    os.remove(archive)
    return git("rev-parse", f"{ref}^{{commit}}").strip()


def run_side(root: str, workload: str, seed: int, args) -> dict:
    """One fresh perfbench process of the side at root."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        environment = json.loads(lines[-2]).get("environment", {})
    except (IndexError, ValueError):
        result, environment = {}, {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.stderr.write(f"ab: {workload} seed {seed} in {root}: exit {proc.returncode}, "
                         f"correct={result.get('correct')}\n{proc.stderr[-2000:]}\n")
    return {"exit": proc.returncode, "correct": result.get("correct") is True,
            "attempted": result.get("attempted"), "failed": result.get("failed"),
            "wall_s": round(wall, 4), "cpu_s": round(cpu, 4),
            "metrics": {k: m["value"] for k, m in result.get("metrics", {}).items()},
            "environment": environment}


def spread(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"median": xs[0], "quartiles": [xs[0]] * 3} if xs else {}
    return {"median": statistics.median(xs),
            "quartiles": statistics.quantiles(xs, n=4, method="inclusive")}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for name, direction in better.items():
        rows = [(p["base"]["metrics"].get(name, p["base"].get(name)),
                 p["change"]["metrics"].get(name, p["change"].get(name))) for p in pairs]
        rows = [(b, c) for b, c in rows if isinstance(b, (int, float))
                and isinstance(c, (int, float))]
        if not rows:
            continue
        base, change = [b for b, _ in rows], [c for _, c in rows]
        sign = 1 if direction == "lower" else -1
        entry = {"base": spread(base), "change": spread(change),
                 "change_wins": sum(sign * (c - b) < 0 for b, c in rows),
                 "change_losses": sum(sign * (c - b) > 0 for b, c in rows),
                 "ties": sum(b == c for b, c in rows)}
        if entry["base"]["median"]:
            entry["change_pct"] = round(100 * (entry["change"]["median"]
                                               / entry["base"]["median"] - 1), 2)
        entry["base_values"], entry["change_values"] = base, change
        out[name] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--change", default="worktree",
                   help="git revision of the changed side, or 'worktree' (default)")
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, default=[1234])
    p.add_argument("--pairs", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="perfbench --seconds (default: perfbench's own)")
    p.add_argument("--smoke", action="store_true", help="perfbench --smoke runs")
    p.add_argument("--order-seed", type=int,
                   help="seed of the run order within the pairs (default: random)")
    p.add_argument("--out", help="write the JSON record here instead of stdout")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    better.update(RUN_METRICS)
    order_seed = args.order_seed if args.order_seed is not None else random.randrange(2**31)
    rng = random.Random(order_seed)
    record = {"command": ["tools/ab.py", *(argv if argv is not None else sys.argv[1:])],
              "order_seed": order_seed, "results": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="mpirecon-ab-") as tmp:
        roots = {"base": os.path.join(tmp, "base"), "change": os.path.join(tmp, "change")}
        for side, ref in (("base", args.base), ("change", args.change)):
            os.makedirs(roots[side])
            record[side] = export(ref, roots[side])
        for workload in args.workload:
            for seed in args.seeds:
                pairs = []
                for i in range(args.pairs):
                    order = rng.sample(["base", "change"], 2)
                    pair = {"order": order}
                    for side in order:
                        pair[side] = run_side(roots[side], workload, seed, args)
                        ok &= pair[side]["correct"] and pair[side]["exit"] == 0
                        sys.stderr.write(f"ab: {workload} seed {seed} pair {i + 1}/"
                                         f"{args.pairs} {side}: {pair[side]['wall_s']} s\n")
                    pairs.append(pair)
                record.setdefault("environment", pairs[0]["base"]["environment"])
                for pair in pairs:
                    for side in ("base", "change"):
                        pair[side].pop("environment")
                record["results"][f"{workload}_seed_{seed}"] = {
                    "summary": summarize(pairs, better), "pairs": pairs}
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
