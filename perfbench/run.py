"""Benchmark entry point: simulator throughput of the four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hier --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run.
``--workload all`` runs every workload and prefixes each metric with its
workload's name.  Each phase runs in a fresh interpreter
(``perfbench/child.py``), so set-up time and peak memory belong to one
workload alone.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts episodes; an episode fails on an exception, a
livelock, a failed output check, or a digest that differs from the
other episodes of the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOAD_NAMES = ("hier", "hier-wide", "incast", "fabric")
#: Fresh interpreters timed for set-up; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Every phase of one invocation ends within this many seconds.
TOTAL_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (not a failed episode)."""


class Runner:
    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + TOTAL_BUDGET_S
        self.child = os.path.join(HERE, "child.py")

    def phase(self, phase: str, workload: str, seconds: float) -> dict:
        """Run one phase in a fresh interpreter; returns its JSON and the
        monotonic time it was started at."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"time budget spent before {phase}")
        spawned = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, self.child, phase, workload,
                 str(self.seed), repr(seconds)],
                capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {phase}: timed out") from None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"{workload} {phase}: exit "
                             f"{done.returncode}\n{done.stderr[-2000:]}")
        result = json.loads(lines[-1])
        result["spawned"] = spawned
        return result


def count_failures(episodes, reference):
    """Failed episodes: a failed check, or a digest that is not the
    reference digest of this seed."""
    return sum(1 for episode in episodes
               if episode["problems"] or episode["digest"] != reference)


def tally(workload, seed, episodes) -> int:
    """Print the digest and every failure; return the failed count."""
    reference = next((episode["digest"] for episode in episodes
                      if not episode["problems"]), "")
    print(f"digest {workload} seed={seed} {reference}")
    for index, episode in enumerate(episodes):
        for problem in episode["problems"]:
            print(f"{workload}: episode {index} failed: {problem}")
        if episode["digest"] and episode["digest"] != reference:
            print(f"{workload}: episode {index} has digest "
                  f"{episode['digest']}")
    failed = count_failures(episodes, reference)
    print(f"{workload}: attempted {len(episodes)}, failed {failed}")
    return failed


def throughput(episodes):
    """Packets per host second over the episodes that ran to the end
    (an episode that raised has no digest)."""
    ran = [episode for episode in episodes if episode["digest"]]
    seconds = sum(episode["seconds"] for episode in ran)
    return sum(episode["packets"] for episode in ran) / seconds \
        if seconds else 0.0


def end_to_end(runner: Runner, workload: str):
    """(metrics, or None when no timed episode ran to the end; every
    episode's summary)."""
    setups = [runner.phase("setup", workload, 0)
              for _ in range(SETUP_SAMPLES)]
    main = runner.phase("main", workload, runner.seconds)
    print(f"{workload}: {len(main['episodes'])} timed episodes "
          f"(+1 warm-up), {main['chunks']} chunks; "
          f"{len(main['observed'])} observed")
    metrics = {
        "pkts_per_s": throughput(main["episodes"]),
        "setup_s": statistics.median(s["ready"] - s["spawned"]
                                     for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "chunk_us_per_pkt.p95": main["chunk_us_per_pkt.p95"],
        "obs_pkts_per_s": throughput(main["observed"]),
    }
    episodes = [main["warm_up"]] + main["episodes"] + main["observed"]
    return (metrics if all(metrics.values()) else None), episodes


def per_layer(runner: Runner, workload: str):
    result = runner.phase("trace", workload, 0)
    breakdown = result.get("breakdown")
    if breakdown:
        print(f"{workload}: traced run {breakdown['wall_s']:.3f} s = "
              f"layers {sum(breakdown['self_s'].values()):.3f} s + "
              f"unattributed {breakdown['unattributed_s']:.3f} s + "
              f"span cost {breakdown['cost_s']:.3f} s")
    return result.get("metrics"), result["untraced"] + [result["traced"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as spec:
        declared = json.load(spec)["per_layer" if args.trace
                                   else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    runner = Runner(args.seed, args.seconds)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            values, episodes = measure(runner, name)
            attempted += len(episodes)
            failed += tally(name, args.seed, episodes)
            if values is None:
                raise BenchError(f"{name}: no episode ran to the end")
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, unit in expected.items():
                metrics[prefix + metric] = {"value": values[metric],
                                            "unit": unit}
                print(f"{name:10s} {metric:32s} {values[metric]:14.6g} "
                      f"{unit}")
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
