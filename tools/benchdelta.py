#!/usr/bin/env python3
"""Benchmark baseline recorder / regression gate for CI.

Modes:

  record  <bench-output> <out.json>
      Parse `go test -bench` output (possibly -count repeated) and
      write {"benchmarks": {name: {"ns_op": min, "B_op":, "allocs_op":}}}.

  check   <bench-output> <baseline.json> [--threshold 0.25]
      Compare the run against the committed baseline. Raw ns/op is
      hardware-dependent, so each watched benchmark's ratio is
      normalised by the median ratio across *all* shared benchmarks
      (the calibration set cancels uniform machine-speed differences).
      For the watched benchmarks allocs/op is also compared raw: an
      alloc count growing by more than the threshold fails (a
      zero-alloc baseline therefore tolerates no allocation at all —
      this is how the sweep engine's 0 allocs/op promise is pinned,
      for the serial hit path and the lock-free parallel hit path
      alike).
      Watched benchmarks must not scale with the runner's core count:
      most are serial (BenchmarkSweepMeasure and SweepMeasureAll pin
      par.Set(1) themselves), and BenchmarkCanonicalBallParallel pins
      GOMAXPROCS so its goroutine count is fixed — on runners with
      fewer cores its goroutines timeshare, which can only make the
      measured ns/op worse than the baseline machine's, never
      spuriously better, so the gate stays sound (merely
      conservative). The construction benchmarks in BYTES_GATED are
      also gated on raw B/op, which does not depend on the machine and
      moves only by the harness's own allocations amortised over b.N
      (a few dozen bytes): a byte count growing by more than the
      threshold fails. Exit 1 on any regression.

Watched benchmarks (the CSR/interner/sweep/round-engine hot paths the
repo promises not to regress): ViewEncode, CanonicalBall,
CanonicalBallParallel, SweepMeasure, SweepMeasureAll, E14Views,
RunRounds (one radius-2 model.Gather on the 4096-node torus at
parallelism 8: engine construction, three rounds of column-handle
messages and the hash-consed view assembly; par.Set(8) fixes the
worker count, so on smaller runners the workers timeshare and the
measured ns/op can only be conservative), RunRoundsFaulty (the same
gather under the lossy:p=0.05 fault schedule), RunRoundsTyped and
RunRoundsTypedFaulty (one steady-state word-lane round on the same
torus: its 0 allocs/op baseline pins the zero-allocation round
promise, clean and faulty alike), and
EngineMillionCycleTyped (the typed million-node round: pins the word
lane's per-round cost at memory-bound scale; its allocs_op baseline is
null on purpose — the benchmark amortises one run's setup over b.N
rounds, so the per-op alloc count varies with the runner's speed and
only the normalised ns/op is gated), ServeCachedRequest (the
localapproxd end-to-end handler path on a warm cache entry: routing,
query parse, canonical key, FNV hash, lock-free probe, response write
— its 0 allocs/op baseline pins the service's repeat-request promise),
and ShardedRound / ShardedExchange (the sharded engine's steady-state
round at 0 allocs/op: the torus at P=4 prices the two-phase barrier on
local-heavy traffic, the long-shift circulant at P=8 prices the
counting-sorted cross-shard exchange drain), and the construction
layer a flat scale run pays before its first round: HostParseTorus and
HostParseRandomRegular (descriptor to CSR graph: the generators' direct
CSR fill and graph.FromCSR's validation), FromPorts (the port digraph
in two counting passes), IDDraw (model.PermIDs, the O(n)-memory
rng.Perm(8n)[:n]) and NewEngine (plane arenas).

Byte-gated benchmarks (BYTES_GATED): the construction layer above plus
NewShardedEngine (a two-shard plane over an implicit directed cycle),
whose B/op is the plane's arena footprint and does not depend on the
machine.
"""
import json
import re
import statistics
import sys

WATCHED = [
    "BenchmarkViewEncode",
    "BenchmarkCanonicalBall",
    "BenchmarkCanonicalBallParallel",
    "BenchmarkSweepMeasure",
    "BenchmarkSweepMeasureAll",
    "BenchmarkE14Views",
    "BenchmarkRunRounds",
    "BenchmarkRunRoundsFaulty",
    "BenchmarkRunRoundsTyped",
    "BenchmarkRunRoundsTypedFaulty",
    "BenchmarkRunRoundsCheckpointIdle",
    "BenchmarkSnapshotRestore",
    "BenchmarkEngineMillionCycleTyped",
    "BenchmarkServeCachedRequest",
    "BenchmarkShardedRound",
    "BenchmarkShardedExchange",
    "BenchmarkHostParseTorus",
    "BenchmarkHostParseRandomRegular",
    "BenchmarkFromPorts",
    "BenchmarkIDDraw",
    "BenchmarkNewEngine",
]

BYTES_GATED = [
    "BenchmarkHostParseTorus",
    "BenchmarkHostParseRandomRegular",
    "BenchmarkFromPorts",
    "BenchmarkIDDraw",
    "BenchmarkNewEngine",
    "BenchmarkNewShardedEngine",
]

LINE = re.compile(
    r"(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op"
    r"(?:\s+(\d+) B/op\s+(\d+) allocs/op)?"
)


def parse(path):
    """Parse bench output; repeated -count lines keep the minimum ns/op."""
    rows = {}
    with open(path) as f:
        for line in f:
            m = LINE.match(line)
            if not m:
                continue
            name = m.group(1)
            ns = float(m.group(3))
            row = rows.setdefault(
                name,
                {
                    "ns_op": ns,
                    "B_op": int(m.group(4)) if m.group(4) else None,
                    "allocs_op": int(m.group(5)) if m.group(5) else None,
                },
            )
            row["ns_op"] = min(row["ns_op"], ns)
    return rows


def record(bench_path, out_path):
    rows = parse(bench_path)
    if not rows:
        sys.exit(f"benchdelta: no benchmark lines in {bench_path}")
    json.dump({"benchmarks": rows}, open(out_path, "w"), indent=2)
    print(f"benchdelta: recorded {len(rows)} benchmarks to {out_path}")


def check(bench_path, baseline_path, threshold):
    cur = parse(bench_path)
    base = json.load(open(baseline_path))["benchmarks"]
    shared = sorted(set(cur) & set(base))
    if not shared:
        sys.exit("benchdelta: no shared benchmarks between run and baseline")
    ratios = {n: cur[n]["ns_op"] / base[n]["ns_op"] for n in shared}
    machine = statistics.median(ratios.values())
    print(f"benchdelta: {len(shared)} shared benchmarks, machine factor {machine:.3f}")
    failed = []
    for name in WATCHED:
        if name not in ratios:
            print(f"benchdelta: WARNING watched {name} missing from run or baseline")
            continue
        norm = ratios[name] / machine
        status = "ok"
        if norm > 1 + threshold:
            status = "REGRESSION"
            failed.append(name)
        print(
            f"  {name}: {base[name]['ns_op']:.0f} -> {cur[name]['ns_op']:.0f} ns/op"
            f" (normalised x{norm:.3f}) {status}"
        )
        base_a = base[name].get("allocs_op")
        cur_a = cur[name].get("allocs_op")
        if base_a is None or cur_a is None:
            continue
        # allocs/op is deterministic (watched benchmarks are serial):
        # no machine normalisation. A baseline of 0 tolerates no
        # allocation at all.
        astatus = "ok"
        if cur_a > base_a * (1 + threshold) and cur_a > base_a:
            astatus = "ALLOC REGRESSION"
            failed.append(name + " (allocs)")
        print(f"  {name}: {base_a} -> {cur_a} allocs/op {astatus}")
    for name in BYTES_GATED:
        base_b = base.get(name, {}).get("B_op")
        cur_b = cur.get(name, {}).get("B_op")
        if base_b is None or cur_b is None:
            print(f"benchdelta: WARNING byte-gated {name} missing B/op in run or baseline")
            continue
        # B/op of these serial construction benchmarks is the size of
        # what they build: compared raw, like allocs/op.
        bstatus = "ok"
        if cur_b > base_b * (1 + threshold):
            bstatus = "BYTES REGRESSION"
            failed.append(name + " (bytes)")
        print(f"  {name}: {base_b} -> {cur_b} B/op {bstatus}")
    if failed:
        sys.exit(
            f"benchdelta: regression above {threshold:.0%} in: "
            + ", ".join(failed)
        )
    print("benchdelta: within budget")


def main():
    args = sys.argv[1:]
    if len(args) >= 3 and args[0] == "record":
        record(args[1], args[2])
    elif len(args) >= 3 and args[0] == "check":
        threshold = 0.25
        if "--threshold" in args:
            threshold = float(args[args.index("--threshold") + 1])
        check(args[1], args[2], threshold)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
