#!/usr/bin/env python3
"""Build localsim and the perfbench driver from this checkout, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload build_heavy --seed 1 --seconds 25 --trace 0

All build output, the Go build cache, job stores and trace files go
under .bench_build/ (or $CARGO_TARGET_DIR, relative to the root), so a
run reads and writes nothing outside the checkout. The arguments are
passed to the driver unchanged; see perfbench/main.go.
"""
import os
import subprocess
import sys

bench = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(bench)
work = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
env = dict(
    os.environ,
    GOCACHE=os.path.join(work, "gocache"),
    GOPATH=os.path.join(work, "gopath"),
    GOENV="off",
    GOTOOLCHAIN="local",
    GOPROXY="off",
    GOFLAGS="-buildvcs=false",
    GOWORK="off",
)
localsim = os.path.join(work, "bin", "localsim")
driver = os.path.join(work, "bin", "perfbench")
for cwd, out, pkg in ((root, localsim, "./cmd/localsim"), (bench, driver, ".")):
    if subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build of %s failed" % pkg)
os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
# One P for every benchmark process: on a 2-vCPU VM whose neighbours
# change its speed, two Ps made build_heavy both slower (2.20 s against
# 1.93 s median wall) and 2.6x noisier between runs. See README.md.
env["GOMAXPROCS"] = "1"
os.execve(driver, [driver, "-localsim", localsim, "-work", os.path.join(work, "tmp")] + sys.argv[1:], env)
