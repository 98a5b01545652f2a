#!/usr/bin/env python3
"""Digest of every craft_* tool's outputs on a fixed set of invocations.

Usage: tools/tool-digests.py BUILD_DIR

Runs each invocation below in a fresh temporary directory and prints, per
invocation, its exit code and one sha256 per output: stdout, stderr where it
is deterministic, and every file it writes. Host wall-clock readings are
zeroed before hashing (`wall_ns`, `craft_process_wall_ns_total` samples and
the value of every `*_n_variant` key); everything else must repeat byte for
byte. The ctest `tool_outputs_golden` diffs this output against
tests/tool_outputs.golden, so a change that moves any tool output shows up as
a changed line naming the invocation and the output.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

# (label, tool under BUILD_DIR/src, arguments, hashed outputs). An output is
# "stdout", "stderr" or a path the invocation writes, relative to its
# working directory.
RUNS = [
    ("lint", "lint/craft_lint", ["--quiet", "--json", "--sarif=lint.sarif"],
     ["stdout", "stderr", "lint.sarif"]),
    ("prove", "analyze/craft_prove", ["--quiet", "--json", "--sarif=prove.sarif"],
     ["stdout", "stderr", "prove.sarif"]),
    ("stats_json", "stats/craft_stats",
     ["--quiet", "--json=stats.json", "--workload", "vecmul", "--workload", "dma_copy"],
     ["stdout", "stderr", "stats.json"]),
    # The human tables on stderr rank processes by wall time: not hashed.
    ("stats_openmetrics", "stats/craft_stats",
     ["--format", "openmetrics", "--workload", "dot"], ["stdout"]),
    ("trace", "trace/craft_trace",
     ["--workload", "conv2d", "-o", "trace.json", "--json=blame.json"],
     ["stdout", "stderr", "trace.json", "blame.json"]),
    ("trace_sync_all", "trace/craft_trace",
     ["--sync", "--workload", "all", "-o", "sync.json", "--quiet"],
     ["stdout", "stderr"] + ["sync.%s.json" % w for w in (
         "vecmul", "dot", "reduce", "conv1d", "kmeans", "dma_copy", "conv2d")]),
    ("chaos", "chaos/craft_chaos",
     ["--quick", "--quiet", "--json=chaos.json", "--cover=chaos_cover.json"],
     ["stdout", "stderr", "chaos.json", "chaos_cover.json"]),
    ("pulse", "pulse/craft_pulse", ["--quiet", "--json", "--openmetrics=pulse.om"],
     ["stdout", "stderr", "pulse.om"]),
    ("pulse_chaos", "pulse/craft_pulse", ["--chaos"], ["stdout", "stderr"]),
    ("pulse_gals", "pulse/craft_pulse",
     ["--design", "gals_pipeline", "--parallelism", "3"], ["stdout", "stderr"]),
    ("pulse_soc", "pulse/craft_pulse",
     ["--design", "soc_gals_2x2", "--workload", "dot", "--period", "100000",
      "--windows", "200"], ["stdout", "stderr"]),
    ("cover_run", "cover/craft_cover", ["run"], ["stdout", "stderr"]),
    ("cover_corrupt", "cover/craft_cover",
     ["run", "--design", "li_pipeline", "--chaos", "corrupt", "--seed", "3"],
     ["stdout", "stderr"]),
    ("cover_soc", "cover/craft_cover",
     ["run", "--design", "soc_gals_2x2:dot", "--chaos", "latency", "--seed", "7",
      "--parallelism", "4"], ["stdout", "stderr"]),
    ("farm", "farm/craft_farm", ["--quiet"],
     ["stdout", "stderr", "farm-out/farm.json", "farm-out/cover.json"]),
    ("pulse_list", "pulse/craft_pulse", ["--list"], ["stdout", "stderr"]),
    ("cover_list", "cover/craft_cover", ["run", "--list"], ["stdout", "stderr"]),
]

WALL_NS = re.compile(r'("wall_ns": )\d+')
OM_WALL = re.compile(r'^(craft_process_wall_ns_total(?:\{[^}]*\})? )\d+$', re.M)
N_VARIANT_KEY = re.compile(r'"[A-Za-z0-9_]*_n_variant": ')


def normalize(text):
    """Zeroes the host-timing fields; leaves every other byte alone."""
    text = WALL_NS.sub(r"\g<1>0", text)
    text = OM_WALL.sub(r"\g<1>0", text)
    decoder = json.JSONDecoder()
    out, pos = [], 0
    for m in N_VARIANT_KEY.finditer(text):
        if m.start() < pos:
            continue  # nested inside a value already replaced
        _, end = decoder.raw_decode(text, m.end())
        out.append(text[pos:m.end()] + "0")
        pos = end
    out.append(text[pos:])
    return "".join(out)


def digest(data):
    return hashlib.sha256(normalize(data).encode()).hexdigest()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    src = os.path.join(os.path.abspath(sys.argv[1]), "src")
    for label, tool, args, outputs in RUNS:
        with tempfile.TemporaryDirectory(prefix="craft-digests-") as cwd:
            proc = subprocess.run([os.path.join(src, tool)] + args, cwd=cwd,
                                  capture_output=True, text=True, timeout=600)
            print("%s exit %d" % (label, proc.returncode))
            for name in outputs:
                if name in ("stdout", "stderr"):
                    data = getattr(proc, name)
                else:
                    path = os.path.join(cwd, name)
                    if not os.path.exists(path):
                        print("%s %s missing" % (label, name))
                        continue
                    with open(path, encoding="utf-8") as f:
                        data = f.read()
                print("%s %s %s" % (label, name, digest(data)))


if __name__ == "__main__":
    main()
