"""Opcode and call ledger of one Fig. 8 matrix pass, per function.

Runs the benchmark's ``fig8-matrix`` cells (terasort, join, aggregation,
pagerank x default, static 8, dynamic; HDD, 4 nodes) in process and
counts, for every Python function, the opcodes it executed
(``sys.settrace`` opcode events) and its calls (``cProfile``, which also
sees builtins such as ``list.append`` and ``math.isfinite``).  Opcode
counts do not depend on the host or its load, so two trees can be
compared on a busy machine; they are not wall time.

    PYTHONPATH=src python benchmarks/perf/opcodes.py               # full
    PYTHONPATH=src python benchmarks/perf/opcodes.py --scale 0.01  # quick

The opcode pass runs about 40x slower than an untraced one (about ten
minutes at full size).
"""

import argparse
import cProfile
import pstats
import sys
from collections import defaultdict

from repro.harness.runner import run_workload

SEED = 42
APPS = ("terasort", "join", "aggregation", "pagerank")
POLICIES = ("default", ("static", 8), "dynamic")

#: Kernel entry points listed with their calls, whatever their rank.
KERNEL = ("_on_wake", "_advance", "_reschedule", "submit", "uniform_rate",
          "rates", "call_in", "_admit", "_retire", "_price", "__init__",
          "<dictcomp>", "request", "_start_transfer")
BUILTINS = ("<method 'append' of 'list' objects>",
            "<built-in method math.isfinite>",
            "<built-in method builtins.min>")


def matrix(scale, seed):
    for app in APPS:
        for policy in POLICIES:
            run_workload(app, policy=policy,
                         workload_kwargs={"scale": scale}, seed=seed)


def _module(path):
    return path.rsplit("/src/", 1)[-1]


def count_opcodes(scale, seed):
    """Opcodes executed per function over one matrix pass, keyed like
    :func:`count_calls`: ``module:line:qualified name``."""
    counts = defaultdict(int)

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        matrix(scale, seed)
    finally:
        sys.settrace(None)
    by_function = defaultdict(int)
    for code, n in counts.items():
        by_function[f"{_module(code.co_filename)}:{code.co_firstlineno}:"
                    f"{code.co_qualname}"] += n
    return by_function


def count_calls(scale, seed):
    """Calls per function (Python and builtin) over one matrix pass."""
    profiler = cProfile.Profile()
    profiler.runcall(matrix, scale, seed)
    calls = defaultdict(int)
    for (path, line, name), row in pstats.Stats(profiler).stats.items():
        # cProfile names functions by their first line, not their class.
        key = name if path == "~" else f"{_module(path)}:{line}"
        calls[key] += row[1]  # primitive + recursive calls
    return calls


def _calls(calls, label):
    return calls.get(label.rsplit(":", 1)[0], 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1)
    args = parser.parse_args(argv)
    matrix(args.scale, SEED)  # warm imports and caches, uncounted
    calls = count_calls(args.scale, SEED)
    opcodes = count_opcodes(args.scale, SEED)
    total = sum(opcodes.values())
    by_module = defaultdict(int)
    for label, n in opcodes.items():
        by_module[label.split(":")[0]] += n
    print(f"opcodes per pass: {total:,}")
    print("\nby module:")
    for module, n in sorted(by_module.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {n:>13,}  {100 * n / total:5.1f}%  {module}")
    print("\nby function (opcodes, share, calls, opcodes/call):")
    for label, n in sorted(opcodes.items(), key=lambda kv: -kv[1])[:30]:
        _row(label, n, total, _calls(calls, label))
    print("\nkernel functions (opcodes, share, calls, opcodes/call):")
    for name in BUILTINS:
        _row(name, 0, total, calls.get(name, 0))
    for label, n in sorted(opcodes.items()):
        if (label.startswith(("repro/simulation/", "repro/storage/device"))
                and label.rsplit(".", 1)[-1].rsplit(":", 1)[-1] in KERNEL):
            _row(label, n, total, _calls(calls, label))


def _row(label, n, total, ncalls):
    per = f"{n / ncalls:8.1f}" if ncalls and n else "       -"
    print(f"  {n:>13,}  {100 * n / total:5.1f}%  {ncalls:>10,}  {per}  {label}")


if __name__ == "__main__":
    main()
