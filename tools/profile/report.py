#!/usr/bin/env python3
"""Symbolizes sigprof.c samples and groups them by pipeline stage.

Usage: report.py [--top N] sigprof.<pid>.out...

Each sample's call stack (interrupted PC first, then return addresses) is
symbolized with `llvm-symbolizer --inlining`, so functions inlined into
`Processor::step` by LTO still show as their own frames. A sample is
charged to the first frame, innermost first, that lies in
`crates/core/src/processor.rs` and is not a closure (the stage function
it was in, or a helper of it such as `probe_head`); samples with no such
frame (set-up, the sweep
layer, other threads) are charged to "(outside processor.rs)". A second
table lists the innermost frames overall. Build the profiled binary with
`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only` so frames carry lines.
"""
import collections
import subprocess
import sys

STAGE_FILE = "crates/core/src/processor.rs"


def load(path):
    """One process's samples and memory map."""
    samples, maps = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("S "):
                samples.append([int(x, 16) for x in line.split()[1:]])
            elif line.startswith("M "):
                parts = line.split()
                if len(parts) >= 7:
                    lo, hi = (int(x, 16) for x in parts[1].split("-"))
                    maps.append((lo, hi, int(parts[3], 16), parts[6]))
    return samples, maps


def locate(maps, bases, addr):
    for lo, hi, _, path in maps:
        if lo <= addr < hi and path in bases:
            return path, addr - bases[path]
    return None


def symbolize(keys):
    """(path, vaddr) -> [(function, file), ...], innermost inline frame first."""
    keys = sorted(keys)
    query = "".join(f'"{path}" {vaddr:#x}\n' for path, vaddr in keys)
    out = subprocess.run(
        ["llvm-symbolizer", "--inlining", "--demangle", "--functions=linkage"],
        input=query, capture_output=True, text=True, check=True,
    ).stdout
    blocks = out.strip("\n").split("\n\n")
    result = {}
    for key, block in zip(keys, blocks):
        lines = block.split("\n")
        result[key] = [(lines[i], lines[i + 1]) for i in range(0, len(lines) - 1, 2)]
    return result


def stacks(samples, maps):
    # A file's first mapping (offset 0) sits at its load base; symbolizers
    # take addresses relative to that.
    bases = {path: lo for lo, _, offset, path in maps if offset == 0}
    for pc, *trace in samples:
        # backtrace() starts in the handler; the interrupted frame is `pc`.
        callers = trace[trace.index(pc) + 1:] if pc in trace else trace[2:]
        # Return addresses point after the call: symbolize the call itself.
        frames = [locate(maps, bases, pc)] + [locate(maps, bases, a - 1) for a in callers]
        yield [f for f in frames if f]


def short(function):
    """The function's name without its path, hash or signature."""
    name = function.split("(")[0].replace("dsmt_core::processor::", "")
    return name.rsplit("::h", 1)[0] if "::h" in name else name


def main(argv):
    top = 15
    if argv[:1] == ["--top"]:
        top, argv = int(argv[1]), argv[2:]
    resolved = [frames for path in argv for frames in stacks(*load(path))]
    if not resolved:
        sys.exit("no samples")
    symbols = symbolize({f for frames in resolved for f in frames})
    stages, leaves = collections.Counter(), collections.Counter()
    for frames in resolved:
        chain = [s for f in frames for s in symbols.get(f, [])]
        stage = next(
            (fn for fn, loc in chain if STAGE_FILE in loc and "{closure" not in fn), None
        )
        stages[short(stage) if stage else "(outside processor.rs)"] += 1
        leaves[short(chain[0][0]) if chain else "??"] += 1
    total = len(resolved)
    for title, counter in (("stage (first processor.rs frame)", stages), ("innermost frame", leaves)):
        print(f"\n{total} samples by {title}")
        for name, n in counter.most_common(top):
            print(f"{100.0 * n / total:6.1f}%  {n:7d}  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
