"""Where the kernel waits: a SIGPROF program-counter sampler over one run.

    PYTHONPATH=src python tools/pcsample.py --network tree --k 4 --n 4 --vcs 4 \\
        --load 0.9 --cycles 40000
    PYTHONPATH=src python tools/pcsample.py --smoke

Steps one engine for ``--cycles`` cycles (after ``SETTLE`` unsampled ones)
while a timer raises SIGPROF every ``INTERVAL_US`` and the handler — a few
lines of C, compiled with the interpreter's own compiler into a temporary
directory and loaded through ``ctypes`` — notes the interrupted program
counter.  (The timer runs on the monotonic clock: ``ITIMER_PROF`` ticks at the
kernel's HZ, 4 ms here, and the stepping process is one busy thread.)
Samples are resolved against ``nm`` and ``objdump`` of the kernel
(``native.build_log["path"]``) and printed as shares: per mapped file, per
function of the most sampled file besides the kernel (the interpreter's
shared library; ``nm -D``'s exported symbols if it is stripped), per
function of the kernel, and for the
kernel's leading functions per instruction.  A
sample names the instruction the processor was *about to retire*, so a load
that misses shows up on the first instruction that needs its result.

Point ``PYTHONPATH`` at another checkout's ``src`` to profile that kernel;
``--smoke`` is CI's check that the tool still works (64 nodes, 2000 cycles,
samples must land in the kernel).  Linux on x86-64 or aarch64.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import ctypes
import os
import pathlib
import re
import shlex
import subprocess
import sys
import sysconfig
import tempfile

SETTLE, INTERVAL_US = 500, 500  # cycles stepped before sampling starts; time between samples
SMOKE = {"k": 4, "n": 3, "cycles": 2000}  # 64 nodes, about a second
SMOKE_SETTLE, SMOKE_INTERVAL_US = 100, 200
FUNCTIONS, DETAILED, INSTRUCTIONS = 10, 3, 6  # functions listed; of them by instruction; instructions each

SAMPLER = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>

static unsigned long long *pcs;
static long room, taken;
static timer_t timer;

static void
on_tick(int sig, siginfo_t *info, void *context)
{
    mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
    if (taken < room)
#if defined(__x86_64__)
        pcs[taken++] = m->gregs[REG_RIP];
#elif defined(__aarch64__)
        pcs[taken++] = m->pc;
#else
#error "pcsample.py knows x86-64 and aarch64"
#endif
}

int
sample_into(unsigned long long *buffer, long capacity, long interval_us)
{
    struct sigaction action;
    struct sigevent event;
    struct itimerspec every = {{0, interval_us * 1000}, {0, interval_us * 1000}};
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_tick;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    memset(&event, 0, sizeof event);
    event.sigev_notify = SIGEV_SIGNAL;
    event.sigev_signo = SIGPROF;
    pcs = buffer, room = capacity, taken = 0;
    return sigaction(SIGPROF, &action, NULL) || timer_create(CLOCK_MONOTONIC, &event, &timer)
           || timer_settime(timer, 0, &every, NULL);
}

long
sample_stop(void)
{
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);
    return taken;
}
"""


def build_sampler(scratch: str):
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    source, shared = os.path.join(scratch, "sampler.c"), os.path.join(scratch, "sampler.so")
    pathlib.Path(source).write_text(SAMPLER)
    subprocess.run([*compiler, "-O1", "-fPIC", "-shared", source, "-o", shared], check=True)
    lib = ctypes.CDLL(shared)
    lib.sample_into.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_long)
    lib.sample_into.restype = ctypes.c_int
    lib.sample_stop.argtypes = ()
    lib.sample_stop.restype = ctypes.c_long
    return lib


def mappings() -> list[tuple[int, int, int, str]]:
    """``(start, end, file offset, path)`` of every executable file mapping."""
    out = []
    for line in pathlib.Path("/proc/self/maps").read_text().splitlines():
        fields = line.split(None, 5)
        if len(fields) == 6 and "x" in fields[1] and fields[5].startswith("/"):
            start, end = (int(x, 16) for x in fields[0].split("-"))
            out.append((start, end, int(fields[2], 16), fields[5]))
    return out


def load_bias(path: str, start: int, offset: int) -> int:
    """What to subtract from an address inside the mapping ``(start, offset)``
    of ``path`` to get the address ``nm`` and ``objdump`` print."""
    headers = subprocess.run(["objdump", "-p", path], capture_output=True, text=True, check=True).stdout
    for off, vaddr in re.findall(r"LOAD off\s+0x([0-9a-f]+) vaddr 0x([0-9a-f]+)", headers):
        if int(off, 16) == offset:
            return start - int(vaddr, 16)
    return start - offset


def functions(path: str) -> list[tuple[int, int, str]]:
    """``(address, size, name)`` of the text symbols of ``path``, by address:
    from its symbol table, or from its exported symbols (``nm -D``) alone
    when it was stripped of one."""
    for only_exported in ([], ["-D"]):
        listing = subprocess.run(["nm", "-S", "--defined-only", *only_exported, path], capture_output=True, text=True)
        found = []
        for line in listing.stdout.splitlines():
            fields = line.split()
            if len(fields) == 4 and fields[2] in "tT":
                found.append((int(fields[0], 16), int(fields[1], 16), fields[3]))
        if found:
            return sorted(found)
    return []


def disassembly(path: str, start: int, size: int) -> dict[int, str]:
    listing = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", f"--start-address={start}", f"--stop-address={start + size}", path],
        capture_output=True, text=True, check=True,
    )
    lines = {}
    for line in listing.stdout.splitlines():
        match = re.match(r"\s*([0-9a-f]+):\s+(.*)", line)
        if match:
            lines[int(match.group(1), 16)] = " ".join(match.group(2).split())
    return lines


def profile(config, settle: int, cycles: int, interval_us: int) -> tuple[list[int], object]:
    from repro.sim.run import build_engine

    engine = build_engine(config)
    engine._start_run()
    for _ in range(settle):
        engine.step()
    with tempfile.TemporaryDirectory() as scratch:
        lib = build_sampler(scratch)
        buffer = (ctypes.c_ulonglong * 1_000_000)()
        if lib.sample_into(buffer, len(buffer), interval_us):
            sys.exit("error: the profiling timer could not be set")
        try:
            for _ in range(cycles):
                engine.step()
        finally:
            taken = lib.sample_stop()
    engine.audit()
    return list(buffer[:taken]), engine


def by_function(addresses: list[int], symbols: list[tuple[int, int, str]]) -> list[tuple[str, collections.Counter]]:
    """Each function of ``symbols`` with the sampled addresses inside it,
    the most sampled first."""
    starts = [start for start, _, _ in symbols]
    per_function: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
    for address in addresses:
        i = bisect.bisect_right(starts, address) - 1
        inside = i >= 0 and address < symbols[i][0] + max(symbols[i][1], 1)
        per_function[symbols[i][2] if inside else "(no symbol)"][address] += 1
    return sorted(per_function.items(), key=lambda kv: -sum(kv[1].values()))


def print_functions(ranked, total: int, title: str) -> None:
    print(f"\n{total} samples {title}, by function")
    for name, hits in ranked[:FUNCTIONS]:
        count = sum(hits.values())
        print(f"  {count:7d}  {count / total:6.1%}  {name}")


def report(pcs: list[int], kernel: str) -> int:
    """Print the tables; the number of samples inside the kernel."""
    maps = mappings()
    per_file = collections.Counter()
    per_path: dict[str, list[int]] = collections.defaultdict(list)
    mapped_at: dict[str, tuple[int, int]] = {}
    for pc in pcs:
        for start, end, offset, path in maps:
            if start <= pc < end:
                per_file[os.path.basename(path)] += 1
                per_path[path].append(pc)
                mapped_at.setdefault(path, (start, offset))
                break
        else:
            per_file["(elsewhere)"] += 1
    print(f"{len(pcs)} samples")
    for name, count in per_file.most_common(6):
        print(f"  {count:7d}  {count / len(pcs):6.1%}  {name}")

    def addresses(path: str) -> list[int]:
        """The samples in ``path`` as the addresses ``nm`` prints."""
        bias = load_bias(path, *mapped_at[path])
        return [pc - bias for pc in per_path[path]]

    # the interpreter's share (libpython, mostly): attribute lookups, the eval loop
    others = [path for path in per_path if path != kernel]
    if others:
        largest = max(others, key=lambda path: len(per_path[path]))
        ranked = by_function(addresses(largest), functions(largest))
        print_functions(ranked, len(per_path[largest]), f"in {os.path.basename(largest)}")
    if kernel not in per_path:
        return 0
    inside = addresses(kernel)
    symbols = functions(kernel)
    ranked = by_function(inside, symbols)
    print_functions(ranked, len(inside), "in the kernel")
    by_name = {name: (start, size) for start, size, name in symbols}
    for name, hits in ranked[:DETAILED]:
        if name not in by_name:
            continue
        text = disassembly(kernel, *by_name[name])
        total = sum(hits.values())
        leading = hits.most_common(INSTRUCTIONS)
        print(f"\n{name}: {sum(count for _, count in leading)} of {total} samples on {len(leading)} instructions")
        for address, count in leading:
            print(f"  {count:7d}  {count / total:6.1%}  +{address - by_name[name][0]:#06x}  {text.get(address, '?')}")
    return len(inside)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--network", choices=("tree", "cube"), default="tree")
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--vcs", type=int, default=4)
    parser.add_argument("--load", type=float, default=0.9)
    parser.add_argument("--cycles", type=int, default=40000)
    parser.add_argument("--smoke", action="store_true", help="a 64-node run; fails unless samples land in the kernel")
    args = parser.parse_args(argv)
    settle, interval_us = SETTLE, INTERVAL_US
    if args.smoke:
        vars(args).update(SMOKE)
        settle, interval_us = SMOKE_SETTLE, SMOKE_INTERVAL_US

    from repro.sim import native
    from repro.sim.run import cube_config, tree_config

    kernel = native.build_log.get("path")
    if kernel is None:
        sys.exit("error: the compiled phases were not built; there is no kernel to sample")
    make = tree_config if args.network == "tree" else cube_config
    config = make(k=args.k, n=args.n, vcs=args.vcs, load=args.load, warmup_cycles=0, total_cycles=settle + args.cycles)
    pcs, engine = profile(config, settle, args.cycles, interval_us)
    print(f"{config.label()}: cycles {settle}..{engine.cycle}, one sample per {interval_us} us, {kernel}")
    inside = report(pcs, kernel)
    if args.smoke and inside < 20:
        sys.exit(f"error: {inside} of {len(pcs)} samples landed in the kernel")
    return 0


if __name__ == "__main__":
    sys.exit(main())
