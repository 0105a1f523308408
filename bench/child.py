"""Untraced ``pqnetsim`` invocation that records its own peak RSS.

Run as a child process in place of ``python -m pqnetsim.cli``::

    python bench/child.py PEAK_FILE -- CLI_ARGS...

It runs ``pqnetsim.cli`` as ``python -m pqnetsim.cli CLI_ARGS`` would, with
the same exit code, then writes the process's VmHWM (the peak resident set of
its own address space, in kB) to PEAK_FILE.  ``ru_maxrss`` from ``wait4`` is
no substitute on Linux: a spawned child's ``ru_maxrss`` starts from the
spawning process's peak RSS, so it would report the benchmark's own memory.
"""

import runpy
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> None:
    peak_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py PEAK_FILE -- CLI_ARGS...")
    sys.argv = ["pqnetsim", *cli_args]
    try:
        runpy.run_module("pqnetsim.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(peak_path, "w", encoding="ascii") as handle:
            handle.write(f"{peak_rss_kb()}\n")


if __name__ == "__main__":
    main()
