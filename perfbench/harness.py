"""Process timing, runtime statistics and host facts for the benchmark.

Every timed process is spawned and reaped here with wait4(2), so its CPU
time and peak RSS are the process's own: RUSAGE_CHILDREN would report the
largest child ever reaped, not the one just run.
"""

import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class Proc:
    argv: list
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    exit_code: int
    stdout: str
    stderr: str


class RunFailed(Exception):
    """A step of a run failed: a non-zero exit or a failed output check."""


def run_proc(argv, *, env=None, timeout=150.0):
    """Run [argv] to completion and measure it from outside.

    Wall time runs from just before the spawn to the reap. CPU time and
    peak RSS come from the rusage wait4 returns for this one pid."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    chunks = {out_r: [], err_r: []}

    def drain(fd):
        with os.fdopen(fd, "rb") as f:
            chunks[fd].append(f.read())

    t0 = time.perf_counter()
    p = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                         stdout=out_w, stderr=err_w, close_fds=True)
    os.close(out_w)
    os.close(err_w)
    readers = [threading.Thread(target=drain, args=(fd,)) for fd in (out_r, err_r)]
    for th in readers:
        th.start()
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    for th in readers:
        th.join()
    return Proc(argv=list(argv), wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                maxrss_kib=ru.ru_maxrss, exit_code=p.returncode,
                stdout=b"".join(chunks[out_r]).decode("utf-8", "replace"),
                stderr=b"".join(chunks[err_r]).decode("utf-8", "replace"))


def checked(proc):
    """[proc] itself, or RunFailed naming the command and its stderr tail."""
    if proc.exit_code != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RunFailed("exit %d from %s: %s" % (proc.exit_code, " ".join(proc.argv),
                                                 " | ".join(tail)))
    return proc


def parse_gc_exit_stats(stderr):
    """The runtime's exit statistics (OCAMLRUNPARAM=v=0x400) as a dict.

    Lines look like ``allocated_words: 702942242``; other stderr lines are
    ignored. Values are ints where they parse as ints, else floats."""
    stats = {}
    for line in stderr.splitlines():
        key, sep, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not sep or not key.replace("_", "").isalpha() or not value:
            continue
        try:
            stats[key] = int(value)
        except ValueError:
            try:
                stats[key] = float(value)
            except ValueError:
                continue
    return stats


def alloc_gib(stderr):
    stats = parse_gc_exit_stats(stderr)
    if "allocated_words" not in stats:
        raise RunFailed("no allocated_words in the runtime's exit statistics")
    return stats["allocated_words"] * 8 / 2**30


def read_steal_ticks():
    """Total steal ticks of all CPUs from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8])


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                              text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def host_block(steal_before, steal_after):
    steal = None
    if steal_before is not None and steal_after is not None:
        steal = steal_after - steal_before
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "ocaml": ocaml_version(),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "loadavg": list(os.getloadavg()),
        "steal_ticks": steal,
        "clk_tck": os.sysconf("SC_CLK_TCK"),
    }


median = statistics.median


def iqr_share(values):
    """Distance between first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q3 - q1) / m if m else float("inf")
