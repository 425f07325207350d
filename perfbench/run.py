#!/usr/bin/env python3
"""tlsharm benchmark runner.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a tlsharm checkout. It builds the CLI (and, with
--trace 1, the layer-trace program) from source, then drives the workload
through the ``tlsharm`` binary one fresh process per step, checks every
output, and prints one JSON result as its last line of standard output.
See perfbench/README.md for the workloads and metrics.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
from harness import RunFailed, checked, median, run_proc  # noqa: E402

CLI = os.path.join("_build", "default", "bin", "tlsharm_cli.exe")
# The layer-trace program builds only in the perfbench profile, in a build
# directory of its own, so the repository's own builds never compile it.
TRACE_BUILD = ".perfbench-build"
TRACER = os.path.join(TRACE_BUILD, "default", "perfbench", "trace", "layer_trace.exe")
WORK = ".perfbench-work"

# Run sizes. Every workload uses the smallest world the model allows: a
# comparison of two commits takes 92 runs (4 + 22 per workload) that must
# fit in under an hour, and the CLI's 4000-domain default costs 3.5 s per
# world build and 4.5 s per campaign day on a 2-core host.
DOMAINS = 1500
CAMPAIGN_DAYS = 7  # the shortest campaign whose 7d+ lifetime share can be non-zero
TRAFFIC_USERS = 400
TRAFFIC_DAYS = 2
FUZZ_DRIVES = 20_000
PAR_JOBS = 2
SETUP_REPEATS = 5
FUZZ_SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "alloc_gib": "GiB",
}

PER_LAYER = {
    "simnet.world_build_s": "s", "simnet.world_alloc_mib": "MiB",
    "scanner.scan_s": "s", "scanner.day_s_p50": "s", "scanner.day_s_max": "s",
    "scanner.probes": "count", "scanner.probe_failures": "count",
    "scanner.alloc_kib_per_domain_day": "KiB",
    "scanner.shards": "count", "scanner.shard_wall_max_s": "s",
    "scanner.shard_wall_mean_s": "s", "scanner.worker_idle_s": "s",
    "tls.full_handshake_us": "us", "tls.resume_ticket_us": "us",
    "tls.full_handshakes": "count", "tls.resumed": "count", "tls.tickets_issued": "count",
    "crypto.pow_mod": "1/unit", "crypto.pow_mod_fixed": "1/unit",
    "crypto.ec_scalar_mult": "1/unit", "crypto.ec_scalar_mult_base": "1/unit",
    "crypto.pow_mod_sim_ns": "ns", "crypto.ec_mult_sim_ns": "ns",
    "durable.csv_write_s": "s", "durable.spool_write_s": "s",
    "durable.archive_read_s": "s", "durable.archive_mib": "MiB",
    "analysis.lifetime_s": "s", "analysis.tracking_s": "s",
    "traffic.simulate_s": "s", "traffic.connects": "count", "traffic.conn_failed": "count",
    "traffic.alloc_kib_per_conn": "KiB",
    "faults.fuzz_drive_us_p50": "us", "faults.fuzz_drive_us_p99": "us",
    "faults.fuzz_alloc_kib_per_drive": "KiB", "faults.fuzz_parsed": "count",
    "faults.fuzz_rejected": "count",
    "gc.minor_collections": "count", "gc.major_collections": "count",
    "gc.promoted_mib": "MiB", "other_s": "s", "obs.trace_overhead_s": "s",
}


def world_seed(seed):
    return "bench-%d" % seed


def cli(*args):
    return [CLI] + [str(a) for a in args]


def run_env():
    """The run process's environment: the runtime prints its allocation
    totals at exit (v=0x400), which changes no GC setting."""
    env = dict(os.environ)
    param = env.get("OCAMLRUNPARAM", "")
    env["OCAMLRUNPARAM"] = (param + "," if param else "") + "v=0x400"
    return env


class Unit:
    """One timed repetition of a workload: the run command plus its analyze step."""

    def __init__(self, procs, run, work, failed, digest, telemetry=None):
        self.wall_s = sum(p.wall_s for p in procs)
        self.cpu_s = sum(p.cpu_s for p in procs)
        self.peak_rss_mib = run.maxrss_kib / 1024.0
        self.alloc_gib = harness.alloc_gib(run.stderr)
        self.work = work
        self.failed = failed
        self.digest = digest
        self.telemetry = telemetry  # per-layer counters when the run wrote --metrics-out

    def metrics(self):
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "work_per_s": self.work / self.wall_s,
                "peak_rss_mib": self.peak_rss_mib, "alloc_gib": self.alloc_gib}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --- workloads -----------------------------------------------------------------------------


def telemetry_args(out_dir, telemetry, trace=False):
    """Extra run arguments that make the real binary write its counters
    (and, with [trace], its span counts), and the files it writes them to."""
    if not telemetry:
        return [], None, None
    metrics, spans = os.path.join(out_dir, "metrics.json"), os.path.join(out_dir, "trace.json")
    return (["--metrics-out", metrics] + (["--trace-out", spans] if trace else []),
            metrics, spans if trace else None)


class Campaign:
    """Serial daily scan (--jobs 1) archived as CSV, then analyzed."""

    name = "campaign"

    def __init__(self, seed):
        self.seed = world_seed(seed)

    def setup_argv(self):
        return cli("world-info", "--domains", DOMAINS, "--seed", self.seed)

    def check_setup(self, proc):
        checks.check_world_info(proc.stdout, DOMAINS)

    def campaign_argv(self, out_dir):
        path = os.path.join(out_dir, "campaign.csv")
        return cli("campaign", "--domains", DOMAINS, "--days", CAMPAIGN_DAYS, "--seed", self.seed,
                   "--jobs", 1, "-o", path), path

    def unit(self, telemetry=False):
        out = fresh_dir(os.path.join(WORK, self.name))
        argv, path = self.campaign_argv(out)
        extra, metrics, _ = telemetry_args(out, telemetry)
        run = checked(run_proc(argv + extra, env=run_env()))
        ana = checked(run_proc(cli("analyze", path)))
        with open(path) as f:
            series, n_days, rows = checks.parse_campaign_csv(f.read())
        if rows != DOMAINS * CAMPAIGN_DAYS:
            checks.fail("campaign: %d rows, not %d domains x %d days", rows, DOMAINS, CAMPAIGN_DAYS)
        self.check_archive(series, n_days, ana.stdout)
        counters = metrics and checks.probe_counters(checks.read_durable_json(metrics), rows)
        return Unit([run, ana], run, rows, 0, checks.archive_digest(series), counters)

    def check_archive(self, series, n_days, analyze_stdout):
        domains, days, printed = checks.parse_analyze(analyze_stdout)
        if (domains, days, n_days, len(series)) != (DOMAINS, CAMPAIGN_DAYS, CAMPAIGN_DAYS, DOMAINS):
            checks.fail("campaign: archive holds %d domains x %d days", len(series), n_days)
        checks.check_lifetimes(series, printed)

    def tracer_args(self):
        return ["--domains", DOMAINS, "--days", CAMPAIGN_DAYS, "--seed", self.seed]


class CampaignPar(Campaign):
    """The same world and days on the parallel engine (--jobs 2), streamed
    through the durable spool. Its analyze output must equal the serial
    campaign's, which each run computes once, untimed, before timing."""

    name = "campaign-par"

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = None

    def prepare(self):
        out = fresh_dir(os.path.join(WORK, "serial-reference"))
        argv, path = self.campaign_argv(out)
        checked(run_proc(argv))
        self.reference = checked(run_proc(cli("analyze", path))).stdout
        shutil.rmtree(out, ignore_errors=True)

    def unit(self, telemetry=False):
        out = fresh_dir(os.path.join(WORK, self.name))
        sink = os.path.join(out, "archive")
        extra, metrics, spans = telemetry_args(out, telemetry, trace=True)
        run = checked(run_proc(cli("campaign", "--domains", DOMAINS, "--days", CAMPAIGN_DAYS,
                                   "--seed", self.seed, "--jobs", PAR_JOBS, "--stream-out", sink)
                               + extra, env=run_env()))
        ana = checked(run_proc(cli("analyze", sink)))
        series, n_days = checks.parse_campaign_stream(sink)
        self.check_archive(series, n_days, ana.stdout)
        if ana.stdout != self.reference:
            checks.fail("campaign-par: analyze output differs from the serial campaign's")
        work = DOMAINS * CAMPAIGN_DAYS
        counters = None
        if metrics:
            counters = checks.probe_counters(checks.read_durable_json(metrics), work)
            counters["scanner.shards"] = checks.span_count(checks.read_durable_json(spans),
                                                           "campaign.shard")
        return Unit([run, ana], run, work, 0, checks.archive_digest(series), counters)

    def tracer_args(self):
        return super().tracer_args() + ["--jobs", PAR_JOBS]


class Traffic:
    """Client population at the default (strict) policy, streamed, then analyzed."""

    name = "traffic"

    def __init__(self, seed):
        self.seed = world_seed(seed)

    setup_argv = Campaign.setup_argv
    check_setup = Campaign.check_setup

    def archive(self):
        return os.path.join(WORK, self.name, "archive")

    def unit(self, telemetry=False):
        out = fresh_dir(os.path.join(WORK, self.name))
        sink = self.archive()
        extra, metrics, _ = telemetry_args(out, telemetry)
        run = checked(run_proc(cli("traffic", "--domains", DOMAINS, "--days", TRAFFIC_DAYS,
                                   "--users", TRAFFIC_USERS, "--seed", self.seed, "--jobs", 1,
                                   "--stream-out", sink) + extra, env=run_env()))
        ana = checked(run_proc(cli("analyze", sink)))
        connections, table = checks.parse_traffic_run(run.stdout)
        if ana.stdout != table:
            checks.fail("traffic: analyze output differs from the table the run printed")
        checks.check_tracking_table(table, connections)
        counters = metrics and checks.traffic_counters(checks.read_durable_json(metrics),
                                                       connections)
        return Unit([run, ana], run, connections, 0, tree_digest(sink), counters)

    def tracer_args(self):
        # The tracer's sink takes the manifest the real binary wrote.
        return ["--domains", DOMAINS, "--days", TRAFFIC_DAYS, "--users", TRAFFIC_USERS,
                "--seed", self.seed, "--archive", self.archive()]


class Fuzz:
    """The wire fuzzer at a fixed drive count: codec reject paths, no world."""

    name = "fuzz"

    def __init__(self, seed):
        self.seed = "bench-fuzz-%d" % seed

    def setup_argv(self):
        return cli("fuzz", "--count", 1, "--fuzz-seed", self.seed)

    def check_setup(self, proc):
        checks.parse_fuzz(proc.stdout, 1)

    def unit(self, telemetry=False):
        """The fuzz command writes no metrics file: its counts are the ones
        its summary prints."""
        run = run_proc(cli("fuzz", "--count", FUZZ_DRIVES, "--fuzz-seed", self.seed), env=run_env())
        parsed, rejected, escapes, _ = checks.parse_fuzz(run.stdout, FUZZ_DRIVES)
        if escapes == 0:
            checked(run)
        elif run.exit_code == 0:
            checks.fail("fuzz: exit 0 with %d escapes", escapes)
        counters = telemetry and {"faults.fuzz_parsed": parsed, "faults.fuzz_rejected": rejected}
        return Unit([run], run, FUZZ_DRIVES, escapes,
                    hashlib.sha256(run.stdout.encode()).hexdigest(), counters)

    def tracer_args(self):
        return ["--drives", FUZZ_DRIVES, "--seed", self.seed]


def tree_digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (Campaign, CampaignPar, Traffic, Fuzz)}


# --- driving a run -------------------------------------------------------------------------


def build(trace):
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "dune"))):
        raise RunFailed("not the root of a tlsharm checkout (no dune-project or bin/dune)")
    dune = ["dune", "build", "--root", ".", "--display", "quiet"]
    checked(run_proc(dune + ["--build-dir", "_build", "./bin/tlsharm_cli.exe"], timeout=840))
    if trace:
        checked(run_proc(dune + ["--build-dir", TRACE_BUILD, "--profile", "perfbench",
                                 "./perfbench/trace/layer_trace.exe"], timeout=840))


def measure_setup(w):
    repeats = FUZZ_SETUP_REPEATS if w.name == "fuzz" else SETUP_REPEATS
    walls = []
    for _ in range(repeats):
        p = checked(run_proc(w.setup_argv()))
        w.check_setup(p)
        walls.append(p.wall_s)
    return median(walls)


def measure_units(w, seconds):
    """Whole units until [seconds] are spent: a next unit starts only if, at
    the mean unit time so far, it would end within half a unit of the limit."""
    units, t0 = [], time.perf_counter()
    while True:
        units.append(w.unit())
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(units) > seconds:
            break
    check_digests(w, units)
    return units


def check_digests(w, units):
    digests = {u.digest for u in units}
    if len(digests) != 1:
        checks.fail("%s: %d different archive digests across identical runs", w.name, len(digests))


def summarize(units):
    """Per-run figures from the units of one run.

    Load from other tenants of a shared host slows identical work by up to
    2x, in phases of seconds to many minutes, and never speeds it up. The
    fastest unit is therefore the steadiest estimate of the program's own
    cost: times report the best unit. Memory figures, which those bursts
    do not move, report the median."""
    per_unit = [u.metrics() for u in units]
    best = {"wall_s": min, "cpu_s": min, "work_per_s": max}
    return {name: best.get(name, median)([m[name] for m in per_unit])
            for name in END_TO_END if name != "setup_s"}


def run_traced(w, untraced_wall):
    """Per-layer metrics of one workload. Counters come from one more unit
    of the real binary with --metrics-out; spans from one layer-trace
    process that does the workload in-process. A layer the workload never
    calls reads 0. Returns the metrics and that extra unit."""
    counted = w.unit(telemetry=True)
    out = fresh_dir(os.path.join(WORK, "trace"))
    result_path = os.path.join(out, "result.json")
    argv = [TRACER, "--workload", w.name, "--out", result_path, "--work-dir", out]
    checked(run_proc(argv + [str(a) for a in w.tracer_args()]))
    with open(result_path) as f:
        result = json.load(f)
    if result["failed_checks"]:
        checks.fail("traced run: %s", "; ".join(result["failed_checks"]))
    values = dict.fromkeys(PER_LAYER, 0)
    for source in (result["metrics"], counted.telemetry):
        unknown = set(source) - set(PER_LAYER)
        if unknown:
            checks.fail("traced run: unknown metrics %s", sorted(unknown))
        values.update(source)
    values["obs.trace_overhead_s"] = result["wall_s"] - untraced_wall
    return {name: {"value": v, "unit": PER_LAYER[name]} for name, v in values.items()}, counted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    steal0 = harness.read_steal_ticks()
    try:
        build(args.trace == 1)
        w = WORKLOADS[args.workload](args.seed)
        shutil.rmtree(WORK, ignore_errors=True)
        if hasattr(w, "prepare"):
            w.prepare()
        if args.trace == 0:
            metrics = {"setup_s": {"value": measure_setup(w), "unit": "s"}}
        units = measure_units(w, args.seconds)
        best = summarize(units)
        if args.trace == 0:
            metrics.update({name: {"value": v, "unit": END_TO_END[name]} for name, v in best.items()})
        else:
            metrics, counted = run_traced(w, best["wall_s"])
            check_digests(w, units + [counted])
            units.append(counted)
        attempted = sum(u.work for u in units)
        failed = sum(u.failed for u in units)
    except RunFailed as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"host": harness.host_block(steal0, harness.read_steal_ticks()),
                      "digest": units[0].digest,
                      "units": [{k: round(v, 6) for k, v in u.metrics().items()} for u in units]}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
