"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import resource
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True

import checks  # noqa: E402
import harness  # noqa: E402
from harness import RunFailed  # noqa: E402

DAYS = 8


def csv_row(domain, rank, weight, trusted, stable, day, stek="", ecdhe="", dhe=""):
    b = lambda v: "true" if v else "false"  # noqa: E731
    return ",".join([domain, str(rank), repr(weight), b(trusted), b(stable), str(day), "true", "true",
                     stek, "100800" if stek else "", ecdhe, b(bool(dhe)), dhe])


def hand_written_csv():
    """Four domains over eight days with known lifetime shares.

    a.com (weight 1): one STEK all eight days (span 8); no DHE; a fresh
      ECDHE value each of days 0 and 1 (span 1).
    b.com (weight 3): STEK k2 on days 0 and 2 (span 3, the gap counts);
      DHE d1 on days 0-1 (span 2); ECDHE x on days 0 and 7 (span 8).
    c.com (weight 100): not trusted, so outside the population.
    d.com (weight 4): never observed.
    """
    rows = ["#tlsharm-durable v1", "#tlsharm-campaign,start_day=16862,n_days=%d" % DAYS,
            "domain,rank,weight,trusted,stable,day,present,default_ok,stek_id,ticket_hint,"
            "ecdhe_value,dhe_ok,dhe_value"]
    for day in range(DAYS):
        rows.append(csv_row("a.com", 1, 1.0, True, True, day, stek="k1",
                            ecdhe={0: "e1", 1: "e2"}.get(day, "")))
    for day in range(DAYS):
        rows.append(csv_row("b.com", 2, 3.0, True, True, day, stek="k2" if day in (0, 2) else "",
                            ecdhe="x" if day in (0, 7) else "", dhe="d1" if day < 2 else ""))
    for day in range(DAYS):
        rows.append(csv_row("c.com", 3, 100.0, False, True, day, stek="k9"))
    for day in range(DAYS):
        rows.append(csv_row("d.com", 4, 4.0, True, True, day))
    return "\n".join(rows) + "\n\n#tlsharm-footer v1 bytes=1 block=65536 crc=0\n"


class LifetimeTest(unittest.TestCase):
    def setUp(self):
        self.series, self.n_days, self.rows = checks.parse_campaign_csv(hand_written_csv())

    def test_shape(self):
        self.assertEqual((self.n_days, self.rows), (DAYS, 4 * DAYS))
        self.assertEqual([s.domain for s in self.series], ["a.com", "b.com", "c.com", "d.com"])

    def test_span_is_last_minus_first_plus_one(self):
        self.assertEqual(checks.max_span_days([(0, "k"), (5, "k")]), 6)
        self.assertEqual(checks.max_span_days([(0, "a"), (1, "b"), (2, "a")]), 3)
        self.assertEqual(checks.max_span_days([]), 0)

    def test_known_shares(self):
        want = {
            "STEK": {"never": 4 / 8, "daily": 0.0, "7d+": 1 / 8, "30d+": 0.0},
            "DHE": {"never": 5 / 8, "daily": 0.0, "7d+": 0.0, "30d+": 0.0},
            "ECDHE": {"never": 4 / 8, "daily": 1 / 8, "7d+": 3 / 8, "30d+": 0.0},
        }
        for field, shares in want.items():
            self.assertEqual(checks.lifetime_shares(self.series, field), shares, field)

    def test_printed_percentages_must_match(self):
        printed = ("campaign: 4 domains, 8 days\n\n"
                   "STEK   never=50.0% daily=0.0% 7d+=12.5% 30d+=0.0%   (paper: ...)\n"
                   "DHE    never=62.5% daily=0.0% 7d+=0.0% 30d+=0.0%   (paper: ...)\n"
                   "ECDHE  never=50.0% daily=12.5% 7d+=37.5% 30d+=0.0%   (paper: ...)\n")
        domains, days, shares = checks.parse_analyze(printed)
        self.assertEqual((domains, days), (4, 8))
        checks.check_lifetimes(self.series, shares)
        with self.assertRaises(RunFailed):
            checks.check_lifetimes(self.series, checks.parse_analyze(
                printed.replace("7d+=37.5%", "7d+=37.7%"))[2])

    def test_stream_archive_gives_the_same_digest(self):
        blocks = []
        members = self.series
        for day in range(DAYS):
            lines = ["day=%d" % day, "rows=%d" % len(members)]
            for s in members:
                seen = {f: dict(s.seen[f]).get(day, "-") for f in checks.FIELDS}
                lines.append("1,true,%s,100800,%s,false,%s" % (seen["STEK"], seen["ECDHE"], seen["DHE"]))
            blocks.append("\n".join(lines) + "\n")
        blocks.append("trailer\ndomains=%d\n" % len(members) + "".join(
            "%s,%d,%r,%s,%s\n" % (s.domain, s.rank, s.weight, str(s.trusted).lower(),
                                   str(s.stable).lower()) for s in members))
        spool = b"#tlsharm-spool v1\n" + b"".join(
            b"#block %d bytes=%d\n" % (i, len(b)) + b.encode() for i, b in enumerate(blocks)
        ) + b"#spool-end blocks=%d\n" % len(blocks)
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "manifest"), "w") as f:
                f.write("#tlsharm-durable v1\nstart_day=16862\nn_days=%d\n" % DAYS)
            with open(os.path.join(d, "rows-shard-0000"), "wb") as f:
                f.write(spool)
            series, n_days = checks.parse_campaign_stream(d)
        self.assertEqual(n_days, DAYS)
        self.assertEqual(checks.archive_digest(series), checks.archive_digest(self.series))


class OutputParsingTest(unittest.TestCase):
    def test_gc_exit_statistics(self):
        stderr = ("fuzz: reproducers written to x\n"
                  "allocated_words: 702942242\nminor_words: 700878023\n"
                  "promoted_words: 2974268\nminor_collections: 2684\n"
                  "mean_space_overhead: 47.100090\n")
        stats = harness.parse_gc_exit_stats(stderr)
        self.assertEqual(stats["allocated_words"], 702942242)
        self.assertEqual(stats["minor_collections"], 2684)
        self.assertAlmostEqual(stats["mean_space_overhead"], 47.10009)
        self.assertNotIn("fuzz", stats)
        self.assertAlmostEqual(harness.alloc_gib(stderr), 702942242 * 8 / 2**30)
        with self.assertRaises(RunFailed):
            harness.alloc_gib("no statistics here\n")

    def test_tracking_table_partition(self):
        stdout = ("simulated 2 users over 1 days (1 shards): 30 connections streamed to d\n\n"
                  "Tracking exposure (policy=strict)\n"
                  "operator  conns resume\n"
                  "google       10   0.9%\n"
                  "(other)      20   0.1%\n"
                  "(all)        30   0.1%\n")
        connections, table = checks.parse_traffic_run(stdout)
        self.assertEqual(connections, 30)
        checks.check_tracking_table(table, connections)
        with self.assertRaises(RunFailed):
            checks.check_tracking_table(table.replace("(other)      20", "(other)      21"), 30)

    def test_fuzz_summary(self):
        stdout = ('fuzz: 3 drives (seed "s"): 1 parsed, 2 rejected, 0 escapes\n'
                  "  client-hello                 2\n  record-stream                1\n")
        self.assertEqual(checks.parse_fuzz(stdout, 3)[:3], (1, 2, 0))
        with self.assertRaises(RunFailed):
            checks.parse_fuzz(stdout.replace("record-stream                1",
                                             "record-stream                2"), 3)


def durable_file(payload):
    """[payload] framed as Durable.Atomic_io writes it, in a temporary file."""
    body = json.dumps(payload).encode()
    f = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
    f.write(b"#tlsharm-durable v1\n" + body + b"\n#tlsharm-footer v1 bytes=%d block=65536 crc=0\n"
            % len(body))
    f.close()
    return f.name


KERNEL = {"kernel.pow_mod": 40, "kernel.pow_mod_fixed": 4, "kernel.ec_scalar_mult": 8,
          "kernel.ec_scalar_mult_base": 12, "kernel.x25519_mult": 0}


class TelemetryTest(unittest.TestCase):
    def test_durable_framing(self):
        path = durable_file({"counters": {"a": 1}})
        try:
            self.assertEqual(checks.read_durable_json(path), {"counters": {"a": 1}})
            with open(path, "rb") as f:
                data = f.read()
            with open(path, "wb") as f:
                f.write(data.replace(b'"a": 1', b'"a": 12'))
            with self.assertRaises(RunFailed):
                checks.read_durable_json(path)
        finally:
            os.unlink(path)

    def test_probe_counter_identities(self):
        counters = {"probe.attempts": 20, "probe.successes": 12, "probe.failures": 8,
                    "scan.domain_days": 10, "probe.kex.dhe": 5, "probe.kex.ecdhe": 7,
                    "probe.resumed.none": 12, "probe.tickets.issued": 6, **KERNEL}
        got = checks.probe_counters({"counters": counters}, 4)
        self.assertEqual((got["scanner.probes"], got["scanner.probe_failures"], got["tls.resumed"]),
                         (20, 8, 0))
        self.assertEqual(got["crypto.pow_mod"], 10.0)
        for key, value in (("probe.failures", 9), ("scan.domain_days", 11), ("probe.kex.dhe", 4)):
            with self.assertRaises(RunFailed):
                checks.probe_counters({"counters": {**counters, key: value}}, 4)

    def test_traffic_counter_identities(self):
        counters = {"traffic.connects": 10, "traffic.offer.fresh": 7, "traffic.offer.ticket": 3,
                    "traffic.resumed.none": 6, "traffic.resumed.ticket": 3, "traffic.failed": 1,
                    **KERNEL}
        metrics = {"counters": counters, "gauges": {"traffic.store.size": 32}}
        got = checks.traffic_counters(metrics, 10)
        self.assertEqual((got["traffic.conn_failed"], got["tls.resumed"]), (1, 3))
        bad = [{**metrics, "gauges": {"traffic.store.size": 33}},
               {**metrics, "counters": {**counters, "traffic.failed": 2}},
               {**metrics, "counters": {**counters, "traffic.offer.ticket": 2,
                                        "traffic.offer.fresh": 8}}]
        for m in bad:
            with self.assertRaises(RunFailed):
                checks.traffic_counters(m, 10)
        with self.assertRaises(RunFailed):
            checks.traffic_counters(metrics, 11)


class PeakRssTest(unittest.TestCase):
    def test_peak_rss_is_the_runs_own(self):
        big = harness.run_proc([sys.executable, "-c", "b = b'x' * (96 << 20)"])
        small = harness.run_proc([sys.executable, "-c", "pass"])
        self.assertEqual((big.exit_code, small.exit_code), (0, 0))
        self.assertGreater(big.maxrss_kib, 90 * 1024)
        self.assertLess(small.maxrss_kib, 60 * 1024)
        # What wait4 avoids: the children's figure keeps the largest child.
        self.assertGreater(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, 90 * 1024)

    def test_nonzero_exit_fails_the_step(self):
        p = harness.run_proc([sys.executable, "-c", "import sys; sys.exit(3)"])
        self.assertEqual(p.exit_code, 3)
        with self.assertRaises(RunFailed):
            harness.checked(p)


if __name__ == "__main__":
    unittest.main()
