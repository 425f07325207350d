"""Output checks, written apart from the code they check.

The lifetime shares are re-derived here from the archive itself (paper
sections 4.3-4.4) and compared with what ``tlsharm analyze`` printed; no
check compares against a stored copy of an earlier output.
"""

import hashlib
import json
import os
import re

from harness import RunFailed

FIELDS = ("STEK", "DHE", "ECDHE")
SHARES = ("never", "daily", "7d+", "30d+")


def fail(fmt, *args):
    raise RunFailed(fmt % args if args else fmt)


# --- campaign archives ---------------------------------------------------------------------


class Series:
    """One domain's rows: its metadata and per-field (day, identifier) sightings."""

    __slots__ = ("domain", "rank", "weight", "trusted", "stable", "seen")

    def __init__(self, domain, rank, weight, trusted, stable):
        self.domain, self.rank, self.weight = domain, rank, weight
        self.trusted, self.stable = trusted, stable
        self.seen = {f: [] for f in FIELDS}


def _bool(s):
    if s not in ("true", "false"):
        fail("bad boolean %r", s)
    return s == "true"


def parse_campaign_csv(text):
    """Series in file order, the declared day count, and the row count."""
    n_days, rows, series, header = None, 0, {}, False
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            m = re.search(r"n_days=(\d+)", line)
            if line.startswith("#tlsharm-campaign") and m:
                n_days = int(m.group(1))
            continue
        if not header:
            if not line.startswith("domain,rank,weight,"):
                fail("campaign CSV: missing column header")
            header = True
            continue
        f = line.split(",")
        if len(f) != 13:
            fail("campaign CSV: %d fields in row %r", len(f), line[:60])
        domain, rank, weight, trusted, stable, day = f[0], int(f[1]), float(f[2]), f[3], f[4], int(f[5])
        s = series.get(domain)
        if s is None:
            s = series[domain] = Series(domain, rank, weight, _bool(trusted), _bool(stable))
        rows += 1
        for field, value in (("STEK", f[8]), ("ECDHE", f[10]), ("DHE", f[12])):
            if value:
                s.seen[field].append((day, value))
    if n_days is None:
        fail("campaign CSV: no n_days metadata")
    return list(series.values()), n_days, rows


def parse_spool(data):
    """Blocks of one Durable.Spool file, checking its framing and footer."""
    head = b"#tlsharm-spool v1\n"
    if not data.startswith(head):
        fail("spool: bad header")
    pos, blocks = len(head), []
    while True:
        eol = data.index(b"\n", pos)
        marker = data[pos:eol].decode()
        m = re.fullmatch(r"#block (\d+) bytes=(\d+)", marker)
        if m:
            if int(m.group(1)) != len(blocks):
                fail("spool: block %s out of order", m.group(1))
            start = eol + 1
            blocks.append(data[start:start + int(m.group(2))].decode())
            pos = start + int(m.group(2))
            continue
        m = re.fullmatch(r"#spool-end blocks=(\d+)", marker)
        if not m or int(m.group(1)) != len(blocks):
            fail("spool: bad footer %r", marker)
        return blocks


def parse_campaign_stream(directory):
    """Series of a --stream-out campaign directory, sorted by (rank, domain)
    like the loader sorts them, with the day count."""
    with open(os.path.join(directory, "manifest")) as f:
        m = re.search(r"^n_days=(\d+)$", f.read(), re.M)
    if not m:
        fail("campaign stream: manifest has no n_days")
    n_days, series = int(m.group(1)), []
    names = sorted(n for n in os.listdir(directory) if n.startswith("rows-"))
    if not names:
        fail("campaign stream: no row streams")
    for name in names:
        with open(os.path.join(directory, name), "rb") as f:
            blocks = parse_spool(f.read())
        if len(blocks) != n_days + 1:
            fail("campaign stream %s: %d blocks for %d days", name, len(blocks), n_days)
        meta = blocks[-1].splitlines()
        if meta[0] != "trailer" or meta[1] != "domains=%d" % (len(meta) - 2):
            fail("campaign stream %s: bad trailer", name)
        members = []
        for l in meta[2:]:
            d, rank, weight, trusted, stable = l.split(",")
            members.append(Series(d, int(rank), float(weight), _bool(trusted), _bool(stable)))
        for day, block in enumerate(blocks[:-1]):
            lines = block.splitlines()
            if lines[:2] != ["day=%d" % day, "rows=%d" % len(members)] or len(lines) != len(members) + 2:
                fail("campaign stream %s: bad block for day %d", name, day)
            for s, l in zip(members, lines[2:]):
                f = l.split(",")
                if f[0] == "0":
                    continue
                for field, value in (("STEK", f[2]), ("ECDHE", f[4]), ("DHE", f[6])):
                    if value != "-":
                        s.seen[field].append((day, value))
        series.extend(members)
    series.sort(key=lambda s: (s.rank, s.domain))
    return series, n_days


def max_span_days(sightings):
    """Longest identifier lifetime: last day minus first day plus one, over
    the identifiers seen at one domain; 0 when none was ever seen."""
    first, last = {}, {}
    for day, value in sightings:
        first.setdefault(value, day)
        last[value] = day
    return max((last[v] - first[v] + 1 for v in first), default=0)


def lifetime_shares(series, field):
    """HT-weighted shares over stable, trusted domains, summed in series
    order: never observed, changed daily (span 1), span >= 7, span >= 30."""
    pop = never = daily = d7 = d30 = 0.0
    for s in series:
        if not (s.stable and s.trusted):
            continue
        span = max_span_days(s.seen[field])
        pop += s.weight
        if span == 0:
            never += s.weight
        if span == 1:
            daily += s.weight
        if span >= 7:
            d7 += s.weight
        if span >= 30:
            d30 += s.weight
    if pop <= 0:
        fail("lifetime: empty stable trusted population")
    return {"never": never / pop, "daily": daily / pop, "7d+": d7 / pop, "30d+": d30 / pop}


ANALYZE_LINE = re.compile(
    r"^(STEK|DHE|ECDHE)\s+never=([\d.]+)% daily=([\d.]+)% 7d\+=([\d.]+)% 30d\+=([\d.]+)%", re.M)


def parse_analyze(stdout):
    """Header counts and the printed percentages of ``tlsharm analyze``."""
    m = re.search(r"^campaign: (\d+) domains, (\d+) days$", stdout, re.M)
    if not m:
        fail("analyze: no campaign header line")
    shares = {}
    for fm in ANALYZE_LINE.finditer(stdout):
        shares[fm.group(1)] = dict(zip(SHARES, (float(fm.group(i)) for i in range(2, 6))))
    if set(shares) != set(FIELDS):
        fail("analyze: lifetime lines for %s", sorted(shares))
    return int(m.group(1)), int(m.group(2)), shares


def check_lifetimes(series, printed):
    """Each re-derived share must round to the printed one-decimal figure."""
    for field in FIELDS:
        derived = lifetime_shares(series, field)
        for share in SHARES:
            want = 100.0 * derived[share]
            if abs(want - printed[field][share]) > 0.05 + 1e-9:
                fail("%s %s: analyze printed %.1f%%, archive gives %.4f%%", field, share,
                     printed[field][share], want)


def archive_digest(series):
    """Digest of the observation content, independent of the archive format."""
    h = hashlib.sha256()
    for s in series:
        h.update(("%s|%d|%r|%s|%s\n" % (s.domain, s.rank, s.weight, s.trusted, s.stable)).encode())
        for field in FIELDS:
            h.update(("%s:%r\n" % (field, s.seen[field])).encode())
    return h.hexdigest()


# --- telemetry files (--metrics-out / --trace-out) -----------------------------------------


def read_durable_json(path):
    """The JSON payload of a file the CLI wrote through Durable.Atomic_io:
    a header line, the payload, a blank line, and a footer that declares
    the payload's byte count."""
    with open(path, "rb") as f:
        data = f.read()
    head = b"#tlsharm-durable v1\n"
    tail = data.rfind(b"\n#tlsharm-footer v1 bytes=")
    if not data.startswith(head) or tail < 0:
        fail("%s: bad durable framing", path)
    body = data[len(head):tail]
    m = re.match(rb"\n#tlsharm-footer v1 bytes=(\d+) ", data[tail:])
    if not m or int(m.group(1)) != len(body):
        fail("%s: footer does not match the payload", path)
    return json.loads(body)


KERNELS = ("pow_mod", "pow_mod_fixed", "ec_scalar_mult", "ec_scalar_mult_base")


def kernel_per_unit(counters, work):
    return {"crypto." + k: counters["kernel." + k] / work for k in KERNELS}


def probe_counters(metrics, work):
    """Per-layer counts of a campaign's --metrics-out, after checking that
    probe attempts = successes + failures = 2 x domain-days and that the
    successes are the sum of the key-exchange counters."""
    c = metrics["counters"]
    n = lambda k: c.get(k, 0)  # noqa: E731 -- the CLI omits counters that stayed 0
    kex = n("probe.kex.dhe") + n("probe.kex.ecdhe") + n("probe.kex.static_ecdh")
    if n("probe.attempts") != n("probe.successes") + n("probe.failures"):
        fail("probe.attempts %d != successes %d + failures %d", n("probe.attempts"),
             n("probe.successes"), n("probe.failures"))
    if n("probe.attempts") != 2 * n("scan.domain_days"):
        fail("probe.attempts %d != 2 x scan.domain_days %d", n("probe.attempts"),
             n("scan.domain_days"))
    if n("probe.successes") != kex:
        fail("probe.successes %d != sum of probe.kex.* %d", n("probe.successes"), kex)
    return {"scanner.probes": n("probe.attempts"), "scanner.probe_failures": n("probe.failures"),
            "tls.full_handshakes": n("probe.resumed.none"),
            "tls.resumed": n("probe.resumed.session_id") + n("probe.resumed.ticket"),
            "tls.tickets_issued": n("probe.tickets.issued"), **kernel_per_unit(c, work)}


STORE_CAPACITY = 32  # Traffic.Population.default_config's per-user store bound


def traffic_counters(metrics, connections):
    """Per-layer counts of a traffic --metrics-out, after checking that the
    offers and the outcomes each partition the connections, that no
    resumption exceeds its offers, and that no client store overflowed."""
    c = metrics["counters"]
    n = lambda k: c.get(k, 0)  # noqa: E731 -- the CLI omits counters that stayed 0
    offers = n("traffic.offer.fresh") + n("traffic.offer.session_id") + n("traffic.offer.ticket")
    outcomes = (n("traffic.failed") + n("traffic.resumed.none") + n("traffic.resumed.session_id")
                + n("traffic.resumed.ticket"))
    if n("traffic.connects") != connections:
        fail("traffic.connects %d != %d connections printed", n("traffic.connects"), connections)
    if offers != connections or outcomes != connections:
        fail("traffic offers sum to %d and outcomes to %d, not %d connects", offers, outcomes,
             connections)
    for kind in ("ticket", "session_id"):
        if n("traffic.resumed." + kind) > n("traffic.offer." + kind):
            fail("traffic.resumed.%s %d > offer.%s %d", kind, n("traffic.resumed." + kind), kind,
                 n("traffic.offer." + kind))
    store = metrics["gauges"].get("traffic.store.size", 0)
    if store > STORE_CAPACITY:
        fail("traffic.store.size %d > %d", store, STORE_CAPACITY)
    return {"traffic.connects": connections, "traffic.conn_failed": n("traffic.failed"),
            "tls.full_handshakes": n("traffic.resumed.none"),
            "tls.resumed": n("traffic.resumed.session_id") + n("traffic.resumed.ticket"),
            **kernel_per_unit(c, connections)}


def span_count(trace, name):
    """Distinct spans called [name] in a --trace-out file (one per attribute set)."""
    return sum(1 for s in trace["spans"] if s["name"] == name)


# --- traffic -------------------------------------------------------------------------------


def parse_traffic_run(stdout):
    """Connection count the run printed and the table that follows it."""
    m = re.search(r"^simulated (\d+) users over (\d+) days .*?: (\d+) connections", stdout, re.M)
    if not m:
        fail("traffic: no summary line")
    _, sep, table = stdout.partition("\n\n")
    if not sep:
        fail("traffic: no table after the summary line")
    return int(m.group(3)), table


def check_tracking_table(table, connections):
    """Operator rows sum to the (all) row, which equals the printed count."""
    ops, total = [], None
    for line in table.splitlines():
        f = line.split()
        if len(f) < 2 or not f[1].isdigit():
            continue
        if f[0] == "(all)":
            total = int(f[1])
        else:
            ops.append(int(f[1]))
    if total is None or not ops:
        fail("traffic table: no operator rows or no (all) row")
    if sum(ops) != total:
        fail("traffic table: operator rows sum to %d, (all) says %d", sum(ops), total)
    if total != connections:
        fail("traffic table: (all) has %d connections, the run printed %d", total, connections)


# --- fuzz ----------------------------------------------------------------------------------


def parse_fuzz(stdout, drives):
    """(parsed, rejected, escapes, per-target counts), checked for consistency."""
    m = re.search(r"^fuzz: (\d+) drives \(seed .*\): (\d+) parsed, (\d+) rejected, (\d+) escapes$",
                  stdout, re.M)
    if not m:
        fail("fuzz: no summary line")
    executed, parsed, rejected, escapes = (int(m.group(i)) for i in range(1, 5))
    targets = {}
    for line in stdout.splitlines():
        t = re.fullmatch(r"  (\S+)\s+(\d+)", line)
        if t:
            targets[t.group(1)] = int(t.group(2))
    if executed != drives:
        fail("fuzz: %d drives executed, %d asked", executed, drives)
    if parsed + rejected != drives:
        fail("fuzz: parsed %d + rejected %d != %d drives", parsed, rejected, drives)
    if sum(targets.values()) != drives:
        fail("fuzz: per-target counts sum to %d, not %d", sum(targets.values()), drives)
    return parsed, rejected, escapes, targets


# --- world-info ----------------------------------------------------------------------------


def check_world_info(stdout, domains):
    m = re.search(r"^sampled domains:\s+(\d+) \(representing (\d+)\)$", stdout, re.M)
    if not m:
        fail("world-info: no sample line")
    if int(m.group(1)) != domains:
        fail("world-info: %s sampled domains, %d asked", m.group(1), domains)
    if int(m.group(2)) != 1_000_000:
        fail("world-info: HT weights sum to %s, not the 1,000,000-domain population", m.group(2))
