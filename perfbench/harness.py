"""Workloads, correctness gate, deterministic counts and span tracing for the
urania benchmark.

Every measurement here is taken from outside the program: the harness times
calls into public functions of ``urania.evaluate``, ``urania.kepler``,
``urania.geocentric``, ``urania.tables``, ``urania.tableio``,
``urania.dataset`` and ``urania.cli``, and fresh ``python -m urania``
processes. Each workload is a closed loop: one caller, each query waits for
the previous one.
"""

import contextlib
import gc
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import FunctionType, ModuleType

from urania import cli, dataset as ds, evaluate as ev, geocentric as geo, kepler as kep
from urania import tableio, tables as tb
from urania.angles import DEG2RAD, aphelion_shift
from urania.opcount import OpCounter

WORKLOADS = ("table-sweep", "direct-sweep", "cli-oneshot")

PLANETS = ("mercury", "venus", "mars", "jupiter", "saturn")
EARTH = "earth"
# The `urania bench` distribution: uniform over J2000 +/- one century.
J2000 = 2451545.0
SPAN_DAYS = 36525.0
# The default table set users compile: `urania gen --all --double 64x64`.
STEP_DAYS = 1.0
DOUBLE = "64x64"

# Ceilings on how far a table answer may sit from the direct answer. They are
# about three times the worst deviation seen on the default 64x64 set (1.06
# deg in longitude, 0.19 deg in latitude, 0.010 AU in distance), so they catch
# gross bugs, not accuracy drift.
LAMBDA_CEIL_DEG = 3.0
BETA_CEIL_DEG = 0.6
DELTA_CEIL_AU = 0.03

CLOCK = time.perf_counter_ns


@dataclass(frozen=True)
class Sizes:
    """How much work one run does besides its timed loop."""

    stream: int = 20000  # seeded inputs; the counts are taken over all of them
    side_queries: int = 2000  # traced run: in-process queries off the workload's path
    side_processes: int = 2  # traced run: one-shot rounds off the workload's path
    io_passes: int = 3  # traced run: passes over the table files


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Counts answers checked and answers that failed, by reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def record(self, fault):
        self.attempted += 1
        if fault:
            self.failed += 1
            self.reasons[fault] += 1

    def raised(self, exc):
        self.record(f"raised {type(exc).__name__}")


def _wrap180(d):
    d = math.fmod(d, 360.0)
    if d > 180.0:
        d -= 360.0
    elif d <= -180.0:
        d += 360.0
    return d


def _triple(pos):
    return (pos.lam, pos.beta, pos.delta)


class Checker:
    """Range and cross-mode checks for one geocentric answer."""

    def __init__(self, dataset):
        earth = dataset[EARTH]
        far = earth.a * (1.0 + earth.e)
        # No planet can be farther from Earth than its aphelion plus Earth's.
        self.max_delta = {p: dataset[p].a * (1.0 + dataset[p].e) + far for p in PLANETS}

    def fault(self, planet, pos, other):
        """Why ``pos`` is wrong, or None. ``other`` is the other mode's answer."""
        lam, beta, delta = pos.lam, pos.beta, pos.delta
        if not (math.isfinite(lam) and math.isfinite(beta) and math.isfinite(delta)):
            return "non-finite"
        if not (0.0 <= lam < 360.0 and -90.0 <= beta <= 90.0 and 0.0 < delta <= self.max_delta[planet]):
            return "out of range"
        if (
            abs(_wrap180(lam - other.lam)) > LAMBDA_CEIL_DEG
            or abs(beta - other.beta) > BETA_CEIL_DEG
            or abs(delta - other.delta) > DELTA_CEIL_AU
        ):
            return "deviates between modes"
        return None


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory in flat arrays: name, start and end (ns) and
    parent span index (-1 for none).

    ``derived`` holds values computed from several spans. ``recording_ns`` is
    the wall time spent adding spans, and reading a child's stamps, timed
    around each block of ``add`` calls; every block sits outside the timed
    calls it records.
    """

    def __init__(self):
        self.names = []  # name id -> name
        self._ids = {}
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.derived = {}
        self.recording_ns = 0

    def add(self, name, t0, t1, parent=-1):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        return len(self.start) - 1

    def durations(self, name):
        nid = self._ids.get(name)
        return array("q", (e - s for n, s, e in zip(self.name, self.start, self.end) if n == nid))

    def derive(self, name, value_ns):
        self.derived.setdefault(name, array("q")).append(value_ns)

    def summary(self):
        """Per span name: count, median duration and median self time (us).

        Self time is a span's duration minus the durations of its children.
        """
        covered = array("q", bytes(8 * len(self.start)))
        for p, s, e in zip(self.parent, self.start, self.end):
            if p >= 0:
                covered[p] += e - s
        durations = [array("q") for _ in self.names]
        selfs = [array("q") for _ in self.names]
        for nid, s, e, c in zip(self.name, self.start, self.end, covered):
            durations[nid].append(e - s)
            selfs[nid].append(e - s - c)
        out = {
            name: {
                "count": len(durations[nid]),
                "median_us": percentile(durations[nid], 0.5) / 1e3,
                "self_median_us": percentile(selfs[nid], 0.5) / 1e3,
            }
            for nid, name in enumerate(self.names)
        }
        for name, values in self.derived.items():
            out[name] = {"count": len(values), "median_us": percentile(values, 0.5) / 1e3}
        return out


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (any iterable of numbers)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------------
# Inputs, reference compile and the deterministic counts
# ---------------------------------------------------------------------------


def make_stream(seed, n):
    """Seeded (planet, jd) inputs: planets round-robin, JDs uniform in J2000 +/- 36525 d."""
    rng = random.Random(seed)
    return [(PLANETS[i % len(PLANETS)], J2000 + rng.uniform(-SPAN_DAYS, SPAN_DAYS)) for i in range(n)]


def deep_size(obj):
    """Bytes held by ``obj`` and everything it references, types and code excluded."""
    seen = set()
    stack = [obj]
    total = 0
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total


def compile_tables(dataset, directory, tracer):
    """Compile and write the default table set, as `urania gen --all --double 64x64` does.

    Returns the number of Kepler solves the compile made, counted at
    ``kepler.solve_kepler``.
    """
    n_u, n_v = (int(x) for x in DOUBLE.split("x"))
    earth = dataset[EARTH]
    solves = 0
    real_solve = kep.solve_kepler

    def counted_solve(M, e):
        nonlocal solves
        solves += 1
        return real_solve(M, e)

    kep.solve_kepler = counted_solve
    try:
        built = []
        for el in dataset:
            t0 = CLOCK()
            built.append(tb.build_planet_table(el, STEP_DAYS))
            tracer.add("tables.build_planet_table", t0, CLOCK())
        for el in dataset:
            if el.name != EARTH:
                t0 = CLOCK()
                built.append(tb.build_double_entry(el, earth, n_u, n_v))
                tracer.add("tables.build_double_entry", t0, CLOCK())
    finally:
        kep.solve_kepler = real_solve
    for table in built:
        t0 = CLOCK()
        tableio.write_table(table, directory / tableio.table_filename(table))
        tracer.add("tableio.write_table", t0, CLOCK())
    return solves


@dataclass
class Context:
    """One run's inputs, compiled tables, reference answers and counts."""

    work: Path
    sizes: Sizes
    gate: Gate
    dataset: object = None
    checker: Checker = None
    stream: list = field(default_factory=list)
    ref_dir: Path = None  # the reference compile
    table_dir: Path = None  # the tables one-shot queries read
    gens: int = 0
    tables: object = None
    ref_direct: list = field(default_factory=list)
    ref_table: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    child_env: dict = field(default_factory=dict)


def prepare(work, seed, sizes, tracer):
    """Untimed preparation shared by every workload.

    Compiles the default tables, answers every stream input in both modes,
    checks every answer and tallies the deterministic counts.
    """
    ctx = Context(work=work, sizes=sizes, gate=Gate())
    ctx.dataset = ds.load_elements(ds.default_elements_path())
    ctx.checker = Checker(ctx.dataset)
    ctx.stream = make_stream(seed, sizes.stream)
    ctx.ref_dir = ctx.table_dir = work / "tables"
    ctx.ref_dir.mkdir(parents=True)
    solves = compile_tables(ctx.dataset, ctx.ref_dir, tracer)
    ctx.tables = ev.load_tables(ctx.ref_dir)

    gate, dataset, tables, earth = ctx.gate, ctx.dataset, ctx.tables, ctx.dataset[EARTH]
    table_ops, direct_ops = Counter(), Counter()
    lam_err = []
    for planet, jd in ctx.stream:
        direct = geo.geocentric_at(dataset[planet], earth, jd)
        table = ev.geocentric_at_table(tables, planet, jd)
        ctx.ref_direct.append(direct)
        ctx.ref_table.append(table)
        gate.record(ctx.checker.fault(planet, direct, table))
        gate.record(ctx.checker.fault(planet, table, direct))
        pos, c = ev.counted_query("direct", planet, jd, dataset=dataset)
        gate.record(_counted_fault(pos, c, direct, "direct"))
        direct_ops.update(c.as_dict())
        pos, c = ev.counted_query("table", planet, jd, tables=tables)
        gate.record(_counted_fault(pos, c, table, "table"))
        table_ops.update(c.as_dict())
        lam_err.append(abs(_wrap180(table.lam - direct.lam)))

    n = len(ctx.stream)
    entries = sum(len(t.rows) for t in tables.single.values()) + sum(
        t.n_u * t.n_v for t in tables.double.values()
    )
    on_disk = sum(p.stat().st_size for p in ctx.ref_dir.glob("*.tbl"))
    ctx.counts = {
        "stream.queries": n,
        **{f"opcount.table.{k}": table_ops[k] / n for k in ("adds", "muls", "row_accesses", "transcendental_calls")},
        **{f"opcount.direct.{k}": direct_ops[k] / n for k in ("adds", "muls", "transcendental_calls")},
        "table_ops_per_query": table_ops["total"] / n,
        "direct_ops_per_query": direct_ops["total"] / n,
        "max_lambda_err_deg": max(lam_err),
        "lambda_err_deg.p99": percentile(lam_err, 0.99),
        "tables.entries": entries,
        "tables.solver_calls": solves,
        "tableio.bytes_on_disk": on_disk,
        "tables_bytes_per_entry": deep_size(tables) / entries,
    }
    return ctx


def _counted_fault(pos, counter, plain, mode):
    if _triple(pos) != _triple(plain):
        return f"counted {mode} answer differs from the plain one"
    if mode == "table" and counter.transcendental_calls != 0:
        return "table query made a transcendental call"
    if mode == "direct" and counter.transcendental_calls <= 0:
        return "direct query counted no transcendental call"
    return None


# ---------------------------------------------------------------------------
# Set-up, timed per workload
# ---------------------------------------------------------------------------


def setup_table_sweep(ctx):
    """load_tables on the compiled default set, plus each planet's first query,
    so that loading put off until first use still counts as set-up."""
    t0 = CLOCK()
    tables = ev.load_tables(ctx.ref_dir)
    for planet in PLANETS:
        ev.geocentric_at_table(tables, planet, J2000)
    elapsed = CLOCK() - t0
    ctx.tables = tables
    return elapsed


def setup_direct_sweep(ctx, block=500):
    """load_elements on the shipped dataset, timed as a block of ``block``
    calls (a single call takes 0.1 ms, too short to time alone); the time of
    one call."""
    path = ds.default_elements_path()
    t0 = CLOCK()
    for _ in range(block):
        ctx.dataset = ds.load_elements(path)
    return (CLOCK() - t0) / block


def setup_cli_oneshot(ctx):
    """`urania gen` in-process into a fresh directory; every file must match the reference."""
    out = ctx.work / f"gen{ctx.gens}"
    ctx.gens += 1
    argv = ["gen", "--all", "--double", DOUBLE, "--table-dir", str(out), "--no-timestamp"]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = CLOCK()
        status = cli.main(argv)
        elapsed = CLOCK() - t0
    ctx.gate.record(None if status == 0 else f"gen exited {status}")
    for ref in sorted(ctx.ref_dir.glob("*.tbl")):
        got = out / ref.name
        same = got.is_file() and got.read_bytes() == ref.read_bytes()
        ctx.gate.record(None if same else f"gen wrote a different {ref.name}")
    if ctx.table_dir != ctx.ref_dir:
        shutil.rmtree(ctx.table_dir)
    ctx.table_dir = out
    return elapsed


# Per workload: one set-up and the seconds between its repeats in the timed
# loop. setup_s is the median of the repeats.
SETUP = {
    "table-sweep": (setup_table_sweep, 2.0),
    "direct-sweep": (setup_direct_sweep, 0.5),
    "cli-oneshot": (setup_cli_oneshot, 3.0),
}


class Setups:
    """A workload's set-up, run once and then again at intervals through the
    timed loop, so that its repeats meet the machine in the same mix of busy
    and quiet spells as the queries do."""

    def __init__(self, ctx, workload):
        self.ctx = ctx
        self.fn, interval = SETUP[workload]
        self.interval = int(interval * 1e9)
        self.samples = [self.fn(ctx)]
        self.due = CLOCK() + self.interval

    def maybe(self):
        if CLOCK() >= self.due:
            self.samples.append(self.fn(self.ctx))
            self.due = CLOCK() + self.interval

    def seconds(self):
        return percentile(self.samples, 0.5) / 1e9


# ---------------------------------------------------------------------------
# In-process sweeps
# ---------------------------------------------------------------------------

PLAIN_SPAN = {"table": "evaluate.geocentric_at_table", "direct": "geocentric.geocentric_at"}
COUNTED_SPAN = {"table": "evaluate.counted_query.table", "direct": "evaluate.counted_query.direct"}
COMPOSED_SPAN = {"table": "evaluate.geocentric_at_table.composed", "direct": "geocentric.geocentric_at.composed"}
# The timed calls of each workload's own path in a traced run.
OWN_SPANS = {
    "table": (PLAIN_SPAN["table"], COUNTED_SPAN["table"], COMPOSED_SPAN["table"]),
    "direct": (PLAIN_SPAN["direct"], COUNTED_SPAN["direct"], COMPOSED_SPAN["direct"]),
    "cli": ("cli.oneshot.table", "cli.oneshot.direct"),
}


def _timed_pass(ctx, tr, name, call, check, idx):
    """Time ``call`` on each stream input of ``idx``, then record the spans
    and check every answer."""
    stream, answers = ctx.stream, []
    for i in idx:
        planet, jd = stream[i]
        try:
            t0 = CLOCK()
            answer = call(planet, jd)
            t1 = CLOCK()
        except Exception as exc:  # a raising query is a failed answer
            ctx.gate.raised(exc)
            continue
        answers.append((i, planet, answer, t0, t1))
    r0 = CLOCK()
    for _, _, _, t0, t1 in answers:
        tr.add(name, t0, t1)
    tr.recording_ns += CLOCK() - r0
    for i, planet, answer, _, _ in answers:
        ctx.gate.record(check(i, planet, answer))


def _plain_pass(ctx, tr, mode, idx):
    dataset, tables = ctx.dataset, ctx.tables
    if mode == "table":
        call = lambda p, jd: ev.geocentric_at_table(tables, p, jd)  # noqa: E731
        ref, other = ctx.ref_table, ctx.ref_direct
    else:
        earth = dataset[EARTH]
        call = lambda p, jd: geo.geocentric_at(dataset[p], earth, jd)  # noqa: E731
        ref, other = ctx.ref_direct, ctx.ref_table

    def check(i, planet, pos):
        fault = ctx.checker.fault(planet, pos, other[i])
        if fault is None and _triple(pos) != _triple(ref[i]):
            fault = "answer changed between calls"
        return fault

    _timed_pass(ctx, tr, PLAIN_SPAN[mode], call, check, idx)


def _counted_pass(ctx, tr, mode, idx):
    dataset, tables = ctx.dataset, ctx.tables
    if mode == "table":
        call = lambda p, jd: ev.counted_query("table", p, jd, tables=tables)  # noqa: E731
        ref = ctx.ref_table
    else:
        call = lambda p, jd: ev.counted_query("direct", p, jd, dataset=dataset)  # noqa: E731
        ref = ctx.ref_direct

    def check(i, planet, answer):
        return _counted_fault(*answer, ref[i], mode)

    _timed_pass(ctx, tr, COUNTED_SPAN[mode], call, check, idx)


def _composed_table_pass(ctx, tr, mode, idx):
    """phase_days x2 + lookup_double, which must give geocentric_at_table's answer bit for bit."""
    tables, gate = ctx.tables, ctx.gate
    for i in idx:
        planet, jd = ctx.stream[i]
        try:
            table = tables.double_for(planet)
            counter = OpCounter()
            t0 = CLOCK()
            u = ev.phase_days(counter, jd, table.planet.T_aph, table.planet.P)
            t1 = CLOCK()
            v = ev.phase_days(counter, jd, table.earth.T_aph, table.earth.P)
            t2 = CLOCK()
            composed = ev.lookup_double(table, u, v, counter=counter)
            t3 = CLOCK()
        except Exception as exc:  # a raising query is a failed answer
            gate.raised(exc)
            continue
        r0 = CLOCK()
        root = tr.add(COMPOSED_SPAN["table"], t0, t3)
        tr.add("evaluate.phase_days", t0, t1, root)
        tr.add("evaluate.phase_days", t1, t2, root)
        tr.add("evaluate.lookup_double", t2, t3, root)
        tr.recording_ns += CLOCK() - r0
        gate.record(None if composed == _triple(ctx.ref_table[i]) else "table decomposition mismatch")


def _kepler_parts(tr, el, jd):
    """mean_anomaly_aph -> solve_kepler -> true_anomaly and radius; returns r."""
    t0 = CLOCK()
    M = kep.mean_anomaly_aph(el, jd)
    t1 = CLOCK()
    M_peri = aphelion_shift(M) * DEG2RAD
    t2 = CLOCK()
    E = kep.solve_kepler(M_peri, el.e)
    t3 = CLOCK()
    kep.true_anomaly(E, el.e)
    t4 = CLOCK()
    r = kep.radius(E, el.e, el.a)
    t5 = CLOCK()
    root = tr.add("kepler.heliocentric_state.composed", t0, t5)
    tr.add("kepler.mean_anomaly_aph", t0, t1, root)
    tr.add("kepler.solve_kepler", t2, t3, root)
    tr.add("kepler.true_anomaly", t3, t4, root)
    tr.add("kepler.radius", t4, t5, root)
    tr.recording_ns += CLOCK() - t5
    return r


def _composed_direct_pass(ctx, tr, mode, idx):
    """heliocentric_state x2 + geocentric_reduce, each split again into its
    public parts; every composition must reproduce geocentric_at bit for bit."""
    dataset, gate = ctx.dataset, ctx.gate
    earth = dataset[EARTH]
    for i in idx:
        planet, jd = ctx.stream[i]
        pel = dataset[planet]
        try:
            t0 = CLOCK()
            ps = kep.heliocentric_state(pel, jd)
            t1 = CLOCK()
            es = kep.heliocentric_state(earth, jd)
            t2 = CLOCK()
            composed = geo.geocentric_reduce(ps, es)
            t3 = CLOCK()
            pr = geo.helio_to_rect(ps)
            t4 = CLOCK()
            er = geo.helio_to_rect(es)
            t5 = CLOCK()
            diff = geo.RectVec(x=pr.x - er.x, y=pr.y - er.y, z=pr.z - er.z)
            t6 = CLOCK()
            spherical = geo.rect_to_spherical(diff)
            t7 = CLOCK()
            radii = (_kepler_parts(tr, pel, jd), _kepler_parts(tr, earth, jd))
        except Exception as exc:  # a raising query is a failed answer
            gate.raised(exc)
            continue
        r0 = CLOCK()
        root = tr.add(COMPOSED_SPAN["direct"], t0, t3)
        tr.add("kepler.heliocentric_state", t0, t1, root)
        tr.add("kepler.heliocentric_state", t1, t2, root)
        tr.add("geocentric.geocentric_reduce", t2, t3, root)
        root = tr.add("geocentric.geocentric_reduce.composed", t3, t7)
        tr.add("geocentric.helio_to_rect", t3, t4, root)
        tr.add("geocentric.helio_to_rect", t4, t5, root)
        tr.add("geocentric.rect_to_spherical", t6, t7, root)
        tr.recording_ns += CLOCK() - r0
        ref = ctx.ref_direct[i]
        same = composed == ref and spherical == _triple(ref) and radii == (ps.r, es.r)
        gate.record(None if same else "direct decomposition mismatch")


COMPOSED_PASS = {"table": _composed_table_pass, "direct": _composed_direct_pass}


def _chunks(ctx, seconds=None, count=None, chunk=500):
    """Yield successive chunk start indexes for ``count`` queries or ``seconds``."""
    n = len(ctx.stream)
    chunk = min(chunk, n)
    deadline = CLOCK() + int((seconds or 0) * 1e9)
    start = done = 0
    while True:
        yield start, chunk
        start = (start + chunk) % n
        done += chunk
        if (done >= count) if count is not None else (CLOCK() >= deadline):
            return


def sweep(ctx, tr, mode, seconds=None, count=None, composed=False, setups=None):
    """Closed loop of in-process queries in one mode, after an untimed warm-up pass.

    Each chunk of the stream runs the plain pass, the counted pass and, when
    ``composed``, the pass through the public parts, each on its own slice of
    the stream so that no pass finds the data of the one before it in cache.
    ``setups`` repeats the workload's set-up between chunks when it is due.
    """
    passes = [_plain_pass, _counted_pass] + ([COMPOSED_PASS[mode]] if composed else [])
    n = len(ctx.stream)
    shift = n // len(passes)

    def run_passes(sink, setups=None, **kw):
        for start, size in _chunks(ctx, **kw):
            if setups is not None:
                setups.maybe()
            for k, step in enumerate(passes):
                step(ctx, sink, mode, [(start + k * shift + j) % n for j in range(size)])

    run_passes(Tracer(), count=min(n, count or n))  # warm-up
    run_passes(tr, setups, seconds=seconds, count=count)


# ---------------------------------------------------------------------------
# One-shot processes
# ---------------------------------------------------------------------------


def _child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _query_argv(ctx, mode, planet, jd):
    return [
        "query", "--mode", mode, "--planet", planet, "--jd", repr(jd),
        "--table-dir", str(ctx.table_dir), "--json", "--no-timestamp",
    ]


def _oneshot_fault(status, stdout, expected):
    if status != 0:
        return f"query exited {status}"
    try:
        out = json.loads(stdout)
        got = (out["lam"], out["beta"], out["delta"])
    except (ValueError, KeyError, TypeError):
        return "query printed no position"
    return None if got == _triple(expected) else "one-shot answer differs from in-process"


def _run_child(ctx, argv):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=ctx.child_env, cwd=ctx.work, timeout=120,
    )


# Runs in a fresh interpreter: stamps the import and cli.main on the shared
# monotonic clock, then prints them after the query's own output.
_STAMPED = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter_ns()
import urania.cli
t1 = time.perf_counter_ns()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = urania.cli.main(sys.argv[1:])
t2 = time.perf_counter_ns()
print(json.dumps({"import": [t0, t1], "main": [t1, t2], "status": status, "out": out.getvalue()}))
"""


def oneshots(ctx, tr, seconds=None, count=None, stamped=False, setups=None):
    """Closed loop of one-shot processes, alternating `query --mode table` and
    `--mode direct`, after an untimed warm-up pair.

    Plain runs use `python -m urania`. ``stamped`` runs add a bare
    interpreter start, and run the pair through a script that stamps the
    import and ``cli.main``, recorded as child spans.
    """
    refs = {"table": ctx.ref_table, "direct": ctx.ref_direct}
    head = ["-c", _STAMPED] if stamped else ["-m", "urania"]
    n = len(ctx.stream)

    def run_pairs(sink, setups=None, **kw):
        for start, _ in _chunks(ctx, chunk=2, **kw):
            if setups is not None:
                setups.maybe()
            if stamped:
                t0 = CLOCK()
                proc = _run_child(ctx, ["-c", "pass"])
                sink.add("cli.interpreter", t0, CLOCK())
                ctx.gate.record(None if proc.returncode == 0 else "bare interpreter failed")
            for k, mode in enumerate(("table", "direct")):
                i = (start + k) % n
                planet, jd = ctx.stream[i]
                t0 = CLOCK()
                proc = _run_child(ctx, [*head, *_query_argv(ctx, mode, planet, jd)])
                r0 = CLOCK()
                root = sink.add(f"cli.oneshot.{mode}", t0, r0)
                status, stdout = proc.returncode, proc.stdout
                if stamped and status == 0:
                    try:
                        stamps = json.loads(stdout)
                    except ValueError:
                        stamps = {"status": "no stamps", "out": ""}
                    else:
                        sink.add("cli.import", *stamps["import"], root)
                        sink.add(f"cli.main.query_{mode}", *stamps["main"], root)
                    status, stdout = stamps["status"], stamps["out"]
                sink.recording_ns += CLOCK() - r0
                ctx.gate.record(_oneshot_fault(status, stdout, refs[mode][i]))

    run_pairs(Tracer(), count=2)  # warm-up
    run_pairs(tr, setups, seconds=seconds, count=count and 2 * count)


# ---------------------------------------------------------------------------
# Table files and elements
# ---------------------------------------------------------------------------


def trace_io(ctx, tr):
    """Time each table file's parse, load_tables and load_elements."""
    paths = sorted(ctx.ref_dir.glob("*.tbl"))
    for _ in range(ctx.sizes.io_passes):
        totals = Counter()
        for path in paths:
            kind = "double" if path.name.endswith(".double.tbl") else "single"
            t0 = CLOCK()
            tableio.read_table(path)
            t1 = CLOCK()
            tr.add(f"tableio.read_table.{kind}", t0, t1)
            totals[kind] += t1 - t0
        for kind, ns in totals.items():
            tr.derive(f"tableio.read_table.{kind}.all_files", ns)
        t0 = CLOCK()
        ev.load_tables(ctx.ref_dir)
        tr.add("evaluate.load_tables", t0, CLOCK())
    path = ds.default_elements_path()
    for _ in range(50):
        t0 = CLOCK()
        ds.load_elements(path)
        tr.add("dataset.load_elements", t0, CLOCK())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _us(samples, q):
    return percentile(samples, q) / 1e3


def end_to_end(workload, ctx, seconds, setups):
    """Every end-to-end metric, from an untraced run.

    Query times are bounded at their 90th percentile: the busy spells are in
    nearly every run, so the tail is steady from run to run where the median,
    which falls between the busy and the quiet speed, is not. The medians are
    in the returned detail.
    """
    counts = ctx.counts
    tr = Tracer()
    if workload == "cli-oneshot":
        ops = (counts["table_ops_per_query"] + counts["direct_ops_per_query"]) / 2.0
        oneshots(ctx, tr, seconds=seconds, setups=setups)
        primary, alt = "cli.oneshot.table", "cli.oneshot.direct"
    else:
        mode = "table" if workload == "table-sweep" else "direct"
        ops = counts[f"{mode}_ops_per_query"]
        sweep(ctx, tr, mode, seconds=seconds, setups=setups)
        primary, alt = PLAIN_SPAN[mode], COUNTED_SPAN[mode]
    primary, alt = tr.durations(primary), tr.durations(alt)
    metrics = {
        "setup_s": (setups.seconds(), "s"),
        "query_us.p90": (_us(primary, 0.9), "us"),
        "alt_query_us.p90": (_us(alt, 0.9), "us"),
        "ops_per_query": (ops, "count"),
        "lambda_err_deg.p99": (counts["lambda_err_deg.p99"], "deg"),
        "tables_bytes_per_entry": (counts["tables_bytes_per_entry"], "B"),
    }
    detail = {
        "samples": len(primary),
        "alt_samples": len(alt),
        "query_us.p50": _us(primary, 0.5),
        "alt_query_us.p50": _us(alt, 0.5),
        "setup_s_each": [x / 1e9 for x in setups.samples],
    }
    return metrics, detail


def per_layer(workload, ctx, seconds, tr):
    """Every per-layer metric, from a traced run.

    The workload's own path gets the timed loop; the layers off its path get
    a fixed small sample, so that every run reports every layer.

    Tracing overhead is the wall time spent recording spans (and, for
    one-shots, reading the child's stamps), per timed call on the workload's
    own path. The recording sits outside every timed call, so the timed
    calls carry none of it.
    """
    sizes = ctx.sizes
    own = {"table-sweep": "table", "direct-sweep": "direct", "cli-oneshot": "cli"}[workload]
    for mode in ("table", "direct", "cli"):
        before = tr.recording_ns
        if mode == "cli":
            kw = {"seconds": seconds} if own == "cli" else {"count": sizes.side_processes}
            oneshots(ctx, tr, stamped=True, **kw)
        else:
            kw = {"seconds": seconds} if own == mode else {"count": sizes.side_queries}
            sweep(ctx, tr, mode, composed=True, **kw)
        if mode == own:
            recording_ns = tr.recording_ns - before
    trace_io(ctx, tr)

    s = tr.summary()

    def med(name):
        return s[name]["median_us"]

    def total_s(name):
        return sum(tr.durations(name)) / 1e9

    c = ctx.counts
    read_s = (med("tableio.read_table.single.all_files") + med("tableio.read_table.double.all_files")) / 1e6
    metrics = {
        "evaluate.phase_days.us": (med("evaluate.phase_days"), "us"),
        "evaluate.lookup_double.us": (med("evaluate.lookup_double"), "us"),
        "evaluate.geocentric_at_table.self_us": (
            med("evaluate.geocentric_at_table") - med("evaluate.geocentric_at_table.composed"), "us"),
        "evaluate.counted_query.table.us": (med("evaluate.counted_query.table"), "us"),
        "evaluate.load_tables.s": (med("evaluate.load_tables") / 1e6, "s"),
        "evaluate.max_lambda_err_deg": (c["max_lambda_err_deg"], "deg"),
        "opcount.table.adds": (c["opcount.table.adds"], "count"),
        "opcount.table.muls": (c["opcount.table.muls"], "count"),
        "opcount.table.row_accesses": (c["opcount.table.row_accesses"], "count"),
        "opcount.table.ops_per_query": (c["table_ops_per_query"], "count"),
        "opcount.direct.adds": (c["opcount.direct.adds"], "count"),
        "opcount.direct.muls": (c["opcount.direct.muls"], "count"),
        "opcount.direct.transcendental_calls": (c["opcount.direct.transcendental_calls"], "count"),
        "opcount.direct.ops_per_query": (c["direct_ops_per_query"], "count"),
        "opcount.table.overhead_us": (
            med("evaluate.counted_query.table") - med("evaluate.geocentric_at_table"), "us"),
        "opcount.direct.overhead_us": (
            med("evaluate.counted_query.direct") - med("geocentric.geocentric_at"), "us"),
        "kepler.heliocentric_state.us": (med("kepler.heliocentric_state"), "us"),
        "kepler.mean_anomaly_aph.us": (med("kepler.mean_anomaly_aph"), "us"),
        "kepler.solve_kepler.us": (med("kepler.solve_kepler"), "us"),
        "kepler.true_anomaly.us": (med("kepler.true_anomaly"), "us"),
        "kepler.radius.us": (med("kepler.radius"), "us"),
        "kepler.rotation.self_us": (
            med("kepler.heliocentric_state") - med("kepler.heliocentric_state.composed"), "us"),
        "geocentric.geocentric_at.us": (med("geocentric.geocentric_at"), "us"),
        "geocentric.geocentric_reduce.us": (med("geocentric.geocentric_reduce"), "us"),
        "geocentric.helio_to_rect.us": (med("geocentric.helio_to_rect"), "us"),
        "geocentric.rect_to_spherical.us": (med("geocentric.rect_to_spherical"), "us"),
        "tables.build_planet_table.s": (total_s("tables.build_planet_table"), "s"),
        "tables.build_double_entry.s": (total_s("tables.build_double_entry"), "s"),
        "tables.entries": (c["tables.entries"], "count"),
        "tables.solver_calls": (c["tables.solver_calls"], "count"),
        "tables.bytes_per_entry": (c["tables_bytes_per_entry"], "B"),
        "tableio.write_table.s": (total_s("tableio.write_table"), "s"),
        "tableio.read_table.single.s": (med("tableio.read_table.single.all_files") / 1e6, "s"),
        "tableio.read_table.double.s": (med("tableio.read_table.double.all_files") / 1e6, "s"),
        "tableio.read_table.mb_per_s": (c["tableio.bytes_on_disk"] / read_s / 1e6, "MB/s"),
        "tableio.bytes_on_disk": (c["tableio.bytes_on_disk"], "B"),
        "dataset.load_elements.ms": (med("dataset.load_elements") / 1e3, "ms"),
        "cli.interpreter.s": (med("cli.interpreter") / 1e6, "s"),
        "cli.import.s": (med("cli.import") / 1e6, "s"),
        "cli.main.query_table.s": (med("cli.main.query_table") / 1e6, "s"),
        "cli.main.query_direct.s": (med("cli.main.query_direct") / 1e6, "s"),
        "cli.oneshot.self_s": (s["cli.oneshot.table"]["self_median_us"] / 1e6, "s"),
        "trace.overhead_us": (recording_ns / 1e3 / sum(s[name]["count"] for name in OWN_SPANS[own]), "us"),
    }
    return metrics, {"spans": s}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace, root, sizes=Sizes()):
    """Run one workload; returns (final result dict, full report dict)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    work_base = root / ".perfbench_work"
    work_base.mkdir(exist_ok=True)
    work = work_base / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        tr = Tracer()
        ctx = prepare(work, seed, sizes, tr)
        # The reference answers and the stream live as long as the run; keep
        # the collector from scanning them, so that the program's own
        # allocations decide what a collection costs, as in a user's process.
        gc.collect()
        gc.freeze()
        ctx.child_env = _child_env(root)
        setups = Setups(ctx, workload)
        if trace:
            metrics, detail = per_layer(workload, ctx, seconds, tr)
        else:
            metrics, detail = end_to_end(workload, ctx, seconds, setups)
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_base.rmdir()
    gate = ctx.gate
    final = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "failed_frac": gate.failed / gate.attempted,
        "failures": dict(gate.reasons),
        "counts": ctx.counts,
        "detail": detail,
    }
    return final, report
