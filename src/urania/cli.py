"""Command-line surface: gen, query, compare, bench, census, validate.

Exit codes: 0 success, 1 validation or threshold failure, 2 usage error,
3 I/O or parse error. The table directory resolves from --table-dir, then
the URANIA_DATA_DIR environment variable, then ./tables.
"""

import argparse
import datetime as _dt
import json
import math
import os
import random
import sys
import tempfile
import time
from pathlib import Path

from .compare import double_errors, single_errors, sweep
from .dataset import default_elements_path, load_elements
from .errors import (
    DegenerateGeometryError,
    DomainError,
    ParseError,
    TableNotFoundError,
    TableVersionError,
    UnsupportedInversionError,
)
from .evaluate import (
    TableSet,
    counted_query,
    geocentric_at_table,
    heliocentric_at_table,
    load_tables,
    lookup_double,
    lookup_planet,
)
from .geocentric import geocentric_at
from .juliandate import calendar_to_jd, jd_to_calendar
from .kepler import (
    KEPLER_TOL,
    OrbitalElements,
    heliocentric_state,
    position_since_aphelion,
    solve_kepler,
    time_since_aphelion,
)
from .opcount import OpCounter, measure_compile_ops
from .tableio import double_planets, read_table_file, table_filename, table_paths, write_table
from .tables import build_double_entry, build_planet_table, calculation_census, census_line
from .tables import compile_plan, parse_shape

__all__ = ["main"]


def _table_dir(args) -> Path:
    if getattr(args, "table_dir", None):
        return Path(args.table_dir)
    env = os.environ.get("URANIA_DATA_DIR")
    if env:
        return Path(env)
    return Path("tables")


def _dataset(args):
    path = getattr(args, "elements", None) or default_elements_path()
    return load_elements(path)


def _double_shape(text):
    """The grid of a gen or census ``--double``: None for no option or 'none'."""
    return None if text in (None, "none") else parse_shape(text)


def _observed(name: str) -> str:
    """``name``, unless it is the Earth, the observer of a geocentric command."""
    if name == "earth":
        raise DomainError("--planet earth: the Earth is the observer, not an observed body")
    return name


def _parse_date(text: str) -> float:
    try:
        stamp = _dt.datetime.fromisoformat(text)
    except ValueError:
        raise DomainError(f"--date expects an ISO date-time, got {text!r}") from None
    if stamp.tzinfo is not None:
        raise DomainError("--date must be naive (no time zone); the engine has no time scale")
    frac = (
        stamp.hour * 3600.0 + stamp.minute * 60.0 + stamp.second + stamp.microsecond / 1e6
    ) / 86400.0
    return calendar_to_jd(stamp.year, stamp.month, stamp.day, frac)


def _query_jd(args) -> float:
    if args.jd is not None:
        if not math.isfinite(args.jd):
            raise DomainError("--jd must be finite")
        return args.jd
    return _parse_date(args.date)


def _emit(args, lines: list[str], payload: dict) -> None:
    if not getattr(args, "no_timestamp", False):
        payload["generated"] = _dt.datetime.now().isoformat(timespec="seconds")
        lines = [f"generated: {payload['generated']}"] + lines
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    dataset = _dataset(args)
    if not (args.all or args.planet):
        raise DomainError("gen needs --planet NAME (repeatable) or --all")
    plan = compile_plan(dataset, dataset.names if args.all else args.planet, args.step_days,
                        _double_shape(args.double))
    built = [builder(*build_args) for builder, build_args in plan]

    out_dir = _table_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / table_filename(table) for table in built]
    for table, path in zip(built, written):
        write_table(table, path)

    census = calculation_census(plan)
    lines = [f"wrote {p}" for p in written] + [census_line(census)]
    totals = {key: census[key] for key in ("rows", "cells", "entries", "solver_calls")}
    payload = {"written": [str(p) for p in written], "census": totals}
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def _format_position(args, pos) -> list[str]:
    p = args.precision
    return [
        f"lambda: {pos.lam:.{p}f}",
        f"beta: {pos.beta:.{p}f}",
        f"delta: {pos.delta:.6f}",
    ]


def cmd_query(args) -> int:
    jd = _query_jd(args)
    p = args.precision
    if p < 0:
        raise DomainError(f"--precision must be >= 0, got {p}")
    lines = [f"planet: {args.planet}", f"jd: {jd!r}", f"mode: {args.mode}"]
    payload = {"planet": args.planet, "jd": jd, "mode": args.mode}
    _observed(args.planet)
    if args.mode == "direct":
        dataset, tables = _dataset(args), None
    else:
        dataset, tables = None, load_tables(_table_dir(args))
    if args.count_ops:
        pos, counter = counted_query(args.mode, args.planet, jd, dataset=dataset, tables=tables)
    elif tables is None:
        pos = geocentric_at(dataset[args.planet], dataset["earth"], jd)
    else:
        pos = geocentric_at_table(tables, args.planet, jd)
    lines += _format_position(args, pos)
    payload.update(lam=pos.lam, beta=pos.beta, delta=pos.delta)

    if args.heliocentric:
        if tables is None:
            state = heliocentric_state(dataset[args.planet], jd)
            lines += [
                f"helio_l: {state.l:.{p}f}",
                f"helio_b: {state.b:.{p}f}",
                f"helio_r: {state.r:.6f}",
            ]
            payload.update(helio_l=state.l, helio_b=state.b, helio_r=state.r)
        else:
            nu, r = heliocentric_at_table(tables, args.planet, jd)
            lines += [f"nu_aph: {nu:.{p}f}", f"r: {r:.6f}"]
            payload.update(nu_aph=nu, r=r)

    if args.count_ops:
        ops = counter.as_dict()
        lines.append(
            "ops: adds={adds} muls={muls} transcendental={transcendental_calls} "
            "row_accesses={row_accesses} total={total}".format(**ops)
        )
        payload["ops"] = ops
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    dataset = _dataset(args)
    planet_el = dataset[args.planet]
    jd_start = args.from_jd
    jd_end = args.to_jd if args.to_jd is not None else jd_start + args.span_days
    if args.kind == "double":
        _observed(args.planet)
        earth_el = dataset["earth"]
        n_u, n_v = parse_shape(args.double)
        table = build_double_entry(planet_el, earth_el, n_u, n_v)
        config = f"double {n_u}x{n_v}"
        errors = double_errors(planet_el, earth_el, table)
    else:
        table = build_planet_table(planet_el, args.step_days)
        config = f"single step={table.step!r}"
        errors = single_errors(planet_el, table)
    stats = sweep(errors, jd_start, jd_end, args.samples)
    lines = [
        f"planet: {planet_el.name}",
        f"config: {config}",
        f"jd: [{jd_start!r}, {jd_end!r}) samples={args.samples}",
    ]
    names = [key[len("max_"):] for key in stats if key.startswith("max_")]
    for name in names:
        lines.append(f"{name}: max={stats['max_' + name]:.3e} mean={stats['mean_' + name]:.3e}")
    payload = {"planet": planet_el.name, "jd_start": jd_start, "jd_end": jd_end,
               "samples": args.samples, "table_config": config, **stats}
    status = 0
    angle_max = stats["max_" + names[0]]  # lambda for a double table, nu for a single one
    if args.max_lambda_err is not None and angle_max > args.max_lambda_err:
        lines.append(
            f"threshold exceeded: max angle error {angle_max:.3e} > {args.max_lambda_err:.3e}"
        )
        payload["threshold_exceeded"] = True
        status = 1
    _emit(args, lines, payload)
    return status


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    if args.queries < 1:
        raise DomainError(f"--queries must be >= 1, got {args.queries}")
    dataset = _dataset(args)
    table_dir = _table_dir(args)
    tables = load_tables(table_dir)
    planets = list(dict.fromkeys(args.planet)) if args.planet else double_planets(table_dir)
    for name in planets:
        tables.double_for(_observed(name))
    if not planets:
        raise TableNotFoundError(
            "no double-entry tables loaded; run 'urania gen --all --double 64x64'"
        )

    rng = random.Random(args.seed)
    jd0 = 2451545.0
    queries = [(planets[i % len(planets)], jd0 + rng.uniform(-36525.0, 36525.0))
               for i in range(args.queries)]

    lines = [f"planets: {','.join(planets)}"]
    payload = {"planets": planets, "queries": args.queries}
    failures = []
    # Each mode's contract: whether its queries make transcendental calls.
    for mode, transcendental, broken in (
        ("table", False, "table queries used transcendental calls"),
        ("direct", True, "direct queries reported no transcendental calls"),
    ):
        total = OpCounter()
        bad = 0
        t0 = time.perf_counter()
        for planet, jd in queries:
            _, c = counted_query(mode, planet, jd, dataset=dataset, tables=tables)
            if (c.transcendental_calls > 0) != transcendental:
                bad += 1
            total.merge(c)
        wall = time.perf_counter() - t0

        line = (
            f"mode={mode} queries={args.queries} adds={total.adds} muls={total.muls} "
            f"transcendental={total.transcendental_calls} row_accesses={total.row_accesses} "
            f"total_ops={total.total_ops()}"
        )
        payload[mode] = total.as_dict()
        if not args.no_timestamp:
            line += f" wall={wall:.3f}s"
            payload[f"{mode}_wall_s"] = wall
        lines.append(line)
        if bad:
            failures.append(f"FAIL: {bad} {broken}")
            payload[f"{mode}_contract"] = "fail"
    _emit(args, lines + failures, payload)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def cmd_census(args) -> int:
    dataset = _dataset(args)
    double_shape = _double_shape(args.double)
    plan = compile_plan(dataset, dataset.names, args.step_days, double_shape)
    census = calculation_census(plan)
    lines = [f"single {name}: rows={rows}" for name, rows in census["single_rows"].items()]
    lines += [f"double {pair}: cells={cells}" for pair, cells in census["double_cells"].items()]
    lines.append(census_line(census))
    payload = {"step_days": args.step_days,
               "double_shape": list(double_shape) if double_shape else None, **census}
    if args.measure_ops:
        measured = measure_compile_ops(plan)
        lines.append(
            "compile_ops: adds={adds} muls={muls} transcendental={transcendental_calls} "
            "total={total}".format(**measured.as_dict())
        )
        payload["compile_ops"] = measured.as_dict()
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _synthetic_pair() -> tuple[OrbitalElements, OrbitalElements]:
    planet = OrbitalElements(
        name="check-planet", a=2.1, e=0.3, i=4.0, Omega=40.0, omega=120.0,
        P=400.0, T_aph=2451545.0,
    )
    earth = OrbitalElements(
        name="earth", a=1.0, e=0.05, i=0.0, Omega=0.0, omega=80.0,
        P=160.0, T_aph=2451500.0,
    )
    return planet, earth


def _check_solver_grid() -> None:
    eccs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.97]
    for e in eccs:
        for k in range(500):
            M = 2.0 * math.pi * k / 500.0
            E = solve_kepler(M, e)
            if abs(E - e * math.sin(E) - M) >= KEPLER_TOL:
                raise AssertionError(f"residual above tolerance at e={e} M={M}")


def _check_calendar_round_trip() -> None:
    for year in range(1500, 2501, 37):
        for month, day in ((1, 1), (2, 28), (6, 15), (12, 31)):
            for frac in (0.0, 0.25, 0.875):
                jd = calendar_to_jd(year, month, day, frac)
                y, m, d, f = jd_to_calendar(jd)
                if (y, m, d) != (year, month, day) or abs(f - frac) >= 1e-9:
                    raise AssertionError(f"round trip broke at {year}-{month}-{day} {frac}")


def _check_anomaly_round_trip() -> None:
    rng = random.Random(7)
    for _ in range(200):
        el = OrbitalElements(
            name="rt", a=1.0 + 4.0 * rng.random(), e=0.97 * rng.random(),
            i=0.0, Omega=0.0, omega=0.0,
            P=10.0 + 5000.0 * rng.random(), T_aph=2451545.0,
        )
        t = rng.uniform(0.0, el.P)
        nu, _ = position_since_aphelion(el, t)
        back = time_since_aphelion(el, nu)
        if abs(back - t) >= 1e-9:
            raise AssertionError(f"|{back} - {t}| too large for e={el.e} P={el.P}")


def _check_knot_exactness(tables: TableSet) -> None:
    for name, table in sorted(tables.single.items()):
        for row in table.rows:
            nu, r = lookup_planet(table, row.t)
            if nu != row.nu_aph or r != row.r:
                raise AssertionError(f"{name}: lookup at t={row.t!r} altered stored values")
    for name, table in sorted(tables.double.items()):
        du = table.planet.P / table.n_u
        dv = table.earth.P / table.n_v
        for iu in range(table.n_u):
            for iv in range(table.n_v):
                got = lookup_double(table, iu * du, iv * dv)
                if got != table.cells[iu][iv]:
                    raise AssertionError(f"{name}: lookup at cell ({iu},{iv}) altered stored values")


def _check_zero_transcendental(tables: TableSet, bodies, name: str) -> None:
    rng = random.Random(11)
    for _ in range(300):
        jd = 2451545.0 + rng.uniform(-5000.0, 5000.0)
        _, c = counted_query("table", name, jd, tables=tables)
        if c.transcendental_calls != 0:
            raise AssertionError(f"table query at jd={jd} used {c.transcendental_calls} calls")
        _, c2 = counted_query("direct", name, jd, dataset=bodies)
        if c2.transcendental_calls <= 0:
            raise AssertionError("direct query reported no transcendental calls")
        if c.total_ops() >= c2.total_ops():
            raise AssertionError("table query cost at least as much as direct query")


def _check_serialization(tables: TableSet) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        back = load_tables(tmp)  # the lazy reader of query and bench
        for held, read_back in ((tables.single, back.single_for),
                                (tables.double, back.double_for)):
            for name, table in held.items():
                write_table(table, Path(tmp) / table_filename(table))
                if read_back(name) != table:
                    raise AssertionError(f"round trip altered {table_filename(table)}")


def cmd_validate(args) -> int:
    checks = []
    planet, earth = _synthetic_pair()
    bodies = {planet.name: planet, earth.name: earth}

    def dataset_check():
        if "earth" not in _dataset(args):
            raise AssertionError("dataset lacks an 'earth' entry")

    ts = None

    def build_check():
        nonlocal ts
        built = TableSet()
        for builder, build_args in compile_plan(bodies, bodies, earth.P / 64.0, (16, 16)):
            built.add(builder(*build_args))
        ts = built

    checks.append(("elements-dataset", dataset_check))
    checks.append(("solver-grid-residual", _check_solver_grid))
    checks.append(("calendar-round-trip", _check_calendar_round_trip))
    checks.append(("anomaly-round-trip", _check_anomaly_round_trip))
    checks.append(("table-build", build_check))
    checks.append(("knot-exactness", lambda: _check_knot_exactness(ts)))
    checks.append(("zero-transcendental-sweep",
                   lambda: _check_zero_transcendental(ts, bodies, planet.name)))
    checks.append(("serialization-round-trip", lambda: _check_serialization(ts)))

    table_files = table_paths(_table_dir(args))
    if table_files:
        def table_files_check():
            loaded = TableSet()
            for path in table_files:
                loaded.add(read_table_file(path))
            _check_knot_exactness(loaded)
        checks.append(("table-files", table_files_check))

    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # report, keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, tables=False, report=True):
    p.add_argument("--elements", help="elements CSV (default: shipped dataset)")
    if report:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--no-timestamp", action="store_true",
                       help="deterministic output for diffing")
    if tables:
        p.add_argument("--table-dir", help="compiled table directory (default: $URANIA_DATA_DIR or ./tables)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urania",
        description="Planetary ephemeris engine: direct Kepler evaluation or compiled table lookup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="compile and write table files")
    p.add_argument("--planet", action="append", help="body name (repeatable)")
    p.add_argument("--all", action="store_true", help="every body in the dataset")
    p.add_argument("--step-days", type=float, default=1.0)
    p.add_argument("--double", help="also build UxV double-entry tables (e.g. 64x64)")
    _add_common(p, tables=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("query", help="geocentric position at a date or Julian Date")
    p.add_argument("--mode", choices=("direct", "table"), required=True)
    p.add_argument("--planet", required=True)
    when = p.add_mutually_exclusive_group(required=True)
    when.add_argument("--jd", type=float)
    when.add_argument("--date", help="ISO date-time, e.g. 2000-01-01T12:00")
    p.add_argument("--heliocentric", action="store_true", help="also print the heliocentric line")
    p.add_argument("--count-ops", action="store_true")
    p.add_argument("--precision", type=int, default=4, help="decimal places for degrees")
    _add_common(p, tables=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("compare", help="sweep table mode against direct mode")
    p.add_argument("--planet", required=True)
    p.add_argument("--kind", choices=("double", "single"), default="double")
    p.add_argument("--double", default="64x64")
    p.add_argument("--step-days", type=float, default=1.0)
    p.add_argument("--from-jd", type=float, required=True)
    span = p.add_mutually_exclusive_group(required=True)
    span.add_argument("--to-jd", type=float)
    span.add_argument("--span-days", type=float)
    p.add_argument("--samples", type=int, default=720)
    p.add_argument("--max-lambda-err", type=float, help="exit 1 if the max angle error exceeds this")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="op-count and time a batch of queries in both modes")
    p.add_argument("--queries", type=int, default=10000)
    p.add_argument("--planet", action="append", help="restrict to these bodies (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, tables=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("census", help="count the calculations a table set requires")
    p.add_argument("--step-days", type=float, default=1.0)
    p.add_argument("--double", default="64x64", help="UxV double-entry shape, or 'none'")
    p.add_argument("--measure-ops", action="store_true",
                   help="also measure compile arithmetic with the op counter")
    _add_common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("validate", help="run the built-in invariant checks")
    _add_common(p, tables=True, report=False)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TableVersionError, TableNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, DomainError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except (DegenerateGeometryError, UnsupportedInversionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
