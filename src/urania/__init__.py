"""Planetary ephemeris engine with two query modes.

Direct mode solves Kepler's equation and reduces heliocentric states to
geocentric positions on demand. Table mode answers the same queries from
pre-compiled single- and double-entry tables using only additions,
multiplications, comparisons and row fetches, with an operation counter
proving the absence of transcendental calls on the query path.
"""

from .angles import aphelion_shift, normalize_deg, wrap_diff_deg
from .compare import double_errors, single_errors, sweep, synodic_period
from .dataset import ElementsDataset, default_elements_path, load_elements
from .errors import (
    DegenerateGeometryError,
    DomainError,
    ParseError,
    TableNotFoundError,
    TableParseError,
    TableVersionError,
    UnsupportedInversionError,
    UraniaError,
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
from .geocentric import (
    GeocentricPosition,
    RectVec,
    geocentric_at,
    geocentric_reduce,
    helio_to_rect,
    rect_to_spherical,
)
from .juliandate import calendar_to_jd, jd_to_calendar
from .kepler import (
    CorrectionTerm,
    HeliocentricState,
    OrbitalElements,
    heliocentric_state,
    mean_anomaly_aph,
    position_since_aphelion,
    radius,
    solve_kepler,
    time_since_aphelion,
    true_anomaly,
    validate_elements,
)
from .opcount import OpCounter, counted_direct, measure_compile_ops
from .tableio import read_table, table_filename, write_table
from .tables import (
    DoubleEntryTable,
    PlanetTable,
    TableRow,
    build_double_entry,
    build_planet_table,
    calculation_census,
    census_line,
    compile_plan,
    parse_shape,
)

__version__ = "0.1.0"
