"""Planetary ephemeris engine with two query modes.

Direct mode solves Kepler's equation and reduces heliocentric states to
geocentric positions on demand. Table mode answers the same queries from
pre-compiled single- and double-entry tables using only additions,
multiplications, comparisons and row fetches, with an operation counter
proving the absence of transcendental calls on the query path.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a one-shot ``urania
query`` loads only the modules its mode runs.
"""

import importlib

# Public name -> the module that defines it.
_EXPORTS = {
    "angles": ("GeocentricPosition", "aphelion_shift", "normalize_deg", "wrap_diff_deg"),
    "compare": ("double_errors", "single_errors", "sweep"),
    "dataset": (
        "ElementsDataset",
        "OrbitalElements",
        "default_elements_path",
        "load_elements",
        "validate_elements",
    ),
    "errors": (
        "DegenerateGeometryError",
        "DomainError",
        "ParseError",
        "TableNotFoundError",
        "TableParseError",
        "TableVersionError",
        "UraniaError",
    ),
    "evaluate": (
        "TableSet",
        "counted_query",
        "geocentric_at_table",
        "heliocentric_at_table",
        "load_tables",
        "lookup_double",
        "lookup_grid",
        "lookup_planet",
    ),
    "geocentric": ("geocentric_at", "rect_to_spherical", "reduce_rect"),
    "juliandate": ("calendar_to_jd", "jd_to_calendar"),
    "kepler": ("position_since_aphelion", "radius", "solve_kepler", "time_since_aphelion"),
    "opcount": ("OpCounter", "measure_compile_ops"),
    "tableio": (
        "DoubleEntryTable",
        "PlanetTable",
        "parse_shape",
        "read_table",
        "table_filename",
        "write_table",
    ),
    "tables": (
        "build_double_entry",
        "build_planet_table",
        "calculation_census",
        "census_line",
        "compile_plan",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
