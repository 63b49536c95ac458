"""Reporting helpers: ASCII tables, architecture reports, paper comparison,
and cross-scenario comparison tables over stored sweep results."""
