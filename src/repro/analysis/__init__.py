"""Tables and fits shared by the campaign reports (:mod:`repro.experiments.report`)."""

from repro.analysis.tables import format_csv, format_table
from repro.analysis.fitting import fit_log_exponent, growth_ratios

__all__ = ["format_table", "format_csv", "fit_log_exponent", "growth_ratios"]
