"""Analysis helpers: the section 3.3 MTTF model."""

from repro.analysis.mttf import mttf_years, mttf_table

__all__ = ["mttf_years", "mttf_table"]
