"""Exact traces of Hecke and Frobenius operators via weighted point counts."""

__version__ = "0.1.0"
