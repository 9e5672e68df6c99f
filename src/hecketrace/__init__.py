"""Exact traces of Hecke and Frobenius operators via weighted point counts."""

from hecketrace.ffield import (
    BudgetError,
    DEFAULT_MAX_FIELD_SIZE,
    FqElem,
    FqField,
    PrimePower,
    embed,
    fq_construct,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "DEFAULT_MAX_FIELD_SIZE",
    "FqElem",
    "FqField",
    "PrimePower",
    "embed",
    "fq_construct",
    "__version__",
]
