"""Small shared utilities: 64-bit two's complement helpers, a seeded RNG
and weak callbacks."""

from repro.utils.bitops import (
    MASK64,
    sext,
    sext8,
    sext16,
    sext32,
    to_signed,
    to_unsigned,
    fits_signed,
    fits_unsigned,
)
from repro.utils.rng import Xorshift64

__all__ = [
    "MASK64",
    "sext",
    "sext8",
    "sext16",
    "sext32",
    "to_signed",
    "to_unsigned",
    "fits_signed",
    "fits_unsigned",
    "Xorshift64",
]
