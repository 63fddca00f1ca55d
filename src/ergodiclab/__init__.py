"""Numerical laboratory for Cesaro-mean ergodicity of operator semigroups
on truncated l1 sequence spaces."""

__version__ = "0.1.0"
