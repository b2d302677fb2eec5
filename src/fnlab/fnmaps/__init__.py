"""Interpolation map pairs: verification and constructions (``core``),
search (``search``) and transports (``transports``).

The package re-exports nothing: public names are imported from ``fnlab``,
and these three modules define them.
"""
