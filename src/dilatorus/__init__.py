"""Dilation tori with one boundary component.

Pentagon rooms, twist moves on their parameters, the renormalization
of their directional flows, and the geodesic flow on the resulting
moduli space.  The CLI entry point lives in `dilatorus.cli`.
"""
