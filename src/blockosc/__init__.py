"""Barrier combinatorics, block norms, and limit models over exact rationals.

The package works entirely at desk scale: infinite objects (ground sets,
barriers, limit norms) are represented by closed descriptors, and every
reported number is a Fraction.
"""
