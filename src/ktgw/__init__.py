"""Exact genus-one family curve counts for the Kodaira-Thurston manifold.

The package computes the one-point genus-one invariant of the twistor family
of symplectic structures on the Kodaira-Thurston manifold twice over: by the
closed divisor-sum formula and by brute-force enumeration of the moduli
components of holomorphic tori, cross-checking every ingredient exactly.
"""
