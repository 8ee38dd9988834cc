"""Conversion between natural units (hbar = c = 1) and SI output units.

The core computes everything in natural units with lengths in meters, so a
quantity of dimension length^-n converts to SI by a single factor of
hbar*c = h/(2*pi) * c in J*m:

    potential  [1/m]   -> J      (energy)
    force      [1/m^2] -> J/m = N
    correlator [1/m^4] -> J/m^3  (energy density)

Inputs (separations, positions, polarizabilities) are never converted:
meters and cubic meters are already natural-unit values. The CLI's
--units si multiplies each output column of such a quantity by HBAR_C_J_M.
"""

import math

# Exact SI definitions: h = 6.62607015e-34 J*s, c = 299792458 m/s.
PLANCK_H_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0
HBAR_C_J_M = PLANCK_H_J_S / (2.0 * math.pi) * SPEED_OF_LIGHT_M_S
