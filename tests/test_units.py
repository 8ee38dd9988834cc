"""The SI conversion factor hbar*c."""

import math

import pytest

from cpwalls.units import HBAR_C_J_M, PLANCK_H_J_S, SPEED_OF_LIGHT_M_S


def test_constants_are_exact_si_definitions():
    assert PLANCK_H_J_S == 6.62607015e-34
    assert SPEED_OF_LIGHT_M_S == 299792458.0
    assert HBAR_C_J_M == PLANCK_H_J_S / (2.0 * math.pi) * SPEED_OF_LIGHT_M_S
    # hbar*c ~ 3.16e-26 J*m
    assert HBAR_C_J_M == pytest.approx(3.1615267734966903e-26, rel=1e-15)
