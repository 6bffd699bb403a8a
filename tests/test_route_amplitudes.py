"""The amplitudes of the generation routes, pinned by the sha256 of their bytes.

A refactor of how a route builds its generators (the drive's -i dt H, the
exp-form scaling, the lowering ladder) may claim to keep every amplitude
bit-identical; these pins hold it to that.  Record them again with

    PYTHONPATH=src python tests/test_route_amplitudes.py > tests/data/route_amplitudes.json

only when a change is meant to move the amplitudes.
"""

import cmath
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from fockbench import fock, generation
from fockbench.algebra import su2_hp, su11_hp
from fockbench.fock import Cutoff, enumerate_basis

ROUTE_AMPLITUDES = pathlib.Path(__file__).parent / "data" / "route_amplitudes.json"

# the classical current of `fockbench verify dynamical`
_CURRENT = ((0.0, 0.7, 0.9 + 0.4j), (0.7, 1.5, -0.3 + 1.1j))
_NMS_ETA = tuple(math.sqrt(e) for e in (0.09, 0.06, 0.05))
_MS_ETA = tuple(math.sqrt(e) for e in (0.2, 0.2, 0.1))


def _drive(t, omega=1.3):
    current = generation.ClassicalCurrent(_CURRENT, omega)
    return generation.dynamical_coherent(current, t, enumerate_basis(1, Cutoff.per_mode(45)))


def _exp_form(algebra, levels, M, z):
    build = su11_hp if algebra == "su11" else su2_hp
    return generation.exp_form_state(build(enumerate_basis(1, Cutoff.per_mode(levels)), M), z)


def _nms(cutoff, thetas):
    return generation.sequential_nms(_NMS_ETA, thetas, 2.0, enumerate_basis(3, Cutoff.total(cutoff)))


def _ms(M, thetas):
    return generation.sequential_ms(_MS_ETA, thetas, M, enumerate_basis(3, Cutoff.total(M)))


def _lowering(mode):
    return fock.annihilation_op(enumerate_basis(3, Cutoff.total(6)), mode).matrix.toarray()


ROUTES = {
    "dynamical_coherent_t0.7": lambda: _drive(0.7).amplitudes,
    "dynamical_coherent_t1.5": lambda: _drive(1.5).amplitudes,
    "dynamical_coherent_t1.5_omega0": lambda: _drive(1.5, omega=0.0).amplitudes,
    "exp_form_su11_M2_z0.5e0.3i": lambda: _exp_form("su11", 30, 2.0, 0.5 * cmath.exp(0.3j)).amplitudes,
    "exp_form_su11_M2.5_z-0.6+0.2i": lambda: _exp_form("su11", 60, 2.5, -0.6 + 0.2j).amplitudes,
    "exp_form_su11_M0.5_z0.3": lambda: _exp_form("su11", 40, 0.5, 0.3).amplitudes,
    "exp_form_su2_M4_z0.4": lambda: _exp_form("su2", 4, 4, 0.4).amplitudes,
    "exp_form_su2_M5_z0.3-0.5i": lambda: _exp_form("su2", 5, 5, 0.3 - 0.5j).amplitudes,
    "sequential_nms_d969": lambda: _nms(16, (0.2, 0.9, 1.7)).amplitudes,
    "sequential_nms_d1771": lambda: _nms(20, (-0.4, 2.2, 0.1)).amplitudes,
    "sequential_ms_d969": lambda: _ms(16, (0.3, 0.6, 0.9)).amplitudes,
    "sequential_ms_d1771": lambda: _ms(20, (0.0, -1.0, 2.5)).amplitudes,
    "annihilation_op_3mode_mode0": lambda: _lowering(0),
    "annihilation_op_3mode_mode1": lambda: _lowering(1),
    "annihilation_op_3mode_mode2": lambda: _lowering(2),
}


def _digest(amplitudes):
    assert amplitudes.dtype == np.complex128
    return hashlib.sha256(amplitudes.tobytes()).hexdigest()


def test_every_route_is_pinned():
    assert set(json.loads(ROUTE_AMPLITUDES.read_text())) == set(ROUTES)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_amplitudes_match_their_recorded_bytes(route):
    # The bytes hold for numpy 2.4 on x86-64 running its dispatched SIMD loops
    # (X86_V3 and up), whose complex multiply fuses into FMAs; with those loops
    # disabled (NPY_DISABLE_CPU_FEATURES) the baseline loops round products
    # differently and the pins of every route that multiplies complex arrays fail.
    expected = json.loads(ROUTE_AMPLITUDES.read_text())[route]
    assert _digest(ROUTES[route]()) == expected, \
        f"numpy SIMD: {np.show_config(mode='dicts')['SIMD Extensions']}"


if __name__ == "__main__":
    print(json.dumps({name: _digest(build()) for name, build in sorted(ROUTES.items())}, indent=1))
