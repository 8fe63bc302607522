"""Shared test utilities: finite-difference oracle, tolerances, bit equality."""

import numpy as np

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-8


def finite_difference_grad(f, x, h=FD_STEP):
    """Central-difference gradient of a scalar function of an array."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def grads_close(analytic, numeric, rel=REL_TOL, floor=ABS_FLOOR):
    """Elementwise relative check, errors below the floor always pass."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    err = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return bool(np.all((err <= rel * scale) | (err <= floor)))


def same_bits(x, y):
    """Equal float64 bit patterns: tells -0.0 from 0.0 and matches NaNs."""
    return np.array_equal(np.asarray(x, dtype=np.float64).view(np.uint64),
                          np.asarray(y, dtype=np.float64).view(np.uint64))
