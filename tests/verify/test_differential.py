"""Differential / metamorphic harness tests (small grids for speed)."""

import numpy as np
import pytest

from repro.verify.differential import (
    _hlop_seed,
    check_fuse_equivalence,
    check_policy_equivalence,
    check_shuffle_invariance,
    exact_platform,
)

SMALL_GRID = (("sobel", (64, 64)), ("histogram", 64 * 64))


def test_exact_policies_bit_identical():
    assert check_policy_equivalence(SMALL_GRID) == []


def test_exact_policy_equivalence_all_default_kernels():
    assert check_policy_equivalence() == []


def test_quantized_path_shuffle_invariant():
    assert check_shuffle_invariance(SMALL_GRID) == []


def test_shuffle_invariance_all_default_kernels():
    assert check_shuffle_invariance() == []


def test_fuse_equivalence_all_default_kernels():
    """Fused runs (serial and pool backends) match unfused runs bitwise,
    outputs and makespans, across the default differential grid."""
    assert check_fuse_equivalence() == []


def test_hlop_seed_depends_only_on_identity():
    """The per-HLOP seed is a pure function of (run seed, hlop id)."""
    assert _hlop_seed(7, 3) == _hlop_seed(7, 3)
    assert _hlop_seed(7, 3) != _hlop_seed(7, 4)
    assert _hlop_seed(8, 3) != _hlop_seed(7, 3)
    assert 0 <= _hlop_seed(123456, 999) < 2**31 - 1


def test_exact_platform_is_all_exact():
    platform = exact_platform()
    assert len(platform.devices) >= 3
    assert all(d.accuracy_rank == 0 for d in platform.devices)
