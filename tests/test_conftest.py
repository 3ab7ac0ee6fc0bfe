"""Unit tests of the truncated single-mode operators in conftest.py, from which
the Kronecker oracles of the Hamiltonian are built."""

import math

import numpy as np
import pytest

from conftest import embed, ladder_ops, number_op, quadrature
from phi4vqe.lattice_model import ModelParams


def bench(n_max):
    return ModelParams.from_counterterm(L=2, m_sq=1.0, delta_m=0.0, lam=0.0, n_max=n_max)


# ---------------------------------------------------------------- ladder operators

def test_ladder_ops_two_levels():
    a, adag = ladder_ops(2)
    assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(adag, a.T)


def test_ladder_ops_sqrt_matrix_elements():
    a, _ = ladder_ops(3)
    assert a[1, 2] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_number_operator_diagonal():
    a, adag = ladder_ops(4)
    assert np.allclose(adag @ a, np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-14)
    assert np.allclose(number_op(4), np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-14)


def test_ladder_commutator_below_truncation():
    # [a, a+] = 1 except on the highest retained level
    a, adag = ladder_ops(6)
    comm = a @ adag - adag @ a
    assert np.allclose(comm[:5, :5], np.eye(5), atol=1e-14)
    assert comm[5, 5] == pytest.approx(1.0 - 6.0, abs=1e-13)


def test_ladder_ops_rejects_trivial_truncation():
    with pytest.raises(ValueError):
        ladder_ops(1)


# ---------------------------------------------------------------- quadrature

def test_quadrature_two_levels():
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(quadrature(2), [[0.0, r], [r, 0.0]], atol=1e-15)


def test_quadrature_vacuum_variance():
    q = quadrature(4)
    assert (q @ q)[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_quadrature_squared_even_block():
    q2 = quadrature(4) @ quadrature(4)
    block = q2[np.ix_([0, 2], [0, 2])]
    r = math.sqrt(2.0) / 2.0
    assert np.allclose(block, [[0.5, r], [r, 2.5]], atol=1e-14)


def test_quadrature_hermitian():
    q = quadrature(8)
    assert np.allclose(q, q.T.conj(), atol=1e-15)


# ---------------------------------------------------------------- embedding

def test_embed_identity():
    p = bench(n_max=2)
    assert np.allclose(embed(np.eye(2), 0, p), np.eye(4), atol=1e-15)


def test_embed_mode_zero_is_slow_index():
    p = bench(n_max=2)
    n = number_op(2)
    assert np.allclose(np.diag(embed(n, 0, p)), [0.0, 0.0, 1.0, 1.0], atol=1e-15)
    assert np.allclose(np.diag(embed(n, 1, p)), [0.0, 1.0, 0.0, 1.0], atol=1e-15)


def test_embed_rejects_out_of_range_mode():
    p = bench(n_max=2)
    with pytest.raises(ValueError):
        embed(np.eye(2), 2, p)
