import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from calckit.errors import DimensionError, DomainError, SingularityError
from calckit.linalg import (PIVOT_RTOL, _cholesky_rows, _cholesky_solve_rows, as_mat, as_vec,
                            cholesky, cholesky_solve, determinant, is_positive_definite,
                            lu_solve, norm_inf)


def test_norm_inf_of_vectors_matrices_and_empties():
    assert norm_inf(np.array([-3.0, 2.0])) == 3.0
    assert norm_inf(np.array([[1.0, -2.0], [-4.0, 0.5]])) == 4.5
    assert norm_inf(np.zeros((0, 3))) == 0.0
    assert type(norm_inf([[1.0]])) is float


def test_identity_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        assert np.array_equal(np.eye(2) @ m, m)


def test_nilpotent_square_is_zero():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(n @ n, np.zeros((2, 2)))


def test_matmul_hand_case():
    # [[1,2],[3,4]] @ [[5],[6]] = [[17],[39]] by hand arithmetic
    out = np.array([[1.0, 2.0], [3.0, 4.0]]) @ np.array([[5.0], [6.0]])
    assert np.array_equal(out, [[17.0], [39.0]])


def test_matmul_associative_on_random_triples():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        c = rng.standard_normal((2, 5))
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_lu_solve_identity():
    assert np.array_equal(lu_solve(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_lu_solve_hand_elimination():
    # 2x + y = 3, x + 3y = 5  ->  x = 0.8, y = 1.4
    x = lu_solve([[2.0, 1.0], [1.0, 3.0]], [3.0, 5.0])
    assert np.max(np.abs(x - np.array([0.8, 1.4]))) < 1e-14


def test_lu_solve_rank_deficient():
    with pytest.raises(SingularityError):
        lu_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])


def test_lu_solve_needs_pivoting():
    # zero leading pivot is fine with row exchanges
    x = lu_solve([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0])
    assert np.allclose(x, [3.0, 2.0], atol=1e-14)


def test_lu_solve_random_residuals():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = lu_solve(a, b)
        assert norm_inf(a @ x - b) <= 1e-8


def test_lu_solve_shape_checks():
    with pytest.raises(DimensionError):
        lu_solve(np.ones((2, 3)), [1.0, 2.0])
    with pytest.raises(DimensionError):
        lu_solve(np.eye(2), [1.0, 2.0, 3.0])


def test_transpose_involution_exact():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 6))
    assert np.array_equal(m.T.T, m)


def test_determinant_hand_cases():
    assert determinant([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0, abs=1e-14)
    assert determinant([[1.0, 1.0], [1.0, 1.0]]) == 0.0


def test_positive_definite_check():
    assert is_positive_definite([[2.0, 1.0], [1.0, 3.0]])
    assert not is_positive_definite([[1.0, 2.0], [2.0, 1.0]])


def test_cholesky_hand_case():
    # [[4, 2], [2, 3]] = L L^T with L = [[2, 0], [1, sqrt(2)]]
    low = cholesky([[4.0, 2.0], [2.0, 3.0]])
    assert np.max(np.abs(low - [[2.0, 0.0], [1.0, np.sqrt(2.0)]])) <= 1e-15
    # 4x + 2y = 8, 2x + 3y = 8  ->  x = 1, y = 2
    x = cholesky_solve([[4.0, 2.0], [2.0, 3.0]], [8.0, 8.0])
    assert np.max(np.abs(x - [1.0, 2.0])) <= 1e-15


def test_cholesky_rejects_bad_input():
    with pytest.raises(DimensionError):
        cholesky(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        cholesky_solve(np.ones((2, 3)), [1.0, 2.0])
    with pytest.raises(DomainError):
        cholesky([[1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(DomainError):
        cholesky_solve(np.eye(2), [1.0, np.inf])
    with pytest.raises(SingularityError):
        cholesky([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SingularityError):
        cholesky_solve([[-1.0]], [1.0])
    with pytest.raises(DimensionError):
        cholesky_solve(np.eye(2), [1.0, 2.0, 3.0])


def test_cholesky_refuses_what_lu_refuses():
    # the second pivot, 1e-13, is positive but not above 1e-12 * ||A||_inf
    a = [[1.0, 1.0], [1.0, 1.0 + 1e-13]]
    for solve in (lu_solve, cholesky_solve):
        with pytest.raises(SingularityError):
            solve(a, [1.0, 2.0])
    assert not is_positive_definite(a)


def test_construction_rejects_nonfinite():
    with pytest.raises(DomainError):
        as_vec([1.0, np.nan])
    with pytest.raises(DomainError):
        as_mat([[np.inf, 0.0], [0.0, 1.0]])


# ------------------------------------------------- numpy.linalg as the oracle

EPS = np.finfo(float).eps
entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


def square(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: hnp.arrays(float, (n, n), elements=entries))


@settings(max_examples=100, deadline=None)
@given(square(), st.data())
def test_lu_solve_and_determinant_match_numpy(a, data):
    # both are backward-stable LU solvers, so they agree to within the
    # forward-error bound c n eps cond(A); over 4,000 examples c stayed below
    # 0.43 for the solution and 2 for the determinant, and 10 and 100 are allowed
    n = len(a)
    cond = np.linalg.cond(a)
    assume(cond < 1e8)
    b = data.draw(hnp.arrays(float, n, elements=entries))
    want = np.linalg.solve(a, b)
    x = lu_solve(a, b)
    assert np.max(np.abs(x - want)) <= 10.0 * n * EPS * cond * max(np.max(np.abs(want)), 1e-300)
    det = np.linalg.det(a)
    assert abs(determinant(a) - det) <= 100.0 * n * EPS * cond * abs(det)


@settings(max_examples=100, deadline=None)
@given(square(), st.floats(-1.0, 1.0))
def test_positive_definite_check_matches_numpy_eigenvalues(b, lam_min):
    # S = B B^T shifted so that its smallest eigenvalue is lam_min; within
    # roundoff of singular (|lam_min| <= 1e-8 ||S||) no answer is reliable
    gram = b @ b.T
    s = gram + (lam_min - np.linalg.eigvalsh(gram)[0]) * np.eye(len(b))
    assume(abs(lam_min) > 1e-8 * max(1.0, np.max(np.abs(s))))
    assert is_positive_definite(s) == (np.linalg.eigvalsh(s)[0] > 0.0)


@settings(max_examples=100, deadline=None)
@given(square(), st.floats(1e-6, 1.0), st.data())
def test_cholesky_and_its_solve_match_numpy(b, shift, data):
    # S = B B^T + shift I is SPD with cond(S) <= (8 + shift) / shift; the
    # factor and the solve are within c n eps cond(S) of numpy's, and over
    # 4,000 seeded examples c stayed below 0.2 for the factor and 1.8 for the
    # solve, where 2 and 10 are allowed
    n = len(b)
    s = b @ b.T + shift * np.eye(n)
    cond = np.linalg.cond(s)
    want = np.linalg.cholesky(s)
    assert np.max(np.abs(cholesky(s) - want)) <= 2.0 * n * EPS * cond * np.max(np.abs(want))
    rhs = data.draw(hnp.arrays(float, n, elements=entries))
    x = np.linalg.solve(s, rhs)
    assert (np.max(np.abs(cholesky_solve(s, rhs) - x))
            <= 10.0 * n * EPS * cond * max(np.max(np.abs(x)), 1e-300))


# ------------------------------- map inner products vs the generator spelling

def generator_cholesky_rows(a_rows):
    """Reference: _cholesky_rows with its inner products as generator sums,
    as it was before they became sum(map(mul, ...))."""
    threshold = PIVOT_RTOL * max((sum(map(abs, a)) for a in a_rows), default=0.0)
    rows = []
    for i, a in enumerate(a_rows):
        li = []
        for j, lj in enumerate(rows):
            li.append((a[j] - sum(x * y for x, y in zip(li, lj))) / lj[j])
        s = a[i] - sum(x * x for x in li)
        if s <= threshold:
            raise SingularityError(
                f"pivot {s:.3e} not above threshold {threshold:.3e} at column {i}")
        li.append(math.sqrt(s))
        rows.append(li)
    return rows


def generator_cholesky_solve_rows(a_rows, b):
    """Reference: _cholesky_solve_rows with generator-sum substitutions."""
    rows = generator_cholesky_rows(a_rows)
    y = list(b)
    n = len(rows)
    for i, li in enumerate(rows):
        y[i] = (y[i] - sum(x * v for x, v in zip(li, y[:i]))) / li[i]
    for i in range(n - 1, -1, -1):
        y[i] = (y[i] - sum(rows[k][i] * y[k] for k in range(i + 1, n))) / rows[i][i]
    return y


def flat_bits(rows):
    return np.array(list(chain.from_iterable(rows)), dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("n", range(1, 9))
def test_map_inner_products_equal_the_generator_sums_bit_for_bit(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(200):
        b = rng.standard_normal((n, n)) * rng.choice([1.0, 0.0, 1e-4, 1e4], size=(n, n))
        a = (b @ b.T + rng.uniform(1e-6, 1.0) * np.eye(n)).tolist()
        rhs = (rng.standard_normal(n) * rng.choice([1.0, 0.0, -0.0], size=n)).tolist()
        assert flat_bits(_cholesky_rows(a)) == flat_bits(generator_cholesky_rows(a))
        assert (flat_bits([_cholesky_solve_rows(a, rhs)])
                == flat_bits([generator_cholesky_solve_rows(a, rhs)]))


@pytest.mark.parametrize("n", range(1, 9))
def test_map_inner_products_refuse_what_the_generator_sums_refuse(n):
    # B B^T - (s lambda_min + 1e-3) I with s in [0, 2] is indefinite about half
    # the time; the last pivot of [[1, 1], [1, 1 + t]] is about t against the
    # threshold 1e-12 (2 + t)
    rng = np.random.default_rng(80 + n)
    cases = []
    for _ in range(50):
        b = rng.standard_normal((n, n))
        gram = b @ b.T
        shift = rng.uniform(0.0, 2.0) * np.linalg.eigvalsh(gram)[0] + 1e-3
        cases.append((gram - shift * np.eye(n)).tolist())
    cases += [[[1.0, 1.0], [1.0, 1.0 + t]]
              for t in (1e-13, 1e-12, 2e-12, 2.000000000002e-12, 2.0001e-12, 3e-12)]
    refused = []
    for a in cases:
        outcomes = []
        for factor in (_cholesky_rows, generator_cholesky_rows):
            try:
                outcomes.append(flat_bits(factor(a)))
            except SingularityError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        refused.append(isinstance(outcomes[0], str))
    assert any(refused) and not all(refused)
