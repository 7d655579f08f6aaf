import itertools

import numpy as np
import pytest

from smallforms import (
    ApproximatingFunction,
    BudgetExceededError,
    MatrixPoint,
    PreconditionError,
    SearchBudget,
    SingularMatrixError,
    dirichlet_bound,
    dirichlet_witness,
    height_obstruction,
    min_form,
    witnesses,
)


# -- independent brute-force oracle (kept free of the package's enumeration) --

def iter_canonical(m, q_max):
    """All canonical q with 0 < |q|_inf <= q_max, (height, lex) ordered."""
    out = []
    for q in itertools.product(range(-q_max, q_max + 1), repeat=m):
        if not any(q):
            continue
        lead = next(v for v in q if v != 0)
        if lead < 0:
            continue
        out.append(q)
    out.sort(key=lambda q: (max(abs(v) for v in q), q))
    return out


def oracle_value(q, X):
    return max(abs(sum(qi * X.entries[i, j] for i, qi in enumerate(q))) for j in range(X.n))


def oracle_min(X, q_max):
    best = None
    for q in iter_canonical(X.m, q_max):
        v = oracle_value(q, X)
        if best is None or v < best[0]:
            best = (v, q)
    return best


def oracle_witnesses(X, psi, q_max):
    return [q for q in iter_canonical(X.m, q_max) if oracle_value(q, X) < psi(float(max(abs(v) for v in q)))]


def col(*vals):
    return MatrixPoint.from_columns(list(vals))


# zero lead entries, the zero matrix, dyadic entries with exact ties, m = 1
STRUCTURED = (
    col(0.0, 0.3),
    col(0.0, 0.3, -0.2),
    MatrixPoint.from_columns([0.0, 0.25], [0.3, 0.0]),
    MatrixPoint(np.zeros((2, 1))),
    MatrixPoint(np.zeros((3, 2))),
    col(0.5, 0.25),
    col(0.5, 0.5, 0.25),
    MatrixPoint.from_columns([0.5, 0.25, 0.125], [0.25, 0.0, -0.5]),
    MatrixPoint(np.array([[0.3, -0.4]])),
    MatrixPoint(np.zeros((1, 1))),
)


class TestMinForm:
    def test_rational_dependence(self):
        w = min_form(col(0.5, 0.25), 2)
        assert w.value == 0.0
        assert w.q == (1, -2)

    def test_zero_matrix(self):
        w = min_form(MatrixPoint(np.zeros((2, 2))), 5)
        assert w.value == 0.0
        assert w.height == 1

    def test_matches_oracle_on_golden_ratio_point(self):
        X = col(0.381966, -0.236068)
        expected_value, expected_q = oracle_min(X, 10)
        for pruned in (False, True):
            w = min_form(X, 10, pruned=pruned)
            assert w.value == expected_value
            assert w.q == expected_q

    def test_monotone_in_height_bound(self):
        rng = np.random.default_rng(3)
        X = MatrixPoint(rng.random((2, 2)) - 0.5)
        values = [min_form(X, Q).value for Q in (1, 2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_canonical_representative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = MatrixPoint(rng.random((3, 1)) - 0.5)
            w = min_form(X, 6)
            lead = next(v for v in w.q if v != 0)
            assert lead > 0


class TestWitnesses:
    def test_zero_matrix_counts_all(self):
        X = MatrixPoint(np.zeros((2, 1)))
        psi = ApproximatingFunction.power(1.0, 1.0)
        res = witnesses(X, psi, SearchBudget(3))
        assert len(res) == ((2 * 3 + 1) ** 2 - 1) // 2
        assert not res.truncated

    def test_exact_zeros_at_multiples(self):
        X = col(0.5, 0.25)
        psi = ApproximatingFunction.power(0.01, 3.0)
        qs = [w.q for w in witnesses(X, psi, SearchBudget(4))]
        assert (1, -2) in qs and (2, -4) in qs

    def test_matches_oracle_seeded(self):
        rng = np.random.default_rng(7)
        X = MatrixPoint(rng.random((3, 1)) - 0.5)
        psi = ApproximatingFunction.power(1.0, 2.0)
        expected = oracle_witnesses(X, psi, 20)
        for pruning in (False, True):
            res = witnesses(X, psi, SearchBudget(20, pruning=pruning))
            assert [w.q for w in res] == expected

    def test_cap_and_flag(self):
        X = MatrixPoint(np.zeros((2, 1)))
        psi = ApproximatingFunction.power(1.0, 1.0)
        res = witnesses(X, psi, SearchBudget(3, max_witnesses=4))
        assert len(res) == 4 and res.truncated

    def test_sorted_by_height_then_lex(self):
        rng = np.random.default_rng(17)
        X = MatrixPoint(rng.random((2, 1)) - 0.5)
        psi = ApproximatingFunction.power(2.0, 1.0)
        qs = [w.q for w in witnesses(X, psi, SearchBudget(12))]
        keys = [(max(abs(v) for v in q), q) for q in qs]
        assert keys == sorted(keys)

    def test_pruned_equals_naive_across_shapes(self):
        rng = np.random.default_rng(23)
        psi = ApproximatingFunction.power(1.0, 1.5)
        points = [
            MatrixPoint(rng.random((m, n)) - 0.5)
            for m, n in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3))
            for _ in range(5)
        ]
        for X in points + list(STRUCTURED):
            a = witnesses(X, psi, SearchBudget(8, pruning=True))
            b = witnesses(X, psi, SearchBudget(8, pruning=False))
            assert [w.q for w in a] == [w.q for w in b]
            wa = min_form(X, 8, pruned=True)
            wb = min_form(X, 8, pruned=False)
            assert wa == wb


class TestDirichlet:
    def test_bound_above_trivial_value(self):
        rng = np.random.default_rng(2)
        X = MatrixPoint(rng.random((2, 2)) - 0.5)
        w = dirichlet_witness(X, 1)
        assert w.height == 1
        assert w.value < dirichlet_bound(2, 2, 1)

    def test_hand_checked_instance(self):
        X = col(0.3, 0.4)
        w = dirichlet_witness(X, 4)
        assert w.height <= 16
        assert w.value < 0.125
        # (1, -1) hits 0.1 < 0.125, so the returned witness can be no worse
        assert w.value <= 0.1 + 1e-12

    def test_exact_cancellation(self):
        w = dirichlet_witness(col(0.5, 0.5), 3)
        assert w.q == (1, -1)
        assert w.value == 0.0

    def test_first_in_order_matches_oracle(self):
        rng = np.random.default_rng(31)
        cases = []
        for trial in range(60):
            m, n = [(2, 1), (3, 1), (3, 2), (2, 2)][trial % 4]
            cases.append((MatrixPoint(rng.random((m, n)) - 0.5), 1 + trial % 3))
        cases += [(X, t) for X in STRUCTURED for t in (1, 2, 3)]
        for X, t in cases:
            bound = dirichlet_bound(X.m, X.n, t)
            first = next(
                (q for q in iter_canonical(X.m, 2 ** t) if oracle_value(q, X) < bound), None
            )
            assert first is not None
            w = dirichlet_witness(X, t)
            assert w.q == first

    def test_totality_sample(self):
        rng = np.random.default_rng(41)
        for m, n in ((2, 1), (3, 1), (3, 2)):
            for i in range(50):
                X = MatrixPoint(rng.random((m, n)) - 0.5)
                t = 1 + i % 6
                w = dirichlet_witness(X, t)
                assert w.height <= 2 ** t
                assert w.value < dirichlet_bound(m, n, t)


class TestHeightObstruction:
    def test_diagonal_quadratic_decay(self):
        X = MatrixPoint(np.diag([0.5, 0.5]))
        psi = ApproximatingFunction.power(1.0, 2.0)
        q_star = height_obstruction(X, psi)
        assert q_star == 1
        # exhaustive: no witness of height >= 2 anywhere up to 50
        for w in witnesses(X, psi, SearchBudget(50)):
            assert w.height <= q_star

    def test_diagonal_linear_decay(self):
        X = MatrixPoint(np.diag([0.5, 0.5]))
        psi = ApproximatingFunction.power(1.0, 1.0)
        assert height_obstruction(X, psi) == 2

    def test_singular_rejected(self):
        X = MatrixPoint(np.array([[0.25, 0.25], [0.25, 0.25]]))
        psi = ApproximatingFunction.power(1.0, 2.0)
        with pytest.raises(SingularMatrixError):
            height_obstruction(X, psi)

    def test_soundness_on_random_sample(self):
        rng = np.random.default_rng(53)
        psi = ApproximatingFunction.power(1.0, 2.0)
        checked = 0
        while checked < 25:
            X = MatrixPoint(rng.random((2, 2)) - 0.5)
            if abs(np.linalg.det(X.entries)) <= 1e-3:
                continue
            checked += 1
            q_star = height_obstruction(X, psi)
            probe = min(4 * q_star + 8, 120)
            for w in witnesses(X, psi, SearchBudget(probe)):
                assert w.height <= q_star

    def test_zero_when_even_height_one_excluded(self):
        X = MatrixPoint(np.diag([0.5, 0.5]))
        psi = ApproximatingFunction.power(0.25, 2.0)  # psi(1) = 1/4 < 1/C2 = 1/2
        assert height_obstruction(X, psi) == 0

    def test_requires_square(self):
        with pytest.raises(PreconditionError):
            height_obstruction(col(0.1, 0.2), ApproximatingFunction.power(1, 2))


class TestSingleRow:
    def test_min_form_and_witnesses(self):
        X = MatrixPoint(np.array([[0.3, -0.4]]))
        assert min_form(X, 5).q == (1,)
        psi = ApproximatingFunction.power(3.0, 0.5)
        qs = [w.q for w in witnesses(X, psi, SearchBudget(4))]
        assert qs == [(1,), (2,), (3,)]   # |4 x| = 1.6 misses psi(4) = 1.5

    def test_dirichlet_trivial_regime(self):
        X = MatrixPoint(np.array([[0.3, -0.4]]))
        w = dirichlet_witness(X, 2)
        assert w.q == (1,)
        assert w.value < dirichlet_bound(1, 2, 2)


class TestBudgets:
    def test_invalid_budget(self):
        with pytest.raises(PreconditionError):
            SearchBudget(0)
        with pytest.raises(PreconditionError):
            SearchBudget(5, max_witnesses=0)

    def test_candidate_set_too_large(self):
        X = MatrixPoint(np.zeros((2, 1)))   # every q through every tail is a candidate
        with pytest.raises(BudgetExceededError):
            min_form(X, 5000)
        with pytest.raises(BudgetExceededError):
            witnesses(X, ApproximatingFunction.power(1.0, 1.0), SearchBudget(5000))

    def test_band_too_large(self):
        from smallforms.search import band_vectors

        with pytest.raises(BudgetExceededError):
            band_vectors(3, 1, 4000)
