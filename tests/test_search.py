import ast
import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

import smallforms
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
from smallforms import lattice
from smallforms.cli import main
from smallforms.forms import form_columns, form_value
from smallforms.lattice import _ball, _canonical_box, band_vectors


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


@functools.lru_cache(maxsize=4)
def numpy_canonical(m, q_max):
    """iter_canonical by numpy: the box in lex order is symmetric under
    negation about the zero vector, so the canonical half is what follows it."""
    side = 2 * q_max + 1
    box = np.indices((side,) * m).reshape(m, -1).T - q_max
    half = box[side ** m // 2 + 1:]
    return half[np.argsort(np.abs(half).max(axis=1), kind="stable")]


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

    def test_pruned_needs_non_increasing_psi(self):
        # the pruned bound psi(tail height) undercounts where psi grows
        X = col(0.31, 0.2437)
        for psi in (ApproximatingFunction.from_table([(1, 0.01), (3, 0.5)], strict=False),
                    ApproximatingFunction.power_log(0.02, 0.1, -5.0, strict=False)):
            with pytest.raises(PreconditionError):
                witnesses(X, psi, SearchBudget(20))
            naive = witnesses(X, psi, SearchBudget(20, pruning=False))
            assert [w.q for w in naive] == oracle_witnesses(X, psi, 20)

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
        # t up to 10 at (2, 1) and 6 elsewhere crosses every dyadic block of
        # the scan; the oracle is the first hit of the numpy enumeration
        rng = np.random.default_rng(31)
        cases = []
        for trial in range(60):
            m, n = [(2, 1), (3, 1), (3, 2), (2, 2)][trial % 4]
            cases.append((MatrixPoint(rng.random((m, n)) - 0.5), 1 + trial % 3))
        for (m, n), t_max in {(2, 1): 10, (3, 1): 6, (3, 2): 6, (2, 2): 6}.items():
            cases += [(MatrixPoint(rng.random((m, n)) - 0.5), t)
                      for t in range(4, t_max + 1) for _ in range(3)]
        cases += [(X, t) for t in range(1, 7) for X in STRUCTURED]
        for X, t in cases:
            bound = dirichlet_bound(X.m, X.n, t)
            vecs = numpy_canonical(X.m, 2 ** t)
            hit = np.abs(vecs.astype(float) @ X.entries).max(axis=1) < bound
            assert hit.any()
            first = tuple(int(v) for v in vecs[np.argmax(hit)])
            assert dirichlet_witness(X, t).q == first

    def test_exact_tie_at_the_strict_bound(self):
        # bound 1/4 at t = 3: (0, 1) and (1, -1) reach it exactly and miss
        assert dirichlet_bound(2, 1, 3) == 0.25
        assert dirichlet_witness(col(0.5, 0.25), 3).q == (1, -2)
        assert dirichlet_witness(col(0.5, np.nextafter(0.25, 0)), 3).q == (0, 1)

    def test_totality_sample(self):
        rng = np.random.default_rng(41)
        for m, n in ((2, 1), (3, 1), (3, 2)):
            for i in range(50):
                X = MatrixPoint(rng.random((m, n)) - 0.5)
                t = 1 + i % 6
                w = dirichlet_witness(X, t)
                assert w.height <= 2 ** t
                assert w.value < dirichlet_bound(m, n, t)


def near_tie_points(rng, m, t, target, count):
    """Points (m x 1) where a random q of height <= 2^t has q.x = +-target(q)
    up to rounding, x_1 solved for it, then moved by -3..3 ulps."""
    points, cap = [], 2 ** t
    while len(points) < count:
        x = rng.random(m) - 0.5
        q = rng.integers(-cap, cap + 1, m)
        if q[0] == 0:
            continue
        x1 = (rng.choice([-1.0, 1.0]) * target(q) - float(np.dot(q[1:], x[1:]))) / q[0]
        for step in range(-3, 4):
            y = x1
            for _ in range(abs(step)):
                y = np.nextafter(y, step * np.inf)
            if abs(y) <= 0.5:
                points.append(MatrixPoint(np.concatenate(([y], x[1:]))[:, None]))
    return points


def naive_values(X, vecs):
    return np.abs(form_columns(vecs, X.entries)).max(axis=1)


class TestNearTies:
    """Inputs within a few ulps of a strict bound: the engines decide on the
    float value of the one form expression, as the naive band scan does."""

    REPRODUCER = (-0.06348630573830395, 0.41163551682709076, -0.43147244014295894)

    def test_pigeonhole_reproducer(self, capsys):
        # (4, 9, 8) has exact value 0.00101 < b; a kernel with its own
        # rounding once found no hit here and reported a theorem violation
        X, b = col(*self.REPRODUCER), dirichlet_bound(3, 1, 5)
        w = dirichlet_witness(X, 5)
        assert w.value == form_value(w.q, X) < b
        vecs, _ = band_vectors(3, 1, 32)
        assert w.q == tuple(int(v) for v in vecs[np.argmax(naive_values(X, vecs) < b)])
        x_arg = "--X=" + ",".join(map(repr, self.REPRODUCER))
        assert main(["dirichlet", "--m", "3", "--n", "1", x_arg, "--t", "5"]) == 0
        assert f"q={w.q}" in capsys.readouterr().out

    @pytest.mark.parametrize("m", [2, 3])
    def test_dirichlet_sweep(self, m):
        rng = np.random.default_rng(70 + m)
        for t in range(2, 6):
            b = dirichlet_bound(m, 1, t)
            vecs, _ = band_vectors(m, 1, 2 ** t)
            for X in near_tie_points(rng, m, t, lambda q: b, 500):
                w = dirichlet_witness(X, t)
                assert w.value == form_value(w.q, X) < b
                assert w.q == tuple(int(v) for v in vecs[np.argmax(naive_values(X, vecs) < b)])

    @pytest.mark.parametrize("m", [2, 3])
    def test_min_form_and_witnesses_sweep(self, m):
        rng = np.random.default_rng(80 + m)
        psi = ApproximatingFunction.power(0.8, m)
        for t in range(2, 6):
            q_max = 2 ** t
            for X in near_tie_points(rng, m, t, lambda q: psi(float(np.abs(q).max())), 100):
                assert min_form(X, q_max) == min_form(X, q_max, pruned=False)
                fast = witnesses(X, psi, SearchBudget(q_max))
                slow = witnesses(X, psi, SearchBudget(q_max, pruning=False))
                assert [w.q for w in fast] == [w.q for w in slow]
                assert all(w.value == form_value(w.q, X) < psi(float(w.height)) for w in fast)


@pytest.fixture
def lattice_only(monkeypatch):
    """Every box question takes the lattice reduction, however small its box."""
    monkeypatch.setattr(lattice, "_DIRECT_CELLS", 0)


def naive_first_hit(X, h, bound):
    vecs, _ = band_vectors(X.m, 1, h)
    hit = naive_values(X, vecs) < bound
    return tuple(int(v) for v in vecs[np.argmax(hit)]) if hit.any() else None


class TestLatticeEngine:
    """The lattice engine of the search against the naive band scan."""

    # exact ties at t = 5: (8, -4, -5) has exact value b but rounds below it;
    # (7, -4, 3) is 2^-52 below b exactly but rounds to b
    TIES = ((-0.06348630573830395, 0.41163551682709076, -0.43147244014295894),
            (0.4608672578127331, 0.47728106621906274, -0.4399587424376268))

    @pytest.mark.usefixtures("lattice_only")
    def test_lattice_only_equals_naive(self):
        # no box is valued whole, so even height 1 goes through the reduction
        rng = np.random.default_rng(29)
        psi = ApproximatingFunction.power(1.0, 1.5)
        points = [MatrixPoint(rng.random((m, n)) - 0.5)
                  for m, n in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3)) for _ in range(4)]
        for X in points + list(STRUCTURED):
            for q_max in (1, 3, 8):
                assert min_form(X, q_max) == min_form(X, q_max, pruned=False)
                fast = witnesses(X, psi, SearchBudget(q_max))
                slow = witnesses(X, psi, SearchBudget(q_max, pruning=False))
                assert [w.q for w in fast] == [w.q for w in slow]
            for t in (1, 2, 4):
                assert dirichlet_witness(X, t).q == naive_first_hit(X, 2 ** t, dirichlet_bound(X.m, X.n, t))

    @pytest.mark.parametrize("direct", [True, False])
    def test_exact_ties_agree_with_the_naive_scan(self, direct, monkeypatch):
        # agreement with the naive scan of the one float expression, not the
        # exact answer: both return (8, -4, -5) and (9, -5, 4)
        if not direct:
            monkeypatch.setattr(lattice, "_DIRECT_CELLS", 0)
        b = dirichlet_bound(3, 1, 5)
        for x, expected in zip(self.TIES, ((8, -4, -5), (9, -5, 4))):
            X = col(*x)
            w = dirichlet_witness(X, 5)
            assert w.q == naive_first_hit(X, 32, b) == expected
            assert w.value == form_value(w.q, X) < b

    @pytest.mark.parametrize("t", [12, 14, 16])
    def test_dirichlet_reach_at_3_1(self, t):
        # most witnesses here lie far above any naive box.  Where one is low
        # enough for a naive box of about 2^21 cells (a few in a hundred at
        # t = 12) it is the naive first hit
        rng = np.random.default_rng(110 + t)
        b = dirichlet_bound(3, 1, t)
        compared = 0
        for _ in range(150 if t == 12 else 3):
            X = MatrixPoint(rng.random((3, 1)) - 0.5)
            w = dirichlet_witness(X, t)
            assert w.height <= 2 ** t and w.value == form_value(w.q, X) < b
            if (2 * w.height + 1) ** 3 <= 1 << 21:
                vecs = numpy_canonical(3, w.height)
                assert w.q == tuple(vecs[np.argmax(naive_values(X, vecs) < b)])
                compared += 1
        assert compared >= 2 or t > 12

    def test_dirichlet_out_of_reach_at_3_1(self):
        # at t = 18 a rounded value may exceed b exactly by several times b:
        # once the walk reaches a reduced block, the rounding guard refuses
        # the question instead of answering it
        x = (0.3141592653589793, -0.2718281828459045, 0.4142135623730951)
        with pytest.raises(BudgetExceededError):
            dirichlet_witness(col(*x), 18)
        x_arg = "--X=" + ",".join(map(repr, x))
        assert main(["dirichlet", "--m", "3", "--n", "1", x_arg, "--t", "18"]) == 3

    def test_dirichlet_hit_in_a_block_valued_whole(self):
        # the guard is the reach of the reduction: a hit that the walk finds
        # in a block valued whole is the naive first hit, however large t is
        X = col(0.31, -0.27, 0.44)   # 6 x_1 + 2 x_2 - 3 x_3 = 0 up to rounding
        w = dirichlet_witness(X, 18)
        assert w.q == naive_first_hit(X, 6, dirichlet_bound(3, 1, 18)) == (6, 2, -3)
        for X, t in ((col(0.3), 60), (col(-0.1234567), 1000), (MatrixPoint.from_columns([0.3], [0.2]), 200)):
            assert dirichlet_witness(X, t).q == (1,)

    @pytest.mark.parametrize("m, n, psi, q_max", [
        (3, 1, (1.0, 12.0), 60), (2, 1, (1.0, 8.0), 200), (3, 2, (1.0, 12.0), 40), (2, 2, (1.0, 10.0), 100)])
    def test_steep_psi_equals_naive(self, m, n, psi, q_max):
        # psi(lo) of the top block lies below the least bound the rounding
        # guard accepts at hi: the block is asked at the guards' floor and
        # filtered at psi
        f = ApproximatingFunction.power(*psi)
        lo = lattice._height_blocks(1, q_max)[-1][0]
        rng = np.random.default_rng(130 + 10 * m + n)
        points = [rng.random((m, n)) - 0.5 for _ in range(4)]
        points += [np.round(x, 2) for x in points[:2]] + [rng.integers(-31, 32, (m, n)) / 64]
        for x in points:
            X = MatrixPoint(x)
            assert f(float(lo)) < lattice._least_bound(m, q_max, float(np.abs(x).max()))
            fast = witnesses(X, f, SearchBudget(q_max))
            slow = witnesses(X, f, SearchBudget(q_max, pruning=False))
            assert [(w.q, w.value) for w in fast] == [(w.q, w.value) for w in slow]


@pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_two_reductions_give_the_same_candidates(m, n):
    # the stacked and the single-basis reduction round differently and may
    # end in different U, but the enumeration is complete either way: the
    # box filter leaves one set
    rng = np.random.default_rng(120 + 10 * m + n)
    eye = np.eye(m, dtype=np.int64)
    for t in (3, 5, 7):
        H, b = 2 ** t, dirichlet_bound(m, n, t)
        for _ in range(15):
            X = MatrixPoint(rng.random((m, n)) - 0.5)
            basis = lattice._box_basis(X.entries, H, b)
            prior = lattice._rounding_prior(m, H, float(np.abs(X.entries).max()), b)
            stacked = lattice._lll_transform(basis[None], eye[None])[0]
            single = lattice._lll_one(basis, eye)
            sets = []
            for U in (stacked, single):
                assert round(abs(np.linalg.det(U.astype(float)))) == 1
                key = lattice._coefficient_bounds(basis[None], U[None], prior)[0]
                q = lattice._coefficient_box(tuple(key.tolist())) @ U
                q = np.where(lattice._canonical_rows(q)[:, None], q, -q)
                keep = (np.abs(q).max(axis=1) <= H) & (naive_values(X, q) < b)
                sets.append(set(map(tuple, q[keep].tolist())))
            assert sets[0] == sets[1] and sets[0]


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
        with pytest.raises(BudgetExceededError):
            band_vectors(3, 1, 4000)
        with pytest.raises(BudgetExceededError):   # a band of one height, its box 343^3 cells
            band_vectors(3, 171, 171)


class TestEnumeration:
    """The one enumeration against itertools.product."""

    @pytest.mark.parametrize("m, h", [(1, 12), (2, 9), (3, 5), (4, 3)])
    def test_bands_and_tails_in_height_lex_order(self, m, h):
        expected = np.array(iter_canonical(m, h), dtype=np.int64)
        heights = np.abs(expected).max(axis=1)
        for lo in range(1, h + 1):
            for hi in range(lo, h + 1):
                vecs, hs = band_vectors(m, lo, hi)
                band = (lo <= heights) & (heights <= hi)
                assert np.array_equal(vecs, expected[band])
                assert np.array_equal(hs, heights[band])
                assert not vecs.flags.writeable and not hs.flags.writeable
        tails = iter_canonical(m - 1, h)
        tails = np.array(tails, dtype=np.int64).reshape(len(tails), m - 1)
        vecs, hs = _ball(m - 1, h)
        assert np.array_equal(vecs, tails) and vecs.shape == tails.shape
        assert np.array_equal(hs, np.abs(tails).max(axis=1, initial=0))
        assert not vecs.flags.writeable and not hs.flags.writeable

    @pytest.mark.parametrize("bounds", [
        (3,), (0,), (2, 0), (0, 3), (1, 4), (3, 0, 2), (0, 0, 0), (2, 1, 3), (0, 2, 0, 1), (),
    ])
    def test_canonical_box_in_lex_order(self, bounds):
        expected = [q for q in itertools.product(*(range(-k, k + 1) for k in bounds))
                    if any(q) and next(v for v in q if v) > 0]
        box = _canonical_box(bounds)
        assert box.shape == (len(expected), len(bounds))
        assert box.tolist() == [list(q) for q in expected]
        assert not box.flags.writeable


def test_one_box_builder():
    # the enumeration lives in lattice.py; every other module asks it
    for path in sorted(Path(smallforms.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in ("meshgrid", "_canonical_rows", "_BOX_CELL_CAP"):
            assert path.name == "lattice.py" or name not in text, f"{path.name} uses {name}"
        if path.name == "lattice.py":
            assert text.count("meshgrid") == 1


@pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_form_columns_of_rows_and_slices(m, n):
    # a q's value does not depend on the array it sits in, and -q negates it
    rng = np.random.default_rng(90 + 10 * m + n)
    X = MatrixPoint(rng.random((m, n)) - 0.5)
    vecs = rng.integers(-1000, 1001, (1500, m))
    for part in (vecs, vecs[1::3], vecs[::-2], vecs[7:8]):
        cols = form_columns(part, X.entries)
        assert np.abs(cols).max(axis=1).tolist() == [form_value(q, X) for q in part]
        assert np.array_equal(form_columns(-part, X.entries), -cols)


@pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_form_columns_of_a_stack(m, n):
    # against a stack of matrices, with q shared or per matrix, every q gets
    # the columns of the plain loop from the last coordinate down to the first
    rng = np.random.default_rng(100 + 10 * m + n)
    xs = rng.random((5, m, n)) - 0.5
    for q in (rng.integers(-1000, 1001, (7, m)), rng.integers(-1000, 1001, (5, 7, m))):
        cols = form_columns(q, xs[:, None])
        assert cols.shape == (5, 7, n)
        for s, x in enumerate(xs.tolist()):
            for k, row in enumerate(np.broadcast_to(q, (5, 7, m))[s].tolist()):
                for j in range(n):
                    value = 0.0
                    for i in reversed(range(m)):
                        value = row[i] * x[i][j] + value
                    assert cols[s, k, j] == value


_VIEWS = {"reshape", "transpose", "swapaxes", "squeeze", "ravel", "astype", "copy", "view"}


def _reads_x(node, names):
    """Whether ``node`` reads the entries of X: the attribute ``entries`` or
    a name in ``names``.  Shapes, sizes and lengths are not entries."""
    if isinstance(node, ast.Attribute) and node.attr in ("shape", "ndim", "size"):
        return False
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len":
        return False
    if isinstance(node, ast.Attribute) and node.attr == "entries" or isinstance(node, ast.Name) and node.id in names:
        return True
    return any(_reads_x(child, names) for child in ast.iter_child_nodes(node))


def _view_of(node):
    """The name that ``node`` slices, reshapes, transposes or casts, if any."""
    while True:
        if isinstance(node, ast.Subscript) or isinstance(node, ast.Attribute) and node.attr == "T":
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _VIEWS:
            node = node.func.value
        else:
            return node.id if isinstance(node, ast.Name) else None


def _x_names(fn, seeds):
    """Names bound in ``fn`` to a value that reads X itself (``.entries`` or
    a name in ``seeds``), or to a slice, reshape, transpose or cast of a name
    so bound, at any depth."""
    pairs = []
    for a in ast.walk(fn):
        if isinstance(a, ast.Assign):
            for target in a.targets:
                if isinstance(target, ast.Tuple) and isinstance(a.value, ast.Tuple):
                    pairs += zip(target.elts, a.value.elts)
                else:
                    pairs.append((target, a.value))
    names = set(seeds)
    while True:
        bound = {t.id for target, value in pairs if _reads_x(value, seeds) or _view_of(value) in names
                 for t in ast.walk(target) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
        if bound <= names:
            return names
        names |= bound


def test_one_form_expression():
    # form_columns is the only float valuation of q.X in forms.py, search.py
    # and measure.py: no dot, matmul or einsum, and no product (* or @) that
    # reads X or a name bound to it.  X is ``.entries`` in forms.py and
    # search.py, which use no @ at all, and the samples ``xs`` in measure.py,
    # whose integer products c U of coefficient boxes stay.  manifold.py is
    # left out: it values q.X only through form_value, and its @ and einsum
    # build X.
    package = Path(smallforms.__file__).parent
    for name, seeds in (("forms.py", ()), ("search.py", ()), ("measure.py", ("xs",))):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        calls = {n.func.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
        assert not calls & {"dot", "matmul", "einsum", "inner", "tensordot", "vdot"}, name
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "form_columns":
                continue
            names = _x_names(fn, seeds)
            for op in ast.walk(fn):
                if isinstance(op, ast.BinOp) and isinstance(op.op, (ast.Mult, ast.MatMult)):
                    assert name == "measure.py" or isinstance(op.op, ast.Mult), f"{name}:{op.lineno} uses @"
                    assert not _reads_x(op, names), f"{name}:{op.lineno}"
