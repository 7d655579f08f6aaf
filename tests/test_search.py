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
from smallforms.cli import main
from smallforms.forms import form_columns, form_value
from smallforms.search import _ball, _canonical_box, band_vectors


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
    # the enumeration lives in search.py; every other module asks it
    for path in sorted(Path(smallforms.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in ("meshgrid", "_canonical_rows", "_BOX_CELL_CAP"):
            assert path.name == "search.py" or name not in text, f"{path.name} uses {name}"
        if path.name == "search.py":
            assert text.count("meshgrid") == 1


@pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_form_columns_of_rows_and_slices(m, n):
    # a q's value does not depend on the array it sits in, -q negates it and
    # the tail part plus q_1 x_1 is the same expression
    rng = np.random.default_rng(90 + 10 * m + n)
    X = MatrixPoint(rng.random((m, n)) - 0.5)
    vecs = rng.integers(-1000, 1001, (1500, m))
    for part in (vecs, vecs[1::3], vecs[::-2], vecs[7:8]):
        cols = form_columns(part, X.entries)
        assert np.abs(cols).max(axis=1).tolist() == [form_value(q, X) for q in part]
        assert np.array_equal(form_columns(-part, X.entries), -cols)
        tail_part = form_columns(part[:, 1:], X.entries[1:])
        assert np.array_equal(form_columns(part[:, :1], X.entries[:1], tail_part), cols)


def test_one_form_expression():
    # form_columns is the only code in forms.py and search.py that multiplies
    # by the entries of X: no matmul, and no product with an entries-derived name
    package = Path(smallforms.__file__).parent
    for name in ("forms.py", "search.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        calls = {n.func.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
        assert not calls & {"dot", "matmul", "einsum", "inner", "tensordot", "vdot"}, name
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "form_columns":
                continue
            derived = {t.id for a in ast.walk(fn)
                       if isinstance(a, ast.Assign) and "entries" in ast.unparse(a.value)
                       for target in a.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
            for op in ast.walk(fn):
                if isinstance(op, ast.BinOp) and isinstance(op.op, (ast.Mult, ast.MatMult)):
                    used = {v.id for v in ast.walk(op) if isinstance(v, ast.Name)}
                    assert isinstance(op.op, ast.Mult), f"{name}:{op.lineno} uses @"
                    assert "entries" not in ast.unparse(op) and not used & derived, f"{name}:{op.lineno}"
