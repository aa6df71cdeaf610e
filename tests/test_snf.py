import random
from fractions import Fraction

from bqkit.snf import RowLattice, smith_normal_form


def det(mat):
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_known_cases():
    diag, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diag == [2, 2, 156]
    diag, _ = smith_normal_form([[1, -1]])
    assert diag == [1]
    diag, _ = smith_normal_form([[-1, -1], [-1, 1]])
    assert diag == [1, 2]
    diag, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diag == []


def test_random_matrices_properties():
    rng = random.Random(20260808)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag, v = smith_normal_form(mat)
        assert abs(det(v)) == 1
        for d1, d2 in zip(diag, diag[1:]):
            assert d1 > 0 and d2 % d1 == 0
        # row lattice of M * V equals the diagonal lattice
        mv = mat_mul(mat, v)
        lattice = RowLattice(mv, n)
        for k, d in enumerate(diag):
            e = [0] * n
            e[k] = d
            assert lattice.contains(e)
            if d > 1:
                e[k] = 1
                assert not lattice.contains(e)


def test_row_lattice_membership_and_image():
    lat = RowLattice([[-1, -1], [-1, 1]], 2)
    assert lat.invariants() == (0, (2,))
    assert lat.contains([-1, -1])
    assert lat.contains([0, 2])
    assert not lat.contains([-1, 0])
    assert any(lat.image([-1, 0]))
    assert not any(lat.image([2, 0]))


def test_row_lattice_membership_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
        lat = RowLattice(rows, 3)
        span = set()
        for x in range(-4, 5):
            for y in range(-4, 5):
                v = tuple(x * rows[0][i] + y * rows[1][i] for i in range(3))
                span.add(v)
        for vec in span:
            if all(abs(c) <= 6 for c in vec):
                assert lat.contains(list(vec))
        for _ in range(20):
            probe = [rng.randint(-2, 2) for _ in range(3)]
            if lat.contains(probe):
                # verified the other way: solve brute force over a window
                found = any(
                    all(x * rows[0][i] + y * rows[1][i] == probe[i] for i in range(3))
                    for x in range(-30, 31) for y in range(-30, 31))
                assert found


def test_empty_lattice():
    lat = RowLattice([], 3)
    assert lat.invariants() == (3, ())
    assert lat.contains([0, 0, 0])
    assert not lat.contains([1, 0, 0])


def test_repeated_and_zero_rows_span_the_same_lattice():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        distinct = []
        for _ in range(rng.randint(1, 5)):
            row = [rng.randint(-4, 4) for _ in range(n)]
            if any(row) and row not in distinct:
                distinct.append(row)
        rows = []
        for row in distinct:
            rows.append(row)
            for _ in range(rng.randint(0, 3)):
                rows.append(list(rng.choice(rows)) if rng.random() < 0.7
                            else [0] * n)
        full = RowLattice(rows, n)
        lean = RowLattice(distinct, n)
        assert full.invariants() == lean.invariants()
        assert full.diag == smith_normal_form(rows)[0]
        for _ in range(20):
            x = [rng.randint(-6, 6) for _ in range(n)]
            assert full.contains(x) == lean.contains(x)
            assert any(full.image(x)) == any(lean.image(x))


def dense_transform(lattice, x):
    """x * V as the dense product over every (i, j): the reference for
    the sparse row sum of ``RowLattice.image``."""
    return [sum(x[i] * lattice.v[i][j] for i in range(lattice.n))
            for j in range(lattice.n)]


def dense_contains(lattice, x):
    """Membership as the divisibility of each coordinate of x * V by its
    invariant factor, a free coordinate by nothing but 0."""
    w = dense_transform(lattice, x)
    for j in range(lattice.n):
        if j < len(lattice.diag):
            if w[j] % lattice.diag[j] != 0:
                return False
        elif w[j] != 0:
            return False
    return True


def test_image_is_the_dense_product_modulo_the_diagonal():
    rng = random.Random(26)
    for _ in range(150):
        n = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(0, 8)):
            pick = rng.random()
            if pick < 0.15:
                rows.append([0] * n)
            elif pick < 0.3 and rows:
                rows.append(list(rng.choice(rows)))
            else:
                rows.append([rng.choice([0, 0, 0, rng.randint(-4, 4)])
                             for _ in range(n)])
        lattice = RowLattice(rows, n)
        for _ in range(15):
            x = [rng.choice([0, 0, rng.randint(-7, 7)]) for _ in range(n)]
            w = dense_transform(lattice, x)
            want = (tuple(c % d for c, d in zip(w, lattice.diag) if d > 1)
                    + tuple(w[len(lattice.diag):]))
            assert lattice.image(x) == want
            assert lattice.contains(x) == dense_contains(lattice, x)
        inverse = _inverse(lattice.v)
        for k, d in enumerate(lattice.diag):
            # x = e_k * V^-1 has x * V = e_k: it lies in the lattice
            # exactly when d_k = 1, and d_k * x always does
            assert lattice.contains(inverse[k]) == (d == 1)
            assert lattice.contains([d * c for c in inverse[k]])


def _inverse(v):
    """V^-1 of the unimodular V, by Gauss-Jordan elimination over Q."""
    n = len(v)
    m = [[Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(v)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [c / m[col][col] for c in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [[int(c) for c in row[n:]] for row in m]
