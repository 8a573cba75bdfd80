import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    alternating_rank_sum,
    gamma_split,
    int_matmul,
    kapranov_coordinates_by_bott,
    k_matrix_by_localization,
    schur_value_bruteforce,
    solve_fraction_gauss_jordan,
    tensor_det,
)

from test_kmatrix_digests import DIGESTS, digest

from grwin import autoequiv, bott, partitions, resolutions
from grwin.autoequiv import (
    InternalConsistencyError,
    cotwist_on_generator,
    determinant,
    k_matrix,
    kapranov_coordinates,
    o1_matrix,
    twist_on_generator,
)
from grwin.bundles import BundleLabel, GradedComplex
from grwin.partitions import resolution_terms, width
from grwin.resolutions import unstable_resolution_twisted
from grwin.windows import gamma_set, window_generators


def label(schur, rank, twist, v=()):
    return BundleLabel(tuple(schur), rank, twist, "S", tuple(v))


def single(lb):
    return GradedComplex.from_items([(0, lb, 1)])


def oracle_det(matrix):
    return solve_fraction_gauss_jordan(matrix, [])[0]


# --- twist -----------------------------------------------------------------

def test_twist_three_fold():
    assert twist_on_generator((1,), 2, 1) == GradedComplex.from_items([
        (0, label((), 1, 1, v=(1,)), 1),
        (1, label((), 1, 0), 1),
    ])
    assert twist_on_generator((), 2, 1) == single(label((), 1, 1))


def test_twist_4_2_square():
    assert twist_on_generator((2,), 4, 2) == GradedComplex.from_items([
        (0, label((1,), 2, 1, v=(1, 1, 1)), 1),
        (1, label((), 2, 1, v=(1, 1)), 1),
        (2, label((), 2, 0), 1),
    ])


def test_twist_rejects_outside_index_set():
    # both images check the (d-r) x r box themselves, before their routes do
    for image in (twist_on_generator, cotwist_on_generator):
        for delta in [(3,), (1, 1, 1)]:
            with pytest.raises(ValueError, match=r"is not in the \(d-r\) x r index box$"):
                image(delta, 4, 2)


# --- cotwist ---------------------------------------------------------------

def test_cotwist_three_fold():
    assert cotwist_on_generator((1,), 2, 1) == GradedComplex.from_items([
        (0, label((), 1, 0, v=(1,)), 1),
        (1, label((), 1, -1), 1),
    ])
    assert cotwist_on_generator((), 2, 1) == single(label((), 1, 0))


def test_cotwist_4_2_outputs():
    assert cotwist_on_generator((2,), 4, 2) == GradedComplex.from_items([
        (0, label((1,), 2, 0, v=(1, 1, 1)), 1),
        (1, label((), 2, 0, v=(1, 1)), 1),
        (2, label((), 2, -1), 1),
    ])
    assert cotwist_on_generator((2, 1), 4, 2) == GradedComplex.from_items([
        (0, label((), 2, 1, v=(1, 1, 1)), 1),
        (1, label((), 2, 0, v=(1,)), 1),
        (2, label((1,), 2, -1), 1),
    ])


def test_cotwist_corrected_third_complex():
    assert cotwist_on_generator((2, 2), 4, 2) == GradedComplex.from_items([
        (0, label((), 2, 1, v=(1, 1)), 1),
        (1, label((1,), 2, 0, v=(1,)), 1),
        (2, label((2,), 2, -1), 1),
    ])


# --- tensor twist and the conjugation identity ------------------------------

def test_tensor_twist_basics():
    c = single(label((), 2, 0))
    assert tensor_det(c, 1) == single(label((), 2, 1))
    assert tensor_det(c, 0) == c


def test_tensor_twist_conjugates_cotwist_into_twist():
    for d, n in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        for delta in gamma_set(d, n):
            assert tensor_det(cotwist_on_generator(delta, d, n), 1) == \
                twist_on_generator(delta, d, n)


def test_twist_images_equal_the_twisted_resolution_tensored_by_o1():
    # the up-shift image is labelled at its own twist; the twisted resolution
    # relabelled by tensor_det(1) is the oracle
    for d in range(2, 10):
        for r in range(1, d):
            for delta in gamma_split(d, r)[1]:
                assert twist_on_generator(delta, d, r) == \
                    tensor_det(unstable_resolution_twisted(delta, d, r), 1), (delta, d, r)


def test_route_equivalence_with_resolution_calculus():
    for d, n in [(2, 1), (4, 2), (5, 2), (6, 4)]:
        for delta in gamma_split(d, n)[1]:
            assert cotwist_on_generator(delta, d, n) == \
                unstable_resolution_twisted(delta, d, n)


def test_outputs_stay_in_target_windows():
    # each image label, less its V factor, is one of the target window's
    # generators: side S, rank n, no bracket twist and the exact twist
    for d, n in [(3, 1), (4, 2), (5, 3)]:
        window, lower = set(window_generators(d, n, 0)), set(window_generators(d, n, -1))
        for delta in gamma_set(d, n):
            for _, lb, _m in twist_on_generator(delta, d, n).items():
                assert lb._replace(v_shape=()) in window
            for _, lb, _m in cotwist_on_generator(delta, d, n).items():
                assert lb._replace(v_shape=()) in lower


@st.composite
def wide_generators(draw):
    """(delta, d, n) with 7 <= d <= 9 and delta a generator of the index box,
    narrow or full width (where the route check applies) with even odds."""
    d = draw(st.integers(7, 9))
    n = draw(st.integers(1, d - 1))
    return draw(st.sampled_from(gamma_split(d, n)[draw(st.integers(0, 1))])), d, n


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=wide_generators())
def test_twist_cotwist_route_and_windows_for_seven_to_nine(case):
    # twist = cotwist (x) O(1), the down-shift route is the twisted
    # resolution, and each image lies in its target window (k = 0 and -1)
    delta, d, n = case
    twist, cotwist = twist_on_generator(delta, d, n), cotwist_on_generator(delta, d, n)
    assert tensor_det(cotwist, 1) == twist
    if width(delta) == d - n:
        assert cotwist == unstable_resolution_twisted(delta, d, n)
    window, lower = set(window_generators(d, n, 0)), set(window_generators(d, n, -1))
    assert all(lb._replace(v_shape=()) in window for _, lb, _m in twist.items())
    assert all(lb._replace(v_shape=()) in lower for _, lb, _m in cotwist.items())


@st.composite
def full_width_generators(draw):
    """(delta, d, n) with 10 <= d <= 12 and delta a full-width generator:
    first row d - n, then n - 1 rows of at most d - n boxes."""
    d = draw(st.integers(10, 12))
    n = draw(st.integers(1, d - 1))
    rows = draw(st.lists(st.integers(0, d - n), min_size=n - 1, max_size=n - 1))
    return partitions.canonical((d - n, *sorted(rows, reverse=True))), d, n


@settings(derandomize=True, max_examples=50, deadline=None)
@given(case=full_width_generators())
def test_image_labels_have_unit_kapranov_coordinates_for_ten_to_twelve(case):
    # the read-off's premise: each image label's Kapranov coordinates are the
    # unit vector at its position in the target window (k = 0 and -1)
    delta, d, n = case
    for image, k in [(twist_on_generator, 0), (cotwist_on_generator, -1)]:
        position = {lb: i for i, lb in enumerate(window_generators(d, n, k))}
        plain = list(dict.fromkeys(lb._replace(v_shape=())
                                   for _, lb, _m in image(delta, d, n).items()))
        coordinates = kapranov_coordinates(plain, d, n, k)
        for j, lb in enumerate(plain):
            assert [row[j] for row in coordinates] == \
                [int(i == position[lb]) for i in range(len(position))], (delta, d, n, k, lb)


def test_twist_and_cotwist_images_keep_the_generator_rank():
    # an autoequivalence preserves K-classes, so the alternating rank sum of
    # each image is the rank of S^delta of the rank-r bundle
    from grwin.schur import schur_dimension
    checked = 0
    for d in range(2, 10):
        for r in range(1, d):
            for delta in gamma_set(d, r):
                rank = schur_dimension(delta, r)
                assert alternating_rank_sum(twist_on_generator(delta, d, r), d) == rank, \
                    ("twist", d, r, delta)
                assert alternating_rank_sum(cotwist_on_generator(delta, d, r), d) == rank, \
                    ("cotwist", d, r, delta)
                checked += 1
    assert checked == 1004


def test_narrow_generators_are_fixed():
    for d, n in [(4, 2), (5, 2), (6, 3)]:
        for delta in gamma_split(d, n)[0]:
            assert len(twist_on_generator(delta, d, n).terms) == 1
            assert len(cotwist_on_generator(delta, d, n).terms) == 1


# --- localization -----------------------------------------------------------

nonzero_fractions = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))


PRIMES = tuple(map(Fraction, (2, 3, 5, 7, 11, 13, 17)))


def random_fractions(d, seed):
    """d distinct nonzero Fractions with numerators and denominators up to 1000."""
    rng = random.Random(seed)
    while True:
        ys = {Fraction(rng.choice((-1, 1)) * rng.randint(1, 1000), rng.randint(1, 1000))
              for _ in range(d)}
        if len(ys) == d:
            return tuple(ys)


def test_basis_determinant_is_a_power_of_the_vandermonde():
    # the identity behind the nonsingular basis block of the localization
    # oracle, k_matrix_by_localization.  Both sides have degree <= 210 in y
    # here, so at a random point with coordinates from about 10^6 Fractions a
    # false identity holds with probability <= 210/10^6 (Schwartz-Zippel);
    # the primes are the oracle's points in the tests below
    for d in range(2, 8):
        for r in range(1, d):
            for ys in (PRIMES[:d], random_fractions(d, 1), random_fractions(d, 2)):
                matrix = [[schur_value_bruteforce(delta, sigma) for delta in gamma_set(d, r)]
                          for sigma in combinations(ys, r)]
                vandermonde = prod(abs(a - b) for a, b in combinations(ys, 2))
                det = solve_fraction_gauss_jordan(matrix, [])[0]
                assert abs(det) == vandermonde ** comb(d - 2, r - 1)


# --- functor matrices --------------------------------------------------------

def test_k_matrix_twist_three_fold():
    assert k_matrix("twist", 2, 1) == [[0, -1], [1, 2]]
    assert oracle_det(k_matrix("twist", 2, 1)) == 1


def test_k_matrix_cotwist_three_fold():
    assert abs(oracle_det(k_matrix("cotwist", 2, 1))) == 1


def test_k_matrix_identity():
    n = len(gamma_set(4, 2))
    assert k_matrix("identity", 4, 2) == \
        [[int(i == j) for j in range(n)] for i in range(n)]


def test_k_matrix_twist_equals_cotwist_matrix():
    # the basis of each window is the O(1)-twist of the previous one, so the
    # two shifts share one matrix
    for d, r in [(2, 1), (3, 2), (4, 2)]:
        assert k_matrix("twist", d, r) == k_matrix("cotwist", d, r)


def test_o1_matrix_conjugation():
    for d, r in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        T = o1_matrix(d, r)
        mc = k_matrix("cotwist", d, r)
        assert int_matmul(T, mc) == int_matmul(k_matrix("twist", d, r), T)
        assert abs(oracle_det(T)) == 1


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=st.sampled_from([(3, 1), (4, 2), (5, 2)]),
       which=st.sampled_from(["twist", "cotwist"]), data=st.data())
def test_k_matrix_entries_integral_with_random_parameters(case, which, data):
    # the localization oracle gives k_matrix, in integers, at any parameters
    d, r = case
    params = data.draw(st.lists(nonzero_fractions, min_size=d, max_size=d, unique=True))
    matrix = k_matrix_by_localization(which, d, r, params)
    assert all(x.denominator == 1 for row in matrix for x in row)
    assert matrix == k_matrix(which, d, r)


def test_kapranov_coordinates_of_a_window_basis_are_the_identity():
    for d in range(2, 7):
        for r in range(1, d):
            n = len(gamma_set(d, r))
            for k in (0, -1):
                assert kapranov_coordinates(window_generators(d, r, k), d, r, k) == \
                    [[int(i == j) for j in range(n)] for i in range(n)], (d, r, k)


@pytest.mark.parametrize("d,r", [(5, 2), (6, 3), (7, 2)])
def test_k_matrix_matches_localization_at_three_boxes(d, r):
    # k_matrix is a read-off of the images; the oracle localizes and solves
    for which in ("twist", "cotwist"):
        assert k_matrix(which, d, r) == k_matrix_by_localization(which, d, r, PRIMES[:d]), which


@pytest.mark.parametrize("lb", [BundleLabel((), 2, 0, side="H"),
                                BundleLabel((), 2, 0, bracket_twist=1),
                                BundleLabel((), 2, 0, v_shape=(1,)), BundleLabel((), 1, 0)],
                         ids=["H-side", "bracket", "V-factor", "rank"])
def test_kapranov_coordinates_reject_labels_that_are_not_plain(lb):
    with pytest.raises(ValueError, match=r"^coordinates need plain ambient-side labels"):
        kapranov_coordinates([lb], 4, 2, 0)


@st.composite
def plain_label_cases(draw):
    """(labels, d, r, k): 2 <= d <= 9, r <= 4, k in {-1, 0, 1}, and one to four
    plain labels S^gamma S^dual(t) with gamma in the (d+1) x (r-1) box and
    |t| <= d, so the tails land both on and off the heads' values: the
    coordinates mix regular and singular weights."""
    d = draw(st.integers(2, 9))
    r = draw(st.integers(1, min(4, d - 1)))
    k = draw(st.sampled_from([-1, 0, 1]))
    schurs = st.lists(st.integers(0, d + 1), min_size=r - 1, max_size=r - 1).map(
        lambda rows: partitions.canonical(sorted(rows, reverse=True)))
    labels = draw(st.lists(st.builds(BundleLabel, schurs, st.just(r), st.integers(-d, d)),
                           min_size=1, max_size=4))
    return labels, d, r, k


def pairing_agrees_with_bott(pairing):
    """Run `pairing` against the per-entry Bott route on derandomized plain
    labels; return how many regular (nonzero) and singular (zero) entries the
    route gave."""
    seen = {"regular": 0, "singular": 0}

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(case=plain_label_cases())
    def check(case):
        labels, d, r, k = case
        expected = kapranov_coordinates_by_bott(labels, d, r, k)
        assert pairing(labels, d, r, k) == expected, case
        for row in expected:
            seen["regular"] += sum(map(bool, row))
            seen["singular"] += row.count(0)

    check()
    return seen


def test_kapranov_coordinates_skip_only_singular_weights():
    # the set test must zero exactly the singular weights, which Bott zeroes too
    seen = pairing_agrees_with_bott(kapranov_coordinates)
    assert seen["regular"] and seen["singular"], seen


def test_a_pairing_that_zeroes_one_regular_entry_is_caught():
    def zero_first_regular_entry(labels, d, r, k):
        matrix = kapranov_coordinates(labels, d, r, k)
        for row in matrix:
            for j, x in enumerate(row):
                if x:
                    row[j] = 0
                    return matrix
        return matrix
    with pytest.raises(AssertionError):
        pairing_agrees_with_bott(zero_first_regular_entry)


@pytest.mark.parametrize("d,r", [(d, r) for d in range(2, 11) for r in range(1, d)]
                         + [(11, 5), (12, 6)])
def test_o1_matrix_is_the_twist_matrix(d, r):
    # on plain K-theory the window shift acts as O(1): the pairing and the
    # read-off share no code and must agree entry for entry
    assert o1_matrix(d, r) == k_matrix("twist", d, r)


def test_o1_matrix_shares_no_code_with_the_staircase_or_the_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("the O(1) matrix reached the staircase or the determinant")
    for module, name in [(partitions, "staircase"), (partitions, "resolution_terms"),
                         (resolutions, "resolution_terms"), (autoequiv, "resolution_terms"),
                         (resolutions, "unstable_resolution_twisted"),
                         (autoequiv, "_cancelled_resolution"), (autoequiv, "_complex"),
                         (autoequiv, "determinant")]:
        monkeypatch.setattr(module, name, refuse)
    for d, r in [(d, r) for d in range(2, 7) for r in range(1, d)]:
        assert digest(o1_matrix(d, r)) == DIGESTS[f"o1:{d},{r}"], (d, r)


def test_k_matrix_is_a_read_off_with_no_pairing(monkeypatch):
    # criterion 9 compares the read-off with the Kapranov pairing, so the
    # read-off must reach neither the coordinates nor a Bott Euler characteristic
    def refuse(*args, **kwargs):
        raise RuntimeError("k_matrix reached the Kapranov pairing")
    for module, name in [(autoequiv, "kapranov_coordinates"),
                         (autoequiv, "euler_characteristic"), (bott, "euler_characteristic")]:
        monkeypatch.setattr(module, name, refuse)
    for d, r in [(d, r) for d in range(2, 7) for r in range(1, d)]:
        for which in ("twist", "cotwist", "identity"):
            assert digest(k_matrix(which, d, r)) == DIGESTS[f"{which}:{d},{r}"], (which, d, r)


def test_an_image_label_outside_the_window_is_an_internal_consistency_error(monkeypatch):
    # the read-off indexes labels by the target window; images twisted by one
    # more O(1) keep O(2) in window 0, so the first label with no row is S^dual(2)
    real = autoequiv.twist_on_generator
    monkeypatch.setattr(autoequiv, "twist_on_generator",
                        lambda delta, d, r: tensor_det(real(delta, d, r), 1))
    (_, lb, _), = tensor_det(real((1,), 4, 2), 1).items()
    with pytest.raises(InternalConsistencyError) as exc:
        k_matrix("twist", 4, 2)
    assert str(exc.value) == \
        f"(d,r)=(4,2), delta=(1,): twist image term {lb} is not a generator of window 0"


def test_an_off_window_label_with_a_v_factor_is_named_without_it(monkeypatch):
    # one more O(1) on the full-width images only: the first off-window term,
    # S^dual(2) (x) wedge^3 V in the image of (2,), carries a V factor, and the
    # message names its label less the V factor, as a label of the window would read
    real = autoequiv.twist_on_generator
    monkeypatch.setattr(autoequiv, "twist_on_generator", lambda delta, d, r: (
        tensor_det(real(delta, d, r), 1) if width(delta) == d - r else real(delta, d, r)))
    (_, lb, _), *_ = tensor_det(real((2,), 4, 2), 1).items()
    assert lb.v_shape == (1, 1, 1)
    with pytest.raises(InternalConsistencyError) as exc:
        k_matrix("twist", 4, 2)
    assert str(exc.value) == ("(d,r)=(4,2), delta=(2,): twist image term "
                              f"{label((1,), 2, 2)} is not a generator of window 0")


@pytest.mark.parametrize("field, value", [("side", "H"), ("bracket_twist", 1)])
def test_an_image_label_off_the_ambient_side_is_an_internal_consistency_error(
        monkeypatch, field, value):
    # the read-off indexes the window by (schur, taut_rank, det_twist); a label
    # that matches those but sits on the H side or carries a bracket twist is refused
    real = autoequiv.cotwist_on_generator
    monkeypatch.setattr(autoequiv, "cotwist_on_generator", lambda delta, d, n: GradedComplex(
        tuple((deg, tuple((lb._replace(**{field: value}), m) for lb, m in labels))
              for deg, labels in real(delta, d, n).terms)))
    with pytest.raises(InternalConsistencyError) as exc:
        k_matrix("cotwist", 4, 2)
    wrong = BundleLabel((), 2, 0, "S")._replace(**{field: value})
    assert str(exc.value) == \
        f"(d,r)=(4,2), delta=(): cotwist image term {wrong} is not a generator of window -1"


def staircase_with_s1_off_by_one(delta, d, r):
    terms = resolution_terms(delta, d, r)
    k, dk, sk = terms[1]
    return [terms[0], (k, dk, sk + 1), *terms[2:]]


def test_a_mutated_staircase_breaks_the_twist_and_the_conjugation(monkeypatch):
    # the twist and cotwist images read the staircase through these two names
    monkeypatch.setattr(resolutions, "resolution_terms", staircase_with_s1_off_by_one)
    monkeypatch.setattr(autoequiv, "resolution_terms", staircase_with_s1_off_by_one)
    # not at (3,1): its one full-width generator has s_1 = 1, and wedge^2 V has
    # the dimension of V, so the mutation leaves every K-class as it was
    for d, r in [(2, 1), (3, 2), (4, 2), (4, 3)]:
        T, mt, mc = o1_matrix(d, r), k_matrix("twist", d, r), k_matrix("cotwist", d, r)
        assert T != mt, (d, r)
        assert int_matmul(T, mc) != int_matmul(mt, T), (d, r)


@st.composite
def staircase_shaped_matrices(draw):
    """[[D, A], [0, B]] with D diagonal (entries nonzero, from -6..6), A from
    -6..6 and B a signed permutation, then rows and columns permuted."""
    n = draw(st.integers(0, 7))
    units = draw(st.integers(0, n))
    entries = st.integers(-6, 6)
    nonzero = entries.filter(bool)
    matrix = [[0] * n for _ in range(n)]
    for j in range(units):
        matrix[j][j] = draw(nonzero)
    for j, i in zip(range(units, n), draw(st.permutations(range(units, n)))):
        matrix[i][j] = draw(st.sampled_from([-1, 1]))
        for k in range(units):
            matrix[k][j] = draw(entries)
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    return [[matrix[i][j] for j in cols] for i in rows]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrix=staircase_shaped_matrices())
def test_determinant_of_a_staircase_shape_matches_gauss_jordan(matrix):
    assert determinant(matrix) == oracle_det(matrix)


def test_determinant_reads_every_small_shift_matrix():
    for d in range(2, 9):
        for r in range(1, d):
            for m in [k_matrix(which, d, r) for which in ("twist", "cotwist", "identity")] \
                    + [o1_matrix(d, r)]:
                assert determinant(m) == oracle_det(m), (d, r)


def test_shift_matrices_have_determinant_one():
    boxes = [(d, r) for d in range(2, 11) for r in range(1, d)] + [(11, 5), (12, 6)]
    for d, r in boxes:
        for which in ("twist", "cotwist", "identity"):
            assert determinant(k_matrix(which, d, r)) == 1, (which, d, r)


def test_determinant_of_a_singular_matrix_raises():
    for matrix in [[[1, 1], [1, 1]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[1, 0], [0, 0]],
                   [[1, 1], [0, 0]]]:
        assert oracle_det(matrix) == 0
        with pytest.raises(InternalConsistencyError, match=r"^column \d+ has no pivot row"):
            determinant(matrix)


def test_a_narrow_column_with_a_second_entry_is_refused():
    # at (5,2) the narrow generators (1,) and (1,1) are columns 1 and 3; a
    # second entry in row 0 (generator (), of height 0 < r) leaves each two
    # rows off the unit columns, and the columns sharing its unit row come later
    for which in ("twist", "cotwist"):
        for j in (1, 3):
            m = k_matrix(which, 5, 2)
            assert [bool(row[j]) for row in m].count(True) == 1 and m[0][j] == 0
            m[0][j] = 1
            with pytest.raises(InternalConsistencyError) as exc:
                determinant(m)
            assert exc.value.column == j
            assert str(exc.value).startswith(f"column {j} has no pivot row of its own")


def test_internal_consistency_error_is_loud():
    assert issubclass(InternalConsistencyError, AssertionError)
