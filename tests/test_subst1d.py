"""One-dimensional substitution systems, factor maps, quotients."""
import pytest
from hypothesis import assume, given, settings, strategies as st

import subst1d_reference as ref

from tilecohom.catalog import (SpaceId, compute_quotient, compute_space,
                               expected_1d_quotient, expected_1d_space)
from tilecohom.complexes import cohomology_tower
from tilecohom.errors import InvalidPath, NotPrimitive
from tilecohom.limits import classify, iso_check
from tilecohom.subst1d import (MAX_IMAGE, PHI_SOURCE_DEPTH, Substitution1D,
                               absolute_cohomology_1d, ap_complex_1d,
                               factor_map_1d, factor_map_phi,
                               legal_words, pd_substitution, pd_system,
                               quotient_cohomology_1d, sol_system,
                               solenoid_substitution, tm_substitution,
                               tm_system, verify_times2_ses)

GRID = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))
# parameters past int()'s 4300-digit limit, the second one worth 1
LONG_SOL = pytest.param("sol:" + "9" * 4301, id="sol:9x4301")
LONG_TM = pytest.param("tm:1," + "0" * 4300 + "1", id="tm:1,0x4300+1")


class TestSubstitutions:
    def test_tm_rule(self):
        s = tm_substitution(2, 1)
        assert s.rule["1"] == ("1", "1", "1b")
        assert s.rule["1b"] == ("1b", "1b", "1")

    def test_pd_rule(self):
        s = pd_substitution(1, 1)
        assert s.rule == {"a": ("a", "b"), "b": ("a", "a")}

    def test_matrix_and_primitivity(self):
        s = tm_substitution(1, 1)
        assert s.matrix().to_rows() == [[1, 1], [1, 1]]
        assert s.is_primitive()

    def test_primitive_up_to_wielandt_bound(self):
        # a -> b -> c -> d -> e -> a, e -> b: first positive power is 17
        s = Substitution1D("abcde", {"a": "b", "b": "c", "c": "d", "d": "e",
                                     "e": "ab"})
        assert s.is_primitive()
        assert not Substitution1D("abc", {"a": "b", "b": "c",
                                          "c": "a"}).is_primitive()

    def test_not_primitive(self):
        s = Substitution1D(("a", "b"), {"a": ("a",), "b": ("b",)})
        with pytest.raises(NotPrimitive):
            s.require_primitive()

    def test_legal_words(self):
        s = tm_substitution(1, 1)
        w2 = legal_words(s, 2)
        assert ("1", "1b") in w2 and ("1b", "1") in w2
        assert all(len(w) == 2 for w in w2)

    def test_solenoid_params(self):
        with pytest.raises(ValueError):
            solenoid_substitution(1)

    @pytest.mark.parametrize("alphabet, rule", [
        ("ab", {"a": "ac", "b": "a"}),   # an image letter outside the alphabet
        ("ab", {"a": "ab"}),             # no image for b
        ("aab", {"a": "ab", "b": "a"}),  # a repeated alphabet letter
        ("ab", {"a": "ab", "b": "a", "c": "abc"}),  # a letter outside it
    ])
    def test_malformed_rule(self, alphabet, rule):
        # these used to raise a bare KeyError, or to pass and report a
        # misleading NotPrimitive later
        with pytest.raises(ValueError):
            Substitution1D(alphabet, rule)

    def test_empty_alphabet(self):
        # used to pass, and legal_words then failed with a bare min() error
        with pytest.raises(ValueError, match="nonempty alphabet"):
            Substitution1D((), {})

    def test_negative_collar_depth(self):
        # used to say `n >= 1 required`, of a word length nobody asked for
        with pytest.raises(ValueError, match="collar depth must be >= 0"):
            ap_complex_1d(tm_substitution(2, 1), -1)


@pytest.mark.parametrize("k", range(1, 41))
def test_legal_words_match_reference(k):
    for l in range(1, 41):
        for s in (tm_substitution(k, l), pd_substitution(k, l)):
            for n in range(1, 6):
                assert legal_words(s, n) == ref.legal_words(s, n), (k, l, n)


@pytest.mark.parametrize("m", range(2, 21))
def test_solenoid_legal_words_match_reference(m):
    s = solenoid_substitution(m)
    for n in range(1, 6):
        assert legal_words(s, n) == ref.legal_words(s, n)


@st.composite
def expanding_substitutions(draw, max_len=3):
    """Primitive substitutions on 2..3 letters with images of length
    1..max_len, so that some need a power with longer images."""
    alphabet = tuple("abc"[:draw(st.integers(2, 3))])
    s = Substitution1D(alphabet, {a: tuple(draw(st.lists(
        st.sampled_from(alphabet), min_size=1, max_size=max_len)))
        for a in alphabet})
    assume(s.is_primitive())
    return s


@settings(max_examples=200, deadline=None)
@given(expanding_substitutions(), st.integers(1, 6))
def test_random_legal_words_match_reference(s, n):
    assert legal_words(s, n) == ref.legal_words(s, n)


def test_fibonacci_legal_words_match_reference():
    fib = Substitution1D("ab", {"a": "ab", "b": "a"})
    for n in range(1, 10):
        assert legal_words(fib, n) == ref.legal_words(fib, n)


def complex_signature(cx, sm):
    """The dump of a complex and every coboundary and self-map matrix."""
    return cx.dump(), [m.to_rows() for m in (*cx.delta, *sm.chain)]


@pytest.mark.parametrize("k", range(1, 41, 3))
def test_complex_matches_reference(k):
    # every image of length k + l is cut into interior windows from the
    # per-letter table and boundary windows at the collar
    for l in range(1, 41, 4):
        for s in (tm_substitution(k, l), pd_substitution(k, l)):
            for r in range(4):
                assert (complex_signature(*ap_complex_1d(s, r))
                        == complex_signature(*ref.ap_complex_1d(s, r))), \
                    (k, l, r)


@pytest.mark.parametrize("s", [solenoid_substitution(m) for m in range(2, 21)]
                         + [Substitution1D("ab", {"a": "ab", "b": "a"})])
def test_solenoid_and_fibonacci_complexes_match_reference(s):
    for r in range(4):
        assert (complex_signature(*ap_complex_1d(s, r))
                == complex_signature(*ref.ap_complex_1d(s, r))), r


@settings(max_examples=200, deadline=None)
@given(expanding_substitutions(max_len=4), st.integers(0, 3))
def test_random_complexes_match_reference(s, r):
    # images of length 1..4 are often shorter than the 2r+1 window, so
    # every window of such an image is a boundary window
    assert (complex_signature(*ap_complex_1d(s, r))
            == complex_signature(*ref.ap_complex_1d(s, r)))


def test_one_letter_substitution_must_expand():
    with pytest.raises(ValueError):
        legal_words(Substitution1D("a", {"a": "a"}), 1)


class TestComplexes:
    def test_solenoid_complex_is_circle(self):
        cx, sm = ap_complex_1d(solenoid_substitution(2), 0)
        assert cx.n_cells(0) == 1 and cx.n_cells(1) == 1
        assert sm.chain[1].to_rows() == [[2]]

    def test_collar_depth_invariance(self):
        s = tm_substitution(2, 1)
        for k in (0, 1):
            e1 = classify(cohomology_tower(*ap_complex_1d(s, 1), k))
            e2 = classify(cohomology_tower(*ap_complex_1d(s, 2), k))
            assert iso_check(e1, e2)


    @pytest.mark.parametrize("kl", [(k, l) for k in range(1, 13)
                                    for l in range(1, 13)]
                             + [(1, 40), (40, 1), (40, 39), (33, 2), (20, 7),
                                (25, 14)])
    def test_tm_space_matches_depth_1(self, kl):
        """The space query reads the depth-2 complex; its classified groups
        are those of the depth-1 complex it replaced, an unclassified
        verdict included."""
        depth_1 = [classify(cohomology_tower(
            *ap_complex_1d(tm_substitution(*kl), 1), k)) for k in (0, 1)]
        assert list(map(str, absolute_cohomology_1d(f"tm:{kl[0]},{kl[1]}"))) \
            == list(map(str, depth_1))

    def test_one_tm_complex_per_space(self, cold_caches):
        """The space and both quotients of one tm:k,l build the depth-2
        complex alone, and read it from tm_system's cache."""
        tm, pd, sol = "tm:5,3", "pd:5,3", "sol:8"
        compute_space(tm)
        compute_quotient(tm, pd)
        compute_quotient(tm, sol)
        info = tm_system.cache_info()
        assert info.currsize == 1
        tm_system(5, 3)
        assert tm_system.cache_info().misses == info.misses

    @pytest.mark.parametrize("kl", GRID + ((5, 3), (2, 7)))
    def test_each_family_builds_at_its_depth(self, kl):
        """tm is built at the two-block code's depth 2, pd at 1 and sol at
        0: the cells, coboundaries and self-map chains of ap_complex_1d at
        those depths."""
        k, l = kl
        for (cx, sm), rule, depth in (
                (tm_system(k, l), tm_substitution(k, l), 2),
                (pd_system(k, l), pd_substitution(k, l), 1),
                (sol_system(k + l), solenoid_substitution(k + l), 0)):
            want_cx, want_sm = ap_complex_1d(rule, depth)
            assert cx.cells == want_cx.cells
            assert [cx.coboundary(i) for i in range(cx.dimension)] == \
                [want_cx.coboundary(i) for i in range(want_cx.dimension)]
            assert sm.chain == want_sm.chain

    @pytest.mark.parametrize("family", [tm_substitution, pd_substitution])
    @pytest.mark.parametrize("r", [1, 2])
    def test_vertices_are_the_legal_2r_words(self, family, r):
        # the complex reads its vertices off its edges' heads
        for k in range(1, 41, 6):
            for l in range(1, 41, 7):
                s = family(k, l)
                cx, _ = ap_complex_1d(s, r)
                assert cx.cells[0] == sorted(legal_words(s, 2 * r))


class TestAbsolute:
    @pytest.mark.parametrize("kl", GRID)
    def test_grid_tm(self, kl):
        k, l = kl
        h = absolute_cohomology_1d(f"tm:{k},{l}")
        assert str(h[0]) == "Z"
        assert iso_check(h[1], expected_1d_space(SpaceId.parse(f"tm:{k},{l}"))[1])

    @pytest.mark.parametrize("kl", GRID)
    def test_grid_pd(self, kl):
        k, l = kl
        h = absolute_cohomology_1d(f"pd:{k},{l}")
        assert iso_check(h[1], expected_1d_space(SpaceId.parse(f"pd:{k},{l}"))[1])

    @pytest.mark.parametrize("m", (2, 3, 4, 5))
    def test_grid_sol(self, m):
        h = absolute_cohomology_1d(f"sol:{m}")
        assert iso_check(h[1], expected_1d_space(SpaceId.parse(f"sol:{m}"))[1])

    def test_bad_name(self):
        with pytest.raises(InvalidPath):
            absolute_cohomology_1d("fib:1,1")

    @pytest.mark.parametrize("name", ("tm:a,b", "tm:0,1", "pd:2,0", "sol:1",
                                      "sol:x", "tm:2", "tm:2,1,3", "sol:",
                                      "chair:X,+", "tm:1_0,+1", "tm:+2,1",
                                      "tm:\u0663,1", "tm: 2,1", "tm:2,1 ",
                                      "pd:2,-1", LONG_SOL, LONG_TM))
    def test_malformed_name_is_invalid_path(self, name):
        # these used to raise a bare ValueError from int() or from the
        # substitution constructors; int() also read tm:1_0,+1 as tm:10,1,
        # and more than 4300 digits make it raise
        with pytest.raises(InvalidPath):
            absolute_cohomology_1d(name)

    @pytest.mark.parametrize("name", ("tm:2,1", "pd:1,3", "sol:2", "tm:a,b",
                                      "tm:0,1", "sol:1", "pd:2", "sol:3,1",
                                      "foo:1", "tm:1_0,+1", "tm:+2,1",
                                      "tm:\u0663,1", "tm: 2,1",
                                      "pd:99999999999999999999,1",
                                      LONG_SOL))
    def test_one_rule_with_space_id(self, name):
        """SpaceId.parse and the 1-D functions accept the same names."""
        def accepts(fn):
            try:
                fn(name)
            except InvalidPath:
                return False
            return True
        assert accepts(SpaceId.parse) == accepts(absolute_cohomology_1d)

    @pytest.mark.parametrize("name", ("pd:99999999999999999999,1",
                                      "sol:1000001", "tm:500000,500001",
                                      "pd:1,1000000", "sol:10000000"))
    def test_rule_image_bound(self, name):
        # pd:99999999999999999999,1 used to end in an OverflowError; the
        # others were accepted and built their rule images
        with pytest.raises(InvalidPath, match="MAX_IMAGE"):
            SpaceId.parse(name)
        with pytest.raises(InvalidPath, match="MAX_IMAGE"):
            absolute_cohomology_1d(name)

    def test_rule_image_bound_is_inclusive(self):
        assert MAX_IMAGE == 10 ** 6
        # parsing builds no word
        assert SpaceId.parse("sol:1000000").params == (MAX_IMAGE,)


class TestQuotients:
    @pytest.mark.parametrize("kl", GRID)
    def test_tm_over_pd(self, kl):
        k, l = kl
        q = quotient_cohomology_1d((f"tm:{k},{l}", f"pd:{k},{l}"))
        assert q[0].is_zero()
        assert iso_check(q[1], expected_1d_quotient(SpaceId.parse(f"tm:{k},{l}"),
                                     SpaceId.parse(f"pd:{k},{l}"))[1])

    def test_tm_over_sol(self):
        q = quotient_cohomology_1d(("tm:2,1", "sol:3"))
        assert iso_check(q[1], expected_1d_quotient(SpaceId.parse("tm:2,1"),
                                     SpaceId.parse("sol:3"))[1])

    def test_pd_over_sol(self):
        q = quotient_cohomology_1d(("pd:2,2", "sol:4"))
        assert str(q[1]) == "Z"

    def test_unrelated_pair(self):
        with pytest.raises(InvalidPath):
            factor_map_1d("pd:2,1", "sol:5")  # wrong solenoid base

    @pytest.mark.parametrize("pair", (("tm:1,0", "pd:1,0"), ("tm:1,1", "pd:x"),
                                      ("pd:1,1", "sol:1")))
    def test_malformed_pair_is_invalid_path(self, pair):
        with pytest.raises(InvalidPath):
            factor_map_1d(*pair)

    def test_phi_needs_deeper_collar(self):
        f = factor_map_phi(1, 1)
        assert f.source.n_cells(1) == len(
            legal_words(tm_substitution(1, 1), 2 * PHI_SOURCE_DEPTH + 1))


class TestTimesTwoSes:
    @pytest.mark.parametrize("kl", GRID)
    def test_exact(self, kl):
        a, b, c = verify_times2_ses(*kl)
        k, l = kl
        assert iso_check(a, expected_1d_quotient(SpaceId.parse(f"pd:{k},{l}"),
                             SpaceId.parse(f"sol:{k+l}"))[1])
        assert iso_check(c, expected_1d_quotient(SpaceId.parse(f"tm:{k},{l}"),
                                     SpaceId.parse(f"pd:{k},{l}"))[1])


@st.composite
def primitive_substitutions(draw):
    n = draw(st.integers(2, 3))
    alphabet = tuple("abc"[:n])
    rule = {}
    for a in alphabet:
        w = draw(st.lists(st.sampled_from(alphabet), min_size=2, max_size=3))
        rule[a] = tuple(w)
    s = Substitution1D(alphabet, rule)
    if not s.is_primitive():
        # appending the full alphabet makes the count matrix positive
        rule = {a: rule[a] + alphabet for a in alphabet}
        s = Substitution1D(alphabet, rule)
    return s


class TestRandomSubstitutions:
    @settings(max_examples=100, deadline=None)
    @given(primitive_substitutions())
    def test_h0_and_collar_invariance(self, s):
        cx1, sm1 = ap_complex_1d(s, 1)
        cx2, sm2 = ap_complex_1d(s, 2)
        h0 = classify(cohomology_tower(cx1, sm1, 0))
        assert str(h0) == "Z"
        e1 = classify(cohomology_tower(cx1, sm1, 1))
        e2 = classify(cohomology_tower(cx2, sm2, 1))
        if e1.unclassified is None and e2.unclassified is None:
            assert iso_check(e1, e2)
