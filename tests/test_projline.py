import pytest
from hypothesis import given, settings, strategies as st

from tstructkit import projline as pl
from tstructkit.quiver import BackendError

N_POINTS = 3


def hom_dim_line(n: int, m: int) -> int:
    """dim Hom(O(n), O(m)) = m - n + 1 when nonnegative."""
    return max(m - n + 1, 0)


def ext_dim_line(n: int, m: int) -> int:
    """dim Ext(O(n), O(m)) = n - m - 1 when nonnegative (Serre duality)."""
    return max(n - m - 1, 0)


def is_quotient_of_twists(x, n: int) -> bool:
    """Section-counting oracle for Gen(O(n)) membership: a line bundle O(m)
    is a quotient of O(n)^l iff m = n (identity) or Hom(O(n), O(m)) has
    dimension m - n + 1 >= 2, enough sections with no common zero; torsion
    sheaves are always quotients of a single twist."""
    return all(m == n or hom_dim_line(n, m) >= 2 for m in x.line)


def test_sheaf_basics():
    x = pl.line_bundle(2, copies=2).direct_sum(pl.skyscraper(0, 3))
    assert x.rank == 2 and x.degree == 4 + 3
    assert x.torsion_support == frozenset({0})
    assert pl.SheafObj().is_zero
    with pytest.raises(BackendError):
        pl.SheafObj((), ((0, (0,)),))  # zero-length torsion part


def test_hom_and_ext_between_line_bundles():
    assert hom_dim_line(0, 2) == 3
    assert hom_dim_line(2, 0) == 0
    assert ext_dim_line(2, 0) == 1
    assert ext_dim_line(0, 0) == 0


def test_euler_form():
    assert pl.euler_form((1, 0), (1, 2)) == 3
    assert pl.euler_form((1, 2), (1, 0)) == -1
    assert pl.euler_form((0, 1), (1, 0)) == -1
    assert pl.euler_form((1, 0), (0, 1)) == 1
    # genus-g correction drops the constant term
    assert pl.euler_form((1, 0), (1, 0), g=1) == 0


def test_membership_rules():
    sky = pl.skyscraper(0)
    line2 = pl.line_bundle(2)
    assert pl.p1_membership(sky, pl.p1_tor((0,)))
    assert not pl.p1_membership(sky, pl.p1_tor((1,)))
    assert pl.p1_membership(line2, pl.p1_line(2))
    assert not pl.p1_membership(line2, pl.p1_line(1))
    assert pl.p1_membership(line2, pl.p1_gen(1))
    assert pl.p1_membership(sky, pl.p1_gen(1))  # torsion is unrestricted in Gen
    assert not pl.p1_membership(line2.direct_sum(pl.line_bundle(0)), pl.p1_gen(1))
    assert pl.p1_membership(pl.SheafObj(), pl.p1_zero())
    assert pl.p1_membership(line2.direct_sum(sky), pl.p1_all())


def test_gen_membership_matches_quotient_oracle():
    for x in pl.p1_test_sheaves(2):
        if x.is_zero:
            continue
        for n in range(-2, 3):
            assert pl.p1_membership(x, pl.p1_gen(n)) == \
                is_quotient_of_twists(x, n), (x, n)


def test_wide_closure():
    assert pl.p1_wide_closure(pl.p1_gen(1)).tag == pl.ALL
    w = pl.p1_wide_closure(pl.p1_tor((0,)))
    assert w.tag == pl.TOR and w.points == frozenset({0})
    w = pl.p1_wide_closure(pl.p1_line(3))
    # a single line-bundle degree is already wide (equivalent to vector spaces)
    assert w.tag == pl.LINE and w.n == 3


def test_narrow_census_count():
    subcats = pl.enumerate_p1_narrow(N_POINTS, -2, 2)
    assert len(subcats) == 19  # 1 + 7 + 5 + 5 + 1
    keys = {s.key() for s in subcats}
    assert len(keys) == 19


def test_narrowness_audit_passes_on_census():
    for s in pl.enumerate_p1_narrow(N_POINTS, -2, 2):
        assert pl.p1_narrowness_audit(s, -2, 2, N_POINTS), s


def test_classification_forms():
    mk = pl.classify_p1_sequence
    form = mk({0: pl.p1_zero(), 1: pl.p1_tor((0,)), 2: pl.p1_all()})
    assert form.form == "I" and (form.l1, form.l2) == (1, 2)
    form = mk({0: pl.p1_zero(), 1: pl.p1_line(0), 2: pl.p1_gen(0), 3: pl.p1_all()})
    assert form.form == "II" and (form.l1, form.l2, form.n) == (1, 2, 0)
    form = mk({0: pl.p1_zero(), 1: pl.p1_gen(1), 2: pl.p1_all()})
    assert form.form == "III" and (form.n, form.l) == (1, 1)
    form = mk({0: pl.p1_zero(), 1: pl.p1_all()})
    assert form.form == "IV" and form.l == 1
    # constant line-bundle tail classifies as type II with l2 = +inf
    form = mk({0: pl.p1_zero(), 1: pl.p1_line(0)}, above=pl.p1_line(0))
    assert form.form == "II" and form.l2 == pl.POS_INF


def test_invalid_sequences_rejected():
    mk = pl.classify_p1_sequence
    out = mk({0: pl.p1_tor((0, 1)), 1: pl.p1_tor((0,))})
    assert isinstance(out, pl.P1Invalid)  # supports must be nondecreasing
    out = mk({0: pl.p1_tor((0,)), 1: pl.p1_line(0), 2: pl.p1_all()})
    assert isinstance(out, pl.P1Invalid)  # torsion below a bundle level
    out = mk({0: pl.p1_line(0), 1: pl.p1_line(1), 2: pl.p1_all()})
    assert isinstance(out, pl.P1Invalid)  # Line(0) is not contained in Line(1)
    out = mk({0: pl.p1_zero(), 1: pl.p1_line(0), 2: pl.p1_all()})
    assert isinstance(out, pl.P1Invalid)  # missing Gen level before everything


def test_aisle_criterion():
    mk = pl.classify_p1_sequence
    one_tor = mk({0: pl.p1_zero(), 1: pl.p1_tor((0,)), 2: pl.p1_all()})
    assert pl.p1_is_aisle(one_tor)
    two_tor = mk({0: pl.p1_zero(), 1: pl.p1_tor((0,)), 2: pl.p1_tor((0, 1)),
                  3: pl.p1_all()})
    assert two_tor.form == "I" and not pl.p1_is_aisle(two_tor)
    line_form = mk({0: pl.p1_zero(), 1: pl.p1_line(0), 2: pl.p1_gen(0),
                    3: pl.p1_all()})
    assert pl.p1_is_aisle(line_form)


def test_sequence_enumeration_roundtrip():
    forms = pl.p1_enumerate_sequences(N_POINTS, -2, 2, -2, 2)
    assert len(forms) == 1094
    for form in forms:
        entries, below, above = pl.p1_sequence_window(form, -2, 2)
        back = pl.classify_p1_sequence(entries, below=below, above=above)
        assert not isinstance(back, pl.P1Invalid), form
        assert back.key() == form.key(), (form, back)


@pytest.mark.parametrize("points, lo, hi, dlo, dhi", [
    (N_POINTS, -2, 2, -2, 2), (2, 0, 1, -1, 1), (1, -1, 3, 0, 2)])
def test_sequence_enumeration_builds_each_form_once(points, lo, hi, dlo, dhi):
    forms = pl.p1_enumerate_sequences(points, lo, hi, dlo, dhi)
    keys = [f.key() for f in forms]
    assert len(set(keys)) == len(keys)
    assert [repr(k) for k in keys] == sorted(repr(k) for k in keys)
    # the stream that `verify` reads holds each form once, unsorted
    streamed = list(pl.p1_sequence_forms(points, lo, hi, dlo, dhi))
    assert len({f.key() for f in streamed}) == len(streamed)
    assert sorted(streamed, key=lambda f: repr(f.key())) == forms


def test_seq_form_json_encoding():
    form = pl.P1SeqForm("II", l1=pl.NEG_INF, l2=pl.POS_INF, n=1)
    d = form.to_json_dict()
    assert d == {"form": "II", "l1": "-inf", "l2": "+inf", "n": 1}


@given(st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_euler_form_matches_hom_minus_ext_on_line_bundles(n, m):
    assert pl.euler_form((1, n), (1, m)) == \
        hom_dim_line(n, m) - ext_dim_line(n, m)
