import dataclasses
import hashlib
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebnerkit.groebner import (
    GroebnerBasis,
    buchberger,
    groebner_basis,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from groebnerkit.division import divide
from groebnerkit.order import GREVLEX, GRLEX, LEX, MonomialOrder, leading_term
from groebnerkit.parse import format_polynomial, parse_polynomial, parse_system
from groebnerkit.ring import Monomial, Polynomial, RingMismatchError, VariableContext

from groebnerkit import division, groebner
from strategies import CTX_XY, CTX_XYZ, nonzero_polynomials, orders


def _xy(text):
    return parse_polynomial(text, CTX_XY)


def canonical(basis):
    return [format_polynomial(g, basis.order) for g in basis.generators]


def assert_stats_add_up(stats, inputs, basis):
    """Every J-pair formed is pruned once or reduced once, and every
    reduction, of a J-pair or of an input, gives a new member or a zero
    reduction."""
    assert stats["pairs_formed"] == stats["pruned_syzygy"] + stats["pruned_cover"] + stats["s_pairs_reduced"]
    assert stats["s_pairs_reduced"] + stats["inputs_reduced"] == stats["new_members"] + stats["zero_reductions"]
    assert stats["new_members"] == len(basis) - len(inputs)
    assert stats["basis_high_water"] == len(basis)


def start_wide(monkeypatch):
    """Make completion start in fields of width 16, whatever its inputs ask."""
    widened = groebner._widened

    def wide(packing, forms, width=0):
        # Only the start names a width.
        return widened(packing, forms, width and 16)

    monkeypatch.setattr(groebner, "_widened", wide)


def assert_buchberger_criterion(basis):
    gens = list(basis.generators)
    for p, q in itertools.combinations(gens, 2):
        s = s_polynomial(p, q, basis.order)
        if not s.is_zero():
            assert normal_form(s, gens, basis.order).is_zero()


class TestSPolynomial:
    def test_worked_example(self):
        s = s_polynomial(_xy("x^3 - 2*x*y"), _xy("x^2*y - 2*y^2 + x"), GRLEX)
        assert s == _xy("-x^2")

    def test_self_pair_vanishes(self):
        p = _xy("x^2*y - 3*y + 1/2")
        assert s_polynomial(p, p, GRLEX).is_zero()

    def test_coprime_leading_monomials(self):
        for order in (LEX, GRLEX, GREVLEX):
            assert s_polynomial(_xy("x^2"), _xy("y^2"), order).is_zero()

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            s_polynomial(Polynomial.zero(CTX_XY), _xy("x"), LEX)

    @settings(max_examples=40, deadline=None)
    @given(
        nonzero_polynomials(max_terms=4, max_exponent=3),
        nonzero_polynomials(max_terms=4, max_exponent=3),
        orders(),
    )
    def test_antisymmetry(self, p, q, order):
        assert s_polynomial(p, q, order) == -s_polynomial(q, p, order)

    @settings(max_examples=40, deadline=None)
    @given(
        nonzero_polynomials(max_terms=4, max_exponent=3),
        nonzero_polynomials(max_terms=4, max_exponent=3),
        orders(),
    )
    def test_leading_terms_cancel(self, p, q, order):
        s = s_polynomial(p, q, order)
        lcm = leading_term(p, order).monomial.lcm(leading_term(q, order).monomial)
        key = order.key_function()
        if not s.is_zero():
            assert key(leading_term(s, order).monomial) < key(lcm)

    @settings(max_examples=60, deadline=None)
    @given(nonzero_polynomials(max_terms=5), nonzero_polynomials(max_terms=5), orders())
    def test_equals_its_definition(self, p, q, order):
        """(L/LT(p))*p - (L/LT(q))*q, each multiple a Polynomial product
        with a one-term polynomial, in value and in term order."""
        lt_p, lt_q = leading_term(p, order), leading_term(q, order)
        lcm = lt_p.monomial.lcm(lt_q.monomial)
        left = Polynomial(CTX_XY, {lcm / lt_p.monomial: 1 / lt_p.coefficient}) * p
        right = Polynomial(CTX_XY, {lcm / lt_q.monomial: 1 / lt_q.coefficient}) * q
        s = s_polynomial(p, q, order)
        assert s == left - right
        assert list(s.terms.items()) == list((left - right).terms.items())

    def test_ring_mismatch_rejected(self):
        other = parse_polynomial("a*b", VariableContext(["a", "b"]))
        with pytest.raises(RingMismatchError):
            s_polynomial(_xy("x*y"), other, LEX)

    def test_arity_mismatch_is_a_ring_mismatch(self):
        # The contexts are checked before the lcm, which would fail on arity.
        p, other = _xy("x*y"), parse_polynomial("x*y*z", CTX_XYZ)
        with pytest.raises(RingMismatchError, match="^ring mismatch$"):
            s_polynomial(p, other, LEX)
        with pytest.raises(RingMismatchError, match="^ring mismatch$"):
            divide(p, [other], LEX)


class TestNormalForm:
    G = None  # filled in setup

    def setup_method(self):
        self.G = [_xy("x^2"), _xy("x*y"), _xy("y^2 - 1/2*x")]

    def test_member_reduces_to_zero(self):
        assert normal_form(self.G[1], self.G, GRLEX).is_zero()

    def test_cube_reduces_to_zero(self):
        assert normal_form(_xy("y^3"), self.G, GRLEX).is_zero()

    def test_low_degree_passes_through(self):
        f = _xy("x + y")
        assert normal_form(f, self.G, GRLEX) == f

    @settings(max_examples=30, deadline=None)
    @given(nonzero_polynomials(max_terms=4, max_exponent=3), orders())
    def test_matches_division_remainder(self, f, order):
        G = [_xy("x^2 - 1"), _xy("x*y + 2")]
        assert normal_form(f, G, order) == divide(f, G, order).remainder


class TestBuchberger:
    def test_single_generator(self):
        basis = buchberger([_xy("x")], GRLEX)
        assert canonical(basis) == ["x"]
        assert not basis.reduced

    def test_worked_ideal(self):
        basis = groebner_basis([_xy("x^3 - 2*x*y"), _xy("x^2*y - 2*y^2 + x")], GRLEX)
        assert canonical(basis) == ["y^2 - 1/2*x", "x*y", "x^2"]
        assert basis.reduced
        assert_buchberger_criterion(basis)

    def test_ideal_is_whole_ring(self):
        basis = groebner_basis([_xy("x - 1"), _xy("x")], LEX)
        assert canonical(basis) == ["1"]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty generating set"):
            buchberger([], GRLEX)
        with pytest.raises(ValueError, match="empty generating set"):
            buchberger([Polynomial.zero(CTX_XY)], GRLEX)

    def test_mixed_rings_rejected(self):
        # Completion reads its inputs' leads through the division kernel's
        # gate, which refuses a second ring, of another arity or not.
        for other in (parse_polynomial("x*z - 1", CTX_XYZ),
                      parse_polynomial("u*v - 1", VariableContext(["u", "v"]))):
            for complete in (buchberger, groebner_basis):
                with pytest.raises(RingMismatchError, match="^ring mismatch$"):
                    complete([_xy("x^2 - y"), other], GRLEX)

    def test_zero_generators_stripped(self):
        basis = buchberger([Polynomial.zero(CTX_XY), _xy("x")], GRLEX)
        assert canonical(basis) == ["x"]

    def test_basis_size_cap(self, monkeypatch):
        # The worked grlex example's raw basis has 5 members.
        gens = [_xy("x^3 - 2*x*y"), _xy("x^2*y - 2*y^2 + x")]
        monkeypatch.setattr(groebner, "MAX_BASIS_SIZE", 5)
        assert len(buchberger(gens, GRLEX)) == 5
        monkeypatch.setattr(groebner, "MAX_BASIS_SIZE", 4)
        with pytest.raises(ValueError, match="exceeded the cap of 4 elements"):
            buchberger(gens, GRLEX)

    @pytest.mark.parametrize("cap", [5, 8])
    def test_stats_hold_the_counts_so_far_when_the_cap_is_passed(self, monkeypatch, cap):
        # Cyclic-4 under grevlex: two of its 4 inputs reduce to new members,
        # and S-pairs add more. The member that passes the cap is counted
        # before completion raises.
        monkeypatch.setattr(groebner, "MAX_BASIS_SIZE", cap)
        stats = {}
        with pytest.raises(ValueError, match=f"exceeded the cap of {cap} elements"):
            buchberger(parse_system(CYCLIC4, CTX_ABCD), GREVLEX, stats)
        assert list(stats) == list(groebner._STATS)
        assert stats["basis_high_water"] == cap + 1 and stats["new_members"] == cap - 3
        assert stats["pairs_formed"] >= stats["pruned_syzygy"] + stats["pruned_cover"] + stats["s_pairs_reduced"]
        assert stats["s_pairs_reduced"] + stats["inputs_reduced"] == stats["new_members"] + stats["zero_reductions"]

    def test_inputs_contained_in_output(self):
        gens = [_xy("x^2 + y"), _xy("x*y - 1")]
        basis = buchberger(gens, GREVLEX)
        for g in gens:
            assert normal_form(g, list(basis.generators), GREVLEX).is_zero()

    @pytest.mark.parametrize(
        "gens, order, criterion",
        [
            # Of the 21 J-pairs, 17 are pruned by syzygies: each pair of
            # coprime leads by its own principal syzygy (the product
            # criterion), the others by a syzygy dividing their signature.
            (["x^2 + y", "y^3 - x", "x*y - 2"], GRLEX, "pruned_syzygy"),
            # A member of the index of one J-pair has a smaller lead at its
            # signature, so the cover criterion drops it; another J-pair
            # reduces to zero.
            (["z - 2*x*y", "3/4*y*z", "-x*z"], LEX, "pruned_cover"),
        ],
        ids=["syzygy", "cover"],
    )
    def test_pair_criteria_are_only_an_optimization(self, gens, order, criterion):
        # Completion reduces no J-pair that a syzygy or a covering member
        # prunes; every S-pair of its result, the pruned ones included,
        # must still reduce to zero.
        ctx = CTX_XYZ if "z" in "".join(gens) else CTX_XY
        inputs = [parse_polynomial(g, ctx) for g in gens]
        stats = {}
        basis = buchberger(inputs, order, stats)
        lms = [leading_term(g, order).monomial for g in basis.generators]
        pairs = list(itertools.combinations(lms, 2))
        coprime = [all(a == 0 or b == 0 for a, b in zip(p, q)) for p, q in pairs]
        assert any(coprime)
        assert stats["s_pairs_reduced"] < coprime.count(False)
        assert stats[criterion] > 0
        assert_stats_add_up(stats, inputs, basis)
        assert_buchberger_criterion(basis)

    def test_stats_add_to_the_callers_record(self):
        gens = [_xy("x^3 - 2*x*y"), _xy("x^2*y - 2*y^2 + x")]
        once, twice = {}, {"basis_high_water": 9}
        assert buchberger(gens, GRLEX, once) == buchberger(gens, GRLEX)
        buchberger(gens, GRLEX, twice)
        buchberger(gens, GRLEX, twice)
        assert twice == {name: 2 * n for name, n in once.items()} | {"basis_high_water": 9}
        assert once["basis_high_water"] == 5

    def test_widenings_repeat_and_only_the_inputs_convert(self, monkeypatch):
        # S(x - y^3, x^2 - z) reduces to z^18 - z, past the fields of width
        # 4 that degree 3 asks for: the fields double once, and the forms
        # are repacked, not converted from the polynomials again.
        converted = []
        form = division._form

        def spy(g, packing):
            converted.append(g)
            return form(g, packing)

        monkeypatch.setattr(division, "_form", spy)
        gens = parse_system(["x - y^3", "y - z^3", "x^2 - z"], CTX_XYZ)
        runs = []
        for _ in range(3):
            # The later runs find the forms the inputs hold, in the
            # doubled fields the last run left them in.
            stats = {}
            basis = buchberger(gens, LEX, stats)
            runs.append((stats, canonical(basis)))
        assert converted == gens
        assert runs[0][0]["widenings"] == 1
        assert runs[1:] == runs[:-1]
        assert "z^18 - z" in runs[0][1]

    def test_pending_pairs_survive_a_widening(self, monkeypatch):
        # Under lex, x^2*y + x - 2*y^2 outgrows the fields of width 4 while
        # two J-pairs wait. The signatures, syzygies and waiting pairs are
        # repacked with the forms, so the run reduces and prunes what it
        # does in fields wide enough from the start.
        gens = [_xy("x^3 - 2*x*y"), _xy("x^2*y - 2*y^2 + x")]
        stats = {}
        basis = buchberger(gens, LEX, stats)
        assert canonical(basis) == ["y^3", "x - 2*y^2", "x^2", "x^2*y + x - 2*y^2", "x^3 - 2*x*y"]
        assert stats == {"pairs_formed": 10, "pruned_syzygy": 5, "pruned_cover": 2, "s_pairs_reduced": 3,
                         "inputs_reduced": 0, "new_members": 3, "zero_reductions": 0, "widenings": 1,
                         "basis_high_water": 5}
        start_wide(monkeypatch)
        wide = {}
        assert canonical(buchberger(gens, LEX, wide)) == canonical(basis)
        assert wide == stats | {"widenings": 0}

    def test_an_overflowed_pair_is_reduced_again_first(self, monkeypatch):
        # Under lex, one J-pair's reduction outgrows the fields of width 4
        # while two more pairs wait. It goes back on the queue, and once the
        # fields are wider it comes off first again, so the run does what it
        # does in fields wide enough from the start.
        gens = parse_system(["y^3 - x*z - y^2", "z^3 - y*z", "y*z - x^2*z - y"], CTX_XYZ)
        reduce, push = groebner._reduce, groebner.heappush
        overflowed, waiting = [], []

        def spy_reduce(p, forms, degree, packing, steps, below=None):
            records = reduce(p, forms, degree, packing, steps, below)
            overflowed.append(records is None and below is not None)
            return records

        def spy_push(queue, pair):
            if overflowed and overflowed[-1]:
                waiting.append(len(queue))
            push(queue, pair)

        monkeypatch.setattr(groebner, "_reduce", spy_reduce)
        monkeypatch.setattr(groebner, "heappush", spy_push)
        stats = {}
        basis = buchberger(gens, LEX, stats)
        assert overflowed.count(True) == 1 and waiting == [2]
        assert stats["widenings"] == 1 and stats["zero_reductions"] == 1
        start_wide(monkeypatch)
        wide = {}
        assert canonical(buchberger(gens, LEX, wide)) == canonical(basis)
        assert wide == stats | {"widenings": 0}

    def test_cyclic4_work_is_independent_of_input_order(self):
        ctx = VariableContext(["a", "b", "c", "d"])
        cyclic4 = parse_system(
            ["a + b + c + d", "a*b + b*c + c*d + d*a",
             "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"],
            ctx,
        )
        results, work = [], []
        for perm in itertools.permutations(cyclic4):
            stats = {}
            basis = buchberger(list(perm), GREVLEX, stats)
            results.append(canonical(reduce_basis(basis)))
            work.append(stats)
        assert all(r == results[0] for r in results)
        # The inputs enter in increasing order of leads, so every order
        # does the same work: 4 S-pairs reduced, one of them to zero.
        assert all(stats == work[0] for stats in work)
        assert (work[0]["s_pairs_reduced"], work[0]["zero_reductions"]) == (4, 1)

    @pytest.mark.parametrize("name, zeros", [("katsura-3", 0), ("katsura-4", 2)])
    def test_signatures_spare_zero_reductions(self, name, zeros):
        # Katsura systems are regular sequences, whose syzygies the
        # principal ones account for, so under grevlex almost no S-pair
        # is reduced to zero.
        names, texts = PINNED_SYSTEMS[name]
        inputs = parse_system(texts, VariableContext(names.split()))
        stats = {}
        basis = buchberger(inputs, GREVLEX, stats)
        assert stats["zero_reductions"] <= zeros
        assert_stats_add_up(stats, inputs, basis)
        assert_buchberger_criterion(basis)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(nonzero_polynomials(max_terms=3, max_exponent=3), min_size=1, max_size=4), orders())
    def test_stats_add_up(self, gens, order):
        stats = {}
        basis = buchberger(gens, order, stats)
        assert_stats_add_up(stats, gens, basis)


class TestGroebnerBasisType:
    def test_sorted_on_construction(self):
        basis = GroebnerBasis((_xy("x^2"), _xy("y")), GRLEX, reduced=False)
        assert basis.generators == (_xy("y"), _xy("x^2"))

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            GroebnerBasis((_xy("x"), Polynomial.zero(CTX_XY)), GRLEX, reduced=False)

    def test_mixed_rings_rejected(self):
        # Reducing such a basis would move x^2 - y into the ring of x, y, z.
        xyz = parse_polynomial("x*z - 1", CTX_XYZ)
        uv = parse_polynomial("u*v - 1", VariableContext(["u", "v"]))
        for other in (xyz, uv):
            with pytest.raises(RingMismatchError, match="^ring mismatch$"):
                GroebnerBasis((_xy("x^2 - y"), other), GRLEX, reduced=False)

    @settings(deadline=None)
    @given(
        st.lists(nonzero_polynomials(max_terms=3, max_exponent=3, max_magnitude=9, max_denominator=4),
                 min_size=1, max_size=3),
        orders(),
        st.booleans(),
        st.data(),
    )
    def test_sorted_stably_by_leading_term(self, gens, order, after_lex, data):
        # The leads come from the division kernel; the order they give must
        # be a stable sort by the order's key of each leading_term.
        if after_lex:
            # These members then hold their forms from a lex
            # completion, often in fields wider than their degrees need.
            gens = list(buchberger(gens, LEX).generators)
        g = gens[0]
        lead = leading_term(g, order)
        # Equal leads: a multiple, the lead term alone, the same object again.
        gens = gens + [g * 2, Polynomial(g.context, {lead.monomial: lead.coefficient}), g]
        gens = data.draw(st.permutations(gens))
        key = order.key_function()
        expected = sorted(gens, key=lambda p: key(leading_term(p, order).monomial))
        basis = GroebnerBasis(tuple(gens), order, reduced=False)
        assert list(map(id, basis.generators)) == list(map(id, expected))

    def test_empty_generating_set_rejected(self):
        # Without a generator a basis has no context to reduce or query in.
        for reduced in (False, True):
            with pytest.raises(ValueError, match="^empty generating set$"):
                GroebnerBasis((), GRLEX, reduced=reduced)

    def test_generators_may_be_any_iterable(self):
        basis = GroebnerBasis(iter([_xy("x^2"), _xy("y")]), GRLEX, reduced=False)
        assert basis.generators == (_xy("y"), _xy("x^2"))
        assert GroebnerBasis((g for g in [_xy("x")]), LEX, reduced=True).generators == (_xy("x"),)

    def test_dataclass_fields_and_replace(self):
        basis = GroebnerBasis((_xy("x^2"), _xy("y")), GRLEX, reduced=False)
        assert [f.name for f in dataclasses.fields(basis)] == ["generators", "order", "reduced"]
        # replace goes through the constructor, so the result is sorted.
        other = dataclasses.replace(basis, generators=(_xy("x"), _xy("y^2")))
        assert other == GroebnerBasis((_xy("x"), _xy("y^2")), GRLEX, reduced=False)
        assert other.generators == (_xy("x"), _xy("y^2"))


# Cyclic-4: its raw basis under grevlex holds members beyond the inputs.
CTX_ABCD = VariableContext(["a", "b", "c", "d"])
CYCLIC4 = ["a + b + c + d", "a*b + a*d + b*c + c*d", "a*b*c + a*b*d + a*c*d + b*c*d", "a*b*c*d - 1"]


class TestKernelBases:
    def test_raw_basis_is_a_value(self):
        gens = parse_system(CYCLIC4, CTX_ABCD)
        same = GroebnerBasis(buchberger(gens, GREVLEX).generators, GREVLEX, reduced=False)
        # Each check on a raw basis whose generators were not yet read.
        assert buchberger(gens, GREVLEX) == same
        assert same == buchberger(gens, GREVLEX)
        assert hash(buchberger(gens, GREVLEX)) == hash(same)
        assert repr(buchberger(gens, GREVLEX)) == repr(same)
        assert repr(same).startswith("GroebnerBasis(generators=(Polynomial(")
        assert pickle.loads(pickle.dumps(buchberger(gens, GREVLEX))) == same
        assert buchberger(gens, GREVLEX) != GroebnerBasis(same.generators, GREVLEX, reduced=True)
        assert buchberger(gens, GREVLEX) != GroebnerBasis(same.generators, GRLEX, reduced=False)
        assert buchberger(gens, GREVLEX).__eq__(same.generators) is NotImplemented

    def test_bases_are_immutable(self):
        gens = parse_system(CYCLIC4, CTX_ABCD)
        raw = buchberger(gens, GREVLEX)
        for basis in (raw, reduce_basis(raw), GroebnerBasis(gens, GREVLEX, reduced=False)):
            for name in ("generators", "order", "reduced", "_kernel", "other"):
                with pytest.raises(AttributeError):
                    setattr(basis, name, None)
                with pytest.raises(AttributeError):
                    delattr(basis, name)

    def test_generators_are_built_once(self):
        raw = buchberger(parse_system(CYCLIC4, CTX_ABCD), GREVLEX)
        assert raw.generators is raw.generators

    def test_an_unknown_attribute_is_missing(self):
        # Asked before the generators are first read, and after.
        raw = buchberger(parse_system(CYCLIC4, CTX_ABCD), GREVLEX)
        for basis in (raw, raw, reduce_basis(raw)):
            assert not hasattr(basis, "foo")
            with pytest.raises(AttributeError, match="^'GroebnerBasis' object has no attribute 'foo'$"):
                basis.foo
            basis.generators

    def test_only_the_returned_members_are_built(self, monkeypatch):
        built = []
        polynomial = division._polynomial

        def spy(form, monomial, wrap):
            built.append(form)
            return polynomial(form, monomial, wrap)

        monkeypatch.setattr(division, "_polynomial", spy)
        gens = parse_system(CYCLIC4, CTX_ABCD)
        result = groebner_basis(gens, GREVLEX)
        assert len(built) == len(result) == 7
        built.clear()
        raw = buchberger(gens, GREVLEX)
        assert built == []
        # The inputs are members as given; only the new members are built.
        assert len(raw.generators) - len(gens) == len(built) > 0
        assert all(any(g is p for p in raw) for g in gens)

    def test_reduction_leaves_the_raw_forms_and_widens_its_own(self):
        # The leads z and x are coprime, so the input is a Groebner basis.
        # Interreduction turns z - x^3 into z - y^9, past the fields of
        # width 4 that degree 3 asks for: they double, and the unreduced
        # basis's forms stay as they were.
        raw = GroebnerBasis(parse_system(["z - x^3", "x - y^3"], VariableContext(["z", "x", "y"])), LEX, False)
        packing, forms = raw._kernel[:2]
        before = repr(forms)
        reduced = reduce_basis(raw)
        assert canonical(reduced) == ["x - y^3", "z - y^9"]
        assert (packing.width, reduced._kernel[0].width) == (4, 8)
        assert raw._kernel[:2] == (packing, forms) and repr(forms) == before
        assert reduce_basis(reduced) == reduced

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(nonzero_polynomials(max_terms=3, max_exponent=3, max_magnitude=9, max_denominator=4),
                 min_size=1, max_size=3),
        orders(),
    )
    def test_forms_and_polynomials_reduce_alike(self, gens, order):
        raw = buchberger(gens, order)
        from_forms = reduce_basis(raw)
        # Two bases the constructor builds: from the raw members, which
        # hold their forms, and from unpickled copies, which hold none.
        for basis in (GroebnerBasis(raw.generators, order, reduced=False), pickle.loads(pickle.dumps(raw))):
            from_polynomials = reduce_basis(basis)
            assert from_forms == from_polynomials
            # Term order included.
            assert [list(g.terms.items()) for g in from_forms] == [list(g.terms.items()) for g in from_polynomials]


class TestReduceBasis:
    def test_drops_dominated_member(self):
        basis = GroebnerBasis(
            (_xy("x^2"), _xy("x*y"), _xy("y^2 - 1/2*x"), _xy("x^3")),
            GRLEX,
            reduced=False,
        )
        reduced = reduce_basis(basis)
        assert canonical(reduced) == ["y^2 - 1/2*x", "x*y", "x^2"]

    def test_equal_leading_monomials_keep_one(self):
        # given unsorted, with two members sharing the leading monomial x^2
        for gens in [("x^2 + y", "y", "x^2"), ("x^2", "y", "x^2 + y")]:
            basis = GroebnerBasis(tuple(map(_xy, gens)), GRLEX, reduced=False)
            assert canonical(reduce_basis(basis)) == ["y", "x^2"]

    def test_monic_scaling(self):
        basis = GroebnerBasis((_xy("2*x"),), GRLEX, reduced=False)
        assert canonical(reduce_basis(basis)) == ["x"]

    def test_idempotent(self):
        basis = buchberger([_xy("x^3 - 2*x*y"), _xy("x^2*y - 2*y^2 + x")], GRLEX)
        once = reduce_basis(basis)
        twice = reduce_basis(once)
        assert canonical(once) == canonical(twice)

    def test_interreduction_rewrites_trailing_terms(self):
        # valid basis under lex; the first member's trailing y^2 reduces
        basis = GroebnerBasis((_xy("x + y^2"), _xy("y^2 + 1")), LEX, reduced=False)
        assert_buchberger_criterion(basis)
        reduced = reduce_basis(basis)
        assert canonical(reduced) == ["y^2 + 1", "x - 1"]


def random_polynomial(rng, ctx, max_terms=3, max_exponent=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = Monomial(tuple(rng.randint(0, max_exponent) for _ in range(len(ctx))))
        c = 0
        while c == 0:
            c = rng.randint(-max_coeff, max_coeff)
        terms[m] = terms.get(m, 0) + Fraction(c)
    return Polynomial(ctx, terms)


class TestRandomizedProperties:
    def test_criterion_holds_on_random_sets(self):
        rng = random.Random(20250809)
        # The chain criterion drops a pair in 2 of the 25 sets in two
        # variables and in 9 of the 25 in three.
        for ctx, order_choices, max_terms, max_exponent in [
            (CTX_XY, [LEX, GRLEX, GREVLEX], 3, 3),
            (CTX_XYZ, [LEX, GREVLEX], 4, 2),
        ]:
            checked = 0
            while checked < 25:
                gens = [
                    random_polynomial(rng, ctx, max_terms=max_terms, max_exponent=max_exponent)
                    for _ in range(rng.randint(1, 3))
                ]
                gens = [g for g in gens if not g.is_zero()]
                if not gens:
                    continue
                order = rng.choice(order_choices)
                basis = buchberger(gens, order)
                assert_buchberger_criterion(basis)
                for g in gens:
                    assert normal_form(g, list(basis.generators), order).is_zero()
                checked += 1

    def test_reduced_basis_unique_under_permutation(self):
        rng = random.Random(42)
        # The chain criterion drops a pair, in some input order, in 4 of
        # the 10 sets under GRLEX and in 6 of the 10 under each 3-variable
        # order.
        for ctx, order_choices, max_exponent in [
            (CTX_XY, [GRLEX], 3),
            (CTX_XYZ, [LEX, GREVLEX], 2),
        ]:
            for order in order_choices:
                for _ in range(10):
                    gens = [
                        random_polynomial(rng, ctx, max_exponent=max_exponent)
                        for _ in range(3)
                    ]
                    gens = [g for g in gens if not g.is_zero()]
                    if not gens:
                        continue
                    reference = None
                    for perm in itertools.permutations(gens):
                        result = canonical(reduce_basis(buchberger(list(perm), order)))
                        if reference is None:
                            reference = result
                        else:
                            assert result == reference

    def test_reducedness_and_monicity(self):
        rng = random.Random(7)
        for _ in range(10):
            gens = [random_polynomial(rng, CTX_XY) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            basis = reduce_basis(buchberger(gens, GREVLEX))
            lead = [leading_term(g, GREVLEX).monomial for g in basis.generators]
            for i, g in enumerate(basis.generators):
                assert leading_term(g, GREVLEX).coefficient == 1
                for m in g.terms:
                    assert not any(
                        lead[j].divides(m) for j in range(len(lead)) if j != i
                    )


# Standard systems whose raw bases pin completion: cyclic-4 in a..d and
# katsura-n in u0..un, as perfbench/systems.py writes them.
PINNED_SYSTEMS = {
    "cyclic-4": ("a b c d", ["a + b + c + d", "a*b + a*d + b*c + c*d",
                             "a*b*c + a*b*d + a*c*d + b*c*d", "a*b*c*d - 1"]),
    "katsura-3": ("u0 u1 u2 u3", ["u0 + 2*u1 + 2*u2 + 2*u3 - 1",
                                  "u0^2 - u0 + 2*u1^2 + 2*u2^2 + 2*u3^2",
                                  "2*u0*u1 + 2*u1*u2 - u1 + 2*u2*u3",
                                  "2*u0*u2 + u1^2 + 2*u1*u3 - u2"]),
    "katsura-4": ("u0 u1 u2 u3 u4", ["u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 - 1",
                                     "u0^2 - u0 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2",
                                     "2*u0*u1 + 2*u1*u2 - u1 + 2*u2*u3 + 2*u3*u4",
                                     "2*u0*u2 + u1^2 + 2*u1*u3 + 2*u2*u4 - u2",
                                     "2*u0*u3 + 2*u1*u2 + 2*u1*u4 - u3"]),
}

# The stats counters this digest covers; a counter added later does not
# change it.
PINNED_STATS = ("pairs_formed", "pruned_syzygy", "pruned_cover", "s_pairs_reduced", "inputs_reduced",
                "new_members", "zero_reductions", "basis_high_water")

# SHA-256 of every raw basis below, each member's terms in their stored
# order, and of its stats, as completion gave them when this was recorded.
PINNED_DIGEST = "43049d7e2b6ca6299d13773d2d5a1acf8d89a0d9d7adc675cbef4f013929574a"


# SHA-256 of the reduced basis groebner_basis gives for each of the same
# systems and orders, with its order and reduced flag, each member's terms
# in their stored order, as recorded when reduction still read the raw
# basis's Polynomials.
PINNED_REDUCED_DIGEST = "9b3d50347bc9efdf2b2a3ccefe203cb299b7a09dcd1130a547c683f64583b247"

PINNED_RUNS = [(name, order) for name in ("cyclic-4", "katsura-3") for order in (LEX, GRLEX, GREVLEX)]
PINNED_RUNS += [("katsura-4", GREVLEX), ("katsura-4", GRLEX)]


def _terms(p: Polynomial) -> list:
    return [(tuple(m), c.numerator, c.denominator) for m, c in p.terms.items()]


def _raw_digest() -> str:
    record = []
    for name, order in PINNED_RUNS:
        names, texts = PINNED_SYSTEMS[name]
        stats = {}
        basis = buchberger(parse_system(texts, VariableContext(names.split())), order, stats)
        record.append((name, order.value, [_terms(g) for g in basis], [(k, stats[k]) for k in PINNED_STATS]))
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _reduced_digest() -> str:
    record = []
    for name, order in PINNED_RUNS:
        names, texts = PINNED_SYSTEMS[name]
        basis = groebner_basis(parse_system(texts, VariableContext(names.split())), order)
        record.append((name, basis.order.value, basis.reduced, [_terms(g) for g in basis]))
    return hashlib.sha256(repr(record).encode()).hexdigest()


def test_raw_bases_and_stats_are_pinned():
    assert _raw_digest() == PINNED_DIGEST


def test_reduced_bases_are_pinned():
    assert _reduced_digest() == PINNED_REDUCED_DIGEST


def test_pinned_records_hold_with_cold_and_warm_tables():
    # Dropping the interned packings drops their conversion tables
    # (Packing.keys_in), so the first pass fills every table and the
    # second reads them.
    def divided():
        names, texts = PINNED_SYSTEMS["katsura-3"]
        context = VariableContext(names.split())
        f = parse_polynomial("u0^3*u1^2 - 4/9*u1*u2*u3 + 11*u3^5 - u0", context)
        result = divide(f, parse_system(texts, context), GREVLEX)
        return [_terms(q) for q in result.quotients], _terms(result.remainder)

    MonomialOrder.packing.cache_clear()
    cold = (_raw_digest(), _reduced_digest(), divided())
    warm = (_raw_digest(), _reduced_digest(), divided())
    assert cold[:2] == warm[:2] == (PINNED_DIGEST, PINNED_REDUCED_DIGEST)
    assert cold[2] == warm[2]
