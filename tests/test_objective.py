import hashlib
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sixj_fraction
from references import (
    EqualityRow,
    _contract_sectors,
    build_constraints,
    degree,
    half_int,
    poly_value,
    recoupling_by_m_sum,
    recoupling_reference,
    reference_layout,
    reference_objective,
    split_overlap_reference,
)
from uqsub import objective
from uqsub.angular import HalfInt, SectorIndex, enumerate_sectors, j1_values, sector_blocks
from uqsub.errors import CapacityError
from uqsub.objective import (
    MAX_TOTAL_QUBITS,
    ObjectiveTable,
    PolyInP,
    _layout,
    _overlaps,
    _recouplings,
    assemble,
    build_objective,
    w_values_from_solution,
)
from uqsub.sdp import solve

H = half_int
P_GRID = [0.0, 0.1, 0.25, 0.375, 0.5, 0.7, 0.9, 1.0]


def sector(j1, j, jp, q):
    return SectorIndex(j1=H(j1), j=H(j), jp=H(jp), q=H(q))


def closed_form_21(p):
    """Per-sector fidelity coefficients of the (2,1) machine (folded)."""
    return {
        sector(1, 3 / 2, 3 / 2, 2): 5 * (1 - p) * (3 + 5 * p) / 72,
        sector(1, 3 / 2, 3 / 2, 1): (1 - p) * (33 + 23 * p) / 72,
        sector(0, 1 / 2, 1 / 2, 0): p * (1 - p) / 12,
        sector(0, 1 / 2, 1 / 2, 1): 5 * p * (1 - p) / 12,
        sector(1, 1 / 2, 3 / 2, 1): (1 - p) * (3 + p) / (9 * math.sqrt(2)),
        sector(1, 1 / 2, 1 / 2, 1): (6 - p) * (1 - p) / 36,
        sector(1, 1 / 2, 1 / 2, 0): (1 - p) * (6 - 5 * p) / 36,
    }


def closed_form_11(p):
    return {
        sector(1 / 2, 1, 1, 3 / 2): (1 - p) / 3,
        sector(1 / 2, 1, 1, 1 / 2): 5 * (1 - p) / 12,
        sector(1 / 2, 0, 0, 1 / 2): (1 - p) / 4,
        sector(1 / 2, 0, 1, 1 / 2): (1 - p) / (2 * math.sqrt(3)),
    }


def recoupling(k, n1, n2, tj1, tj):
    """U_k(j1, j) from the package's per-j1 columns; 0.0 where j1 and n2/2
    do not couple to j."""
    return _recouplings(n1, n2, tj1).get(tj, [0.0] * n1)[k - 1]


def random_feasible_w(n1, n2, rng):
    """Gram values satisfying every trace-preservation row (PSD not enforced)."""
    w = {}
    diag = {}
    for s in enumerate_sectors(n1, n2):
        if s.j == s.jp:
            key = (s.j.twice, s.j1.twice)
            if key not in diag:
                tj = s.j.twice
                t = 1.0 if tj == 0 else rng.uniform(0.0, 1.0)
                vals = {tj + 1: t * (tj + 1) / (tj + 2)}
                if tj > 0:
                    vals[tj - 1] = (1 - t) * (tj + 1) / tj
                diag[key] = vals
            w[s] = diag[key].get(s.q.twice, 0.0)
        else:
            w[s] = rng.uniform(-0.5, 0.5)
    return w


class TestPoly:
    def test_split_sum_matches_exact_bernstein(self):
        # the float noise-split sum against the Bernstein sum in exact rationals
        polys = [PolyInP((1.0, -2.0, 0.5, 3.0))] + list(build_objective(5, 4).entries.values())
        for poly in polys:
            n = len(poly.split) - 1
            for p in P_GRID:
                q = Fraction(p)
                exact = sum(
                    Fraction(c) * math.comb(n, k) * (1 - q) ** k * q ** (n - k)
                    for k, c in enumerate(poly.split)
                )
                assert poly_value(poly, p) == pytest.approx(float(exact), abs=1e-14)

    def test_degree_bound(self):
        table = build_objective(3, 2)
        assert all(degree(poly) <= 3 for poly in table.entries.values())


class TestBuildObjective:
    def test_2_1_matches_published_coefficients(self):
        table = build_objective(2, 1)
        for p in P_GRID:
            expected = closed_form_21(p)
            for s, value in expected.items():
                assert poly_value(table.entries[s], p) == pytest.approx(value, abs=1e-12), (s, p)

    def test_1_1_matches_published_coefficients(self):
        table = build_objective(1, 1)
        for p in P_GRID:
            for s, value in closed_form_11(p).items():
                assert poly_value(table.entries[s], p) == pytest.approx(value, abs=1e-12), (s, p)

    def test_entries_vanish_exactly_at_p_1(self):
        # only the k = 0 split survives at p = 1, and it lives in the constant
        table = build_objective(10, 6)
        assert all(poly_value(poly, 1.0) == 0.0 for poly in table.entries.values())
        assert poly_value(table.constant, 1.0) == 0.5

    def test_every_sector_has_an_entry(self):
        for n1, n2 in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            table = build_objective(n1, n2)
            assert set(table.entries) == set(enumerate_sectors(n1, n2))

    def test_unfolded_coefficients_are_symmetric(self):
        for n1, n2 in [(2, 1), (2, 2), (3, 2)]:
            raw = _contract_sectors(n1, n2, range(0, n1 + 1))
            for (tj, tjp, tq, tj1), coeffs in raw.items():
                partner = raw.get((tjp, tj, tq, tj1), np.zeros_like(coeffs))
                assert np.max(np.abs(coeffs - partner)) < 1e-12

    def test_constant_sector_identity(self):
        # the k = 0 part contracts to exactly p^n1 / 2 on any TP-feasible W
        rng = np.random.default_rng(5)
        for n1, n2 in [(1, 1), (2, 1), (2, 2)]:
            raw0 = _contract_sectors(n1, n2, [0])
            for trial in range(5):
                w = random_feasible_w(n1, n2, rng)
                wmap = {}
                for s, val in w.items():
                    wmap[(s.j.twice, s.jp.twice, s.q.twice, s.j1.twice)] = val
                    wmap[(s.jp.twice, s.j.twice, s.q.twice, s.j1.twice)] = val
                for p in (0.0, 0.3, 0.8, 1.0):
                    total = sum(
                        poly_value(PolyInP(tuple(coeffs)), p) * wmap[key]
                        for key, coeffs in raw0.items()
                    )
                    assert total == pytest.approx(p**n1 / 2, abs=1e-9)

    def test_k0_touches_only_top_spin_diagonal(self):
        for n1, n2 in [(1, 1), (2, 1), (3, 2)]:
            raw0 = _contract_sectors(n1, n2, [0])
            N = n1 + n2
            for (tj, tjp, tq, tj1), coeffs in raw0.items():
                if np.max(np.abs(coeffs)) < 1e-14:
                    continue
                assert tj == tjp == N and tj1 == n1

    @pytest.mark.parametrize(
        "n1,n2",
        [(n1, n2) for n1 in range(1, 12) for n2 in range(1, 13 - n1)] + [(12, 12)],
    )
    def test_matches_eight_factor_contraction(self, n1, n2):
        # the recoupled product against the m-sum contraction, folded as stored
        raw = _contract_sectors(n1, n2, range(1, n1 + 1))
        table = build_objective(n1, n2)
        keys = {(s.j.twice, s.jp.twice, s.q.twice, s.j1.twice) for s in table.entries}
        assert all((min(tj, tjp), max(tj, tjp), tq, tj1) in keys for tj, tjp, tq, tj1 in raw)
        assert set(table.entries) == set(enumerate_sectors(n1, n2))
        zero = np.zeros(n1 + 1)
        for s, poly in table.entries.items():
            tj, tjp, tq, tj1 = s.j.twice, s.jp.twice, s.q.twice, s.j1.twice
            expected = raw.get((tj, tjp, tq, tj1), zero)
            if tj != tjp:
                expected = expected + raw.get((tjp, tj, tq, tj1), zero)
            assert np.max(np.abs(np.array(poly.split) - expected)) <= 1e-15, s

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            build_objective(20, 10)

    def test_json_schema_round_trip(self):
        # the layout the table's JSON writer had: sectors keyed by doubled
        # integers (2j1, 2j, 2j', 2q) with the Bernstein split as payload
        table = build_objective(2, 1)
        assert table.n1 == 2 and table.n2 == 1
        doc = {tuple(label.twice for label in s): poly.split for s, poly in table.entries.items()}
        assert len(doc) == 7
        back = {
            SectorIndex(*map(HalfInt, key)): PolyInP(split) for key, split in doc.items()
        }
        assert back == table.entries and list(back) == list(table.entries)
        value = poly_value(back[sector(1, 3 / 2, 3 / 2, 2)], 0.5)
        assert value == pytest.approx(5 * 0.5 * (3 + 2.5) / 72, abs=1e-12)

    @pytest.mark.parametrize(
        "n1,n2,digest",
        [
            (2, 1, "11ded13bec2fa77b472df63ffa666d9ae65bf7cd30db654ad10c1cc9382c3f5b"),
            (3, 3, "2c113f5b6c693f1eac8137acc6135a6cc4ba431466c3a1ba2276671640c08c33"),
            (5, 4, "ae5bbc194b9c84146704f7982d7f3bc60b6a9ca78dc89e3d45bd929fa6959b8b"),
        ],
        ids=["2-1", "3-3", "5-4"],
    )
    def test_table_repr_is_pinned(self, n1, n2, digest):
        # exact integer ratios, one sqrt each and sums in a fixed order: every
        # split float, key and order of the table is the same on any platform
        # and Python version
        text = repr(build_objective(n1, n2))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRecords:
    """The table and its polynomials are named tuples: immutable, picklable,
    and without tuple arithmetic."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 4))
    def test_table_pickles_and_is_read_only(self, n1, n2):
        table = build_objective(n1, n2)
        back = pickle.loads(pickle.dumps(table))
        assert type(back) is ObjectiveTable and back == table
        assert list(back.entries) == list(table.entries) and repr(back) == repr(table)
        poly = next(iter(table.entries.values()))
        with pytest.raises(AttributeError):
            table.n1 = n1 + 1
        with pytest.raises(AttributeError):
            poly.split = ()
        with pytest.raises(AttributeError):
            build_constraints(n1, n2)[0].rhs = 2.0

    def test_no_tuple_arithmetic_on_polynomials(self):
        poly = PolyInP((0.0, 1.0))
        for op in (lambda: poly + poly, lambda: poly * 2, lambda: 2 * poly):
            with pytest.raises(TypeError):
                op()

    def test_equality_row_defaults_to_rhs_one(self):
        row = EqualityRow(j=H(0), j1=H(1 / 2), terms=((H(1 / 2), 2.0),))
        assert row.rhs == 1.0 and row == build_constraints(1, 1)[0]


class TestRecoupling:
    def test_columns_are_unit_vectors(self):
        # U_k(., j) is a column of an orthogonal recoupling matrix over j1
        cases = 0
        for n in range(2, 13):
            for n1 in range(1, n):
                n2 = n - n1
                for k in range(1, n1 + 1):
                    tsym = n - k
                    for tj in range(abs(tsym - k), tsym + k + 1, 2):
                        norm = sum(
                            recoupling(k, n1, n2, j1.twice, tj) ** 2 for j1 in j1_values(n1)
                        )
                        assert norm == pytest.approx(1.0, abs=1e-14), (n1, n2, k, tj)
                        cases += 1
        assert cases == 1042

    @staticmethod
    def labels():
        """(k, n1, n2, tj1, tj) of every U the tables of n1+n2 <= 12 and (12,12) use."""
        pairs = [(n1, n - n1) for n in range(2, 13) for n1 in range(1, n)] + [(12, 12)]
        for n1, n2 in pairs:
            for k in range(1, n1 + 1):
                for j1 in j1_values(n1):
                    for tj in range(abs(j1.twice - n2), j1.twice + n2 + 1, 2):
                        yield k, n1, n2, j1.twice, tj

    def test_equals_exact_stretched_six_j(self):
        # U = (-1)^(k/2+a+b+j) sqrt((2j1+1)(2S+1)) {k/2 a j1; b j S}, a = (n1-k)/2,
        # b = n2/2, S = a+b: the square root of the exact value, bit for bit
        vanishing = 0
        for k, n1, n2, tj1, tj in self.labels():
            ts = n1 + n2 - k
            sign, square = sixj_fraction(k, n1 - k, tj1, n2, tj, ts)
            sign *= -1 if ((n1 + n2 + tj) // 2) % 2 else 1
            expected = math.copysign(math.sqrt((tj1 + 1) * (ts + 1) * square), sign)
            assert recoupling(k, n1, n2, tj1, tj) == expected, (k, n1, n2, tj1, tj)
            vanishing += sign == 0
        assert vanishing > 0

    def test_matches_m_sum_reference(self):
        for label in self.labels():
            assert recoupling(*label) == pytest.approx(recoupling_by_m_sum(*label), abs=1e-14)


class TestClosedFormTable:
    """The table from per-j1 recoupling columns and the per-(k, n1+n2, q)
    closed-form G_k against the per-sector references, bit for bit."""

    def test_equals_per_sector_reference_over_the_size_guard(self):
        pairs = sectors = overlaps = 0
        for n in range(2, MAX_TOTAL_QUBITS + 1):
            labels = set()
            for n1 in range(1, n):
                n2 = n - n1
                table, ref = build_objective(n1, n2), reference_objective(n1, n2)
                assert list(table.entries.items()) == list(ref.entries.items()), (n1, n2)
                pairs += 1
                sectors += len(table.entries)
                for j1 in j1_values(n1):
                    columns = _recouplings(n1, n2, j1.twice)
                    for tj in range(abs(j1.twice - n2), j1.twice + n2 + 1, 2):
                        for k in range(1, n1 + 1):
                            assert columns[tj][k - 1] == recoupling_reference(
                                k, n1, n2, j1.twice, tj
                            ), (k, n1, n2, j1, tj)
                blocks = sector_blocks(n1, n2)
                labels |= {(k, q.twice) for q, _, _ in blocks for k in range(1, n1 + 1)}
            for k, tq in sorted(labels):
                below, above = tq - 1, tq + 1
                expected = tuple(
                    split_overlap_reference(k, n - k, tq, tj, tjp)
                    for tj, tjp in ((below, below), (below, above), (above, above))
                )
                assert _overlaps(k, n, tq) == expected, (k, n, tq)
                overlaps += 1
        assert (pairs, sectors) == (276, 15734)
        assert overlaps > 0

    def test_cg_twice_counter_counts_the_spin_half_factor(self, monkeypatch):
        # the benchmark counts calls through objective.cg_twice: after the
        # closed form, only the spin-1/2 factor of G_k goes through it, once
        # per (k, n1+n2, q) pass
        calls = []
        inner = objective.cg_twice

        def counting(*labels):
            calls.append(labels)
            return inner(*labels)

        monkeypatch.setattr(objective, "cg_twice", counting)
        _overlaps.cache_clear()
        build_objective(2, 1)
        assert len(calls) > 0 and all(labels[:2] == (1, 1) for labels in calls)
        made = len(calls)
        build_objective(1, 2)  # the same n1+n2: every G_k is cached already
        assert len(calls) == made


class TestConstraints:
    def test_1_1_singlet_row(self):
        rows = build_constraints(1, 1)
        row = next(r for r in rows if r.j == H(0))
        assert row.terms == ((H(1 / 2), 2.0),)
        assert row.rhs == 1.0

    def test_2_1_rows(self):
        rows = build_constraints(2, 1)
        assert len(rows) == 3
        by_key = {(float(r.j), float(r.j1)): dict((float(q), c) for q, c in r.terms) for r in rows}
        assert by_key[(1.5, 1.0)] == pytest.approx({2.0: 5 / 4, 1.0: 3 / 4})
        assert by_key[(0.5, 1.0)] == pytest.approx({1.0: 3 / 2, 0.0: 1 / 2})
        assert by_key[(0.5, 0.0)] == pytest.approx({1.0: 3 / 2, 0.0: 1 / 2})

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (3, 2), (4, 4)])
    def test_row_coefficients_sum_to_two(self, n1, n2):
        for row in build_constraints(n1, n2):
            assert sum(c for _, c in row.terms) == pytest.approx(2.0, abs=1e-14)


class TestLayout:
    def test_matches_reference_placement_over_the_size_guard(self):
        # rows written in the block walk against build_constraints placed by
        # lookup: same rows, term order and floats, so solver iterates match
        pairs = 0
        for n in range(2, MAX_TOTAL_QUBITS + 1):
            for n1 in range(1, n):
                _, slots, rows = _layout(n1, n - n1)
                ref_slots, ref_rows = reference_layout(n1, n - n1)
                assert rows == ref_rows, (n1, n - n1)
                assert list(slots) == enumerate_sectors(n1, n - n1), (n1, n - n1)
                assert list(slots.items()) == list(ref_slots.items()), (n1, n - n1)
                pairs += 1
        assert pairs == 276

    @pytest.mark.parametrize("solved, read_as", [((3, 3), (3, 2)), ((2, 1), (2, 2))])
    def test_solution_read_at_another_size_raises(self, solved, read_as):
        # the same number of blocks, of other dimensions
        sol = solve(assemble(build_objective(*solved), 0.4))
        assert len(sol.blocks) == len(_layout(*read_as)[0])
        with pytest.raises(ValueError, match="does not match the"):
            w_values_from_solution(sol, *read_as)


class TestAssemble:
    def test_2_1_block_structure(self):
        problem = assemble(build_objective(2, 1), 0.5)
        dims = sorted(b.dim for b in problem.blocks)
        assert dims == [1, 1, 1, 1, 2]
        assert problem.num_constraints == 3
        assert problem.offset == pytest.approx(0.125)

    def test_1_1_blocks_only_j1_half(self):
        problem = assemble(build_objective(1, 1), 0.3)
        assert all("j1=1/2" in b.name for b in problem.blocks)

    def test_3_2_counts_match_exhaustive_enumeration(self):
        problem = assemble(build_objective(3, 2), 0.3)
        # brute-force block and row enumeration over raw ranges
        blocks = set()
        rows = set()
        for tj1 in range(3 % 2, 4, 2):
            for tj in range(abs(tj1 - 2), tj1 + 3, 2):
                rows.add((tj, tj1))
                for tq in (tj - 1, tj + 1):
                    if tq >= 0:
                        blocks.add((tq, tj1))
        assert len(problem.blocks) == len(blocks)
        assert problem.num_constraints == len(rows)

    def test_equality_rows_touch_at_most_two_blocks(self):
        problem = assemble(build_objective(3, 2), 0.4)
        for terms, rhs in problem.equalities:
            assert rhs == 1.0
            assert 1 <= len({pos for pos, _, _, _ in terms}) <= 2
            for pos, i, k, _ in terms:
                assert i == k

    def test_rows_are_built_once_per_size(self):
        table = build_objective(3, 2)
        assert assemble(table, 0.2).equalities is assemble(table, 0.7).equalities

    def test_objective_matrices_reproduce_folded_values(self):
        table = build_objective(2, 1)
        problem = assemble(table, 0.25)
        pos = next(i for i, b in enumerate(problem.blocks) if b.dim == 2)
        mat = problem.objective[pos]
        folded = poly_value(table.entries[sector(1, 1 / 2, 3 / 2, 1)], 0.25)
        assert mat[0][1] * 2 == pytest.approx(folded, abs=1e-14)
        assert mat[0][0] == pytest.approx(
            poly_value(table.entries[sector(1, 1 / 2, 1 / 2, 1)], 0.25)
        )

    def test_p_domain_error(self):
        table = build_objective(1, 1)
        with pytest.raises(ValueError):
            assemble(table, 1.2)
        with pytest.raises(ValueError):
            assemble(table, -0.1)
