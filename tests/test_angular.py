import math

import numpy as np
import pytest

from uqsub.angular import (
    HalfInt,
    cg_twice,
    enumerate_sectors,
    j1_values,
    j_values,
    sector_blocks,
)

from oracles import cg_fraction, cg_table_ladder, irrep_multiplicities
from references import multiplicity, q_set

H = HalfInt.of


class TestHalfInt:
    def test_arithmetic_is_exact_and_closed(self):
        assert float(H(5 / 2)) == 2.5
        assert H(2) > H(3 / 2) > H(0)

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            H(0.3)

    def test_str(self):
        assert str(H(3 / 2)) == "3/2"
        assert str(H(2)) == "2"


class TestCg:
    # labels are twice-values: cg_twice(2j1, 2m1, 2j2, 2m2, 2J, 2M)
    def test_stretched_state(self):
        assert cg_twice(1, 1, 2, 2, 3, 3) == pytest.approx(1.0, abs=1e-14)

    def test_singlet_condon_shortley(self):
        # <0,0 | 1/2,1/2; 1/2,-1/2> = +1/sqrt(2) in the Condon-Shortley convention
        assert cg_twice(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert cg_twice(1, -1, 1, 1, 0, 0) == pytest.approx(-1 / math.sqrt(2), abs=1e-14)

    def test_half_one_coupling_matches_ladder_oracle(self):
        # frozen from the ladder construction: <1/2,1/2 | 1/2,1/2; 1,0> = +1/sqrt(3)
        val = cg_twice(1, 1, 2, 0, 1, 1)
        assert val == pytest.approx(1 / math.sqrt(3), abs=1e-13)
        table = cg_table_ladder(1, 2)
        assert val == pytest.approx(table[(1, 0, 1, 1)], abs=1e-12)

    def test_selection_rules_return_zero(self):
        assert cg_twice(1, 1, 1, 1, 0, 0) == 0.0  # M != m1+m2
        assert cg_twice(2, 0, 2, 0, 6, 0) == 0.0  # triangle violated
        assert cg_twice(1, 1, 1, -1, 1, 0) == 0.0  # perimeter odd
        assert cg_twice(2, 4, 2, -2, 2, 2) == 0.0  # |m| > j

    @pytest.mark.parametrize("tj1,tj2", [(1, 1), (1, 2), (2, 2), (3, 2), (4, 3), (5, 5)])
    def test_against_ladder_oracle(self, tj1, tj2):
        table = cg_table_ladder(tj1, tj2)
        for (tm1, tm2, tJ, tM), expected in table.items():
            got = cg_twice(tj1, tm1, tj2, tm2, tJ, tM)
            assert got == pytest.approx(expected, abs=1e-11), (tm1, tm2, tJ, tM)

    def test_relative_accuracy_contract_up_to_j_30(self):
        # bit-for-bit equal to the Fraction reference for all labels <= 30,
        # the heavy cancellation region of the alternating sum included
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 3000:
            tJ = int(rng.integers(0, 61))
            tj1 = int(rng.integers(0, 61))
            tj2 = int(rng.integers(abs(tJ - tj1), tJ + tj1 + 1))
            if (tj1 + tj2 + tJ) % 2 or tj2 > 60:
                continue
            tm1 = int(rng.integers(-tj1, tj1 + 1))
            tm2 = int(rng.integers(-tj2, tj2 + 1))
            if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or abs(tm1 + tm2) > tJ:
                continue
            labels = (tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
            checked += 1
            assert cg_twice(*labels) == cg_fraction(*labels), labels

    def test_labels_beyond_the_factorial_table(self):
        # 2j up to 120 needs factorials past the shared table's 127!
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            tj1, tj2 = (int(t) for t in rng.integers(60, 121, size=2))
            tJ = int(rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1))
            tm1, tm2 = int(rng.integers(-tj1, tj1 + 1)), int(rng.integers(-tj2, tj2 + 1))
            if (tj1 + tj2 + tJ) % 2 or (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or abs(tm1 + tm2) > tJ:
                continue
            labels = (tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
            checked += 1
            assert cg_twice(*labels) == cg_fraction(*labels), labels

    def test_orthogonality(self):
        # sum over (m1, m2) at fixed M of C(J) C(J') = delta_JJ'
        for tj1 in range(0, 13, 3):
            for tj2 in range(tj1 % 2, 13, 4):
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tJp in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                        tM = min(tJ, tJp) if min(tJ, tJp) > 0 else 0
                        if (tJ + tM) % 2:
                            tM -= 1
                        acc = 0.0
                        for tm1 in range(-tj1, tj1 + 1, 2):
                            tm2 = tM - tm1
                            if abs(tm2) <= tj2:
                                acc += cg_twice(tj1, tm1, tj2, tm2, tJ, tM) * cg_twice(
                                    tj1, tm1, tj2, tm2, tJp, tM
                                )
                        assert acc == pytest.approx(1.0 if tJ == tJp else 0.0, abs=1e-15)

    def test_exchange_symmetry_with_coupled_label(self):
        # C(j1 m1, j2 m2 | J M) = (-1)^(j1-m1) sqrt((2J+1)/(2j2+1)) C(j1 m1, J -M | j2 -m2)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            tj1, tj2 = rng.integers(0, 13, size=2)
            tJ = rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1)
            if (tj1 + tj2 + tJ) % 2:
                continue
            tm1 = rng.integers(-tj1, tj1 + 1)
            tm2 = rng.integers(-tj2, tj2 + 1)
            if (tj1 + tm1) % 2 or (tj2 + tm2) % 2:
                continue
            tM = tm1 + tm2
            if abs(tM) > tJ:
                continue
            lhs = cg_twice(tj1, tm1, tj2, tm2, tJ, tM)
            rhs = (
                (-1.0) ** ((tj1 - tm1) // 2)
                * math.sqrt((tJ + 1) / (tj2 + 1))
                * cg_twice(tj1, tm1, tJ, -tM, tj2, -tm2)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)
            checked += 1


class TestMultiplicity:
    def test_unique_triplet(self):
        assert multiplicity(2, H(1)) == 1

    @pytest.mark.parametrize("n1,tj1,expected", [(3, 1, 2), (4, 0, 2)])
    def test_small_counts_match_diagonalization(self, n1, tj1, expected):
        assert multiplicity(n1, HalfInt(tj1)) == expected
        assert irrep_multiplicities(n1)[tj1] == expected

    @pytest.mark.parametrize("n1", range(1, 7))
    def test_full_table_matches_diagonalization(self, n1):
        counts = irrep_multiplicities(n1)
        for j1 in j1_values(n1):
            assert multiplicity(n1, j1) == counts[j1.twice]

    @pytest.mark.parametrize("n1", range(1, 13))
    def test_dimension_sum(self, n1):
        total = sum(multiplicity(n1, j1) * (j1.twice + 1) for j1 in j1_values(n1))
        assert total == 2**n1

    def test_parity_mismatch_raises(self):
        with pytest.raises(ValueError):
            multiplicity(3, H(1))


class TestQSet:
    def test_examples(self):
        assert q_set(H(1 / 2), H(1 / 2)) == {H(0), H(1)}
        assert q_set(H(3 / 2), H(1 / 2)) == {H(1)}
        assert q_set(H(2), H(1 / 2)) == set()

    def test_symmetric_and_empty_conditions(self):
        for tj in range(0, 8):
            for tjp in range(0, 8):
                j, jp = HalfInt(tj), HalfInt(tjp)
                assert q_set(j, jp) == q_set(jp, j)
                empty = abs(tj - tjp) > 2 or (tj - tjp) % 2 != 0
                assert (len(q_set(j, jp)) == 0) == empty

    def test_zero_spin_keeps_only_positive_label(self):
        assert q_set(H(0), H(0)) == {H(1 / 2)}

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            q_set(HalfInt(-1), H(0))


class TestEnumerateSectors:
    def test_2_1_variable_list(self):
        sectors = enumerate_sectors(2, 1)
        assert len(sectors) == 7
        as_tuples = {
            (float(s.j1), float(s.j), float(s.jp), float(s.q)) for s in sectors
        }
        assert as_tuples == {
            (0.0, 0.5, 0.5, 0.0),
            (0.0, 0.5, 0.5, 1.0),
            (1.0, 0.5, 0.5, 0.0),
            (1.0, 0.5, 0.5, 1.0),
            (1.0, 1.5, 1.5, 1.0),
            (1.0, 1.5, 1.5, 2.0),
            (1.0, 0.5, 1.5, 1.0),
        }

    def test_1_1_only_j1_half(self):
        sectors = enumerate_sectors(1, 1)
        assert {s.j1 for s in sectors} == {H(1 / 2)}
        assert {(float(s.j), float(s.jp)) for s in sectors} == {(0, 0), (1, 1), (0, 1)}

    def test_order_is_j1_desc_q_asc_j_asc(self):
        sectors = enumerate_sectors(2, 1)
        keys = [(-s.j1.twice, s.q.twice, s.j.twice, s.jp.twice) for s in sectors]
        assert keys == sorted(keys)
        assert sectors[0].j1 == H(1)

    @pytest.mark.parametrize("n1,n2", [(4, 2), (3, 3), (5, 1)])
    def test_count_matches_exhaustive_loop(self, n1, n2):
        # independent enumeration over raw twice-value ranges
        seen = set()
        for tj1 in range(n1 % 2, n1 + 1, 2):
            for tj in range(abs(tj1 - n2), tj1 + n2 + 1, 2):
                for tjp in range(abs(tj1 - n2), tj1 + n2 + 1, 2):
                    if tj > tjp:
                        continue
                    for tq in {tj - 1, tj + 1} & {tjp - 1, tjp + 1}:
                        if tq >= 0:
                            seen.add((tj1, tj, tjp, tq))
        sectors = enumerate_sectors(n1, n2)
        got = {(s.j1.twice, s.j.twice, s.jp.twice, s.q.twice) for s in sectors}
        assert got == seen
        assert len(sectors) == len(seen)

    def test_no_duplicates_and_valid_ranges(self):
        sectors = enumerate_sectors(6, 4)
        assert len(sectors) == len(set(sectors))
        for s in sectors:
            assert s.j <= s.jp
            assert s.q in q_set(s.j, s.jp)
            assert s.j in j_values(s.j1, 4)


class TestSectorBlocks:
    def test_2_1_block_shapes(self):
        blocks = sector_blocks(2, 1)
        dims = sorted(len(rows) for _, _, rows in blocks)
        assert dims == [1, 1, 1, 1, 2]
        two = [b for b in blocks if len(b[2]) == 2]
        (q, j1, rows) = two[0]
        assert (float(q), float(j1)) == (1.0, 1.0)
        assert [float(r) for r in rows] == [0.5, 1.5]

    def test_block_dimension_rule(self):
        for n1, n2 in [(1, 1), (2, 2), (3, 2)]:
            for q, j1, rows in sector_blocks(n1, n2):
                valid = [
                    j
                    for j in j_values(j1, n2)
                    if abs(j.twice - q.twice) == 1
                ]
                assert sorted(valid, key=lambda h: h.twice) == rows
