import numpy as np
import pytest

import uqsub
from uqsub import closed_forms
from uqsub.closed_forms import (
    default_p_grid,
    dn_fidelity,
    f21_exact,
    f2inf,
    mp_upper,
)
from uqsub.objective import assemble, build_objective
from uqsub.sdp import solve

# interior values frozen from the golden-section oracle at 1e-10 step tolerance
F2INF_REGRESSION = {
    0.1: 0.9608320024722984,
    0.25: 0.9069815389042984,
    0.5: 0.8083935597742791,
    0.75: 0.6766907566304742,
    0.9: 0.5764872349134298,
}

# f2inf on default_p_grid() from the earlier golden-section solve (tol 1e-10);
# solved to round-off, f2inf must stay within 1e-15 of each
F2INF_GRID_FROZEN = [
    1.0, 0.9958621201288309, 0.9917802562524415, 0.987751989347115,
    0.9837747962710096, 0.9798460580515844, 0.9759630689252592, 0.972123045987936,
    0.9683231393058105, 0.964560442331646, 0.9608320024722984, 0.9571348316583899,
    0.9534659167761168, 0.949822229833549, 0.946200737748635, 0.9425984116626891,
    0.9390122357005869, 0.9354392151165147, 0.9318763837812829, 0.9283208109833916,
    0.9247696075308491, 0.9212199311538958, 0.9176689912201514, 0.9141140527831917,
    0.9105524399932061, 0.9069815389042984, 0.903398799717259, 0.8998017384994788,
    0.8961879384252345, 0.892555050580065, 0.8889007943725489, 0.8852229575956788,
    0.881519396178349, 0.8777880336653857, 0.8740268604621808, 0.8702339328774269,
    0.8664073719948184, 0.862545362401912, 0.8586461508017117, 0.8547080445300053,
    0.8507294099990365, 0.8467086710858072, 0.8426443074811514, 0.8385348530137383,
    0.8343788939613277, 0.8301750673599394, 0.8259220593200767, 0.8216186033577899,
    0.8172634787471351, 0.8128555088994975, 0.8083935597742791, 0.8038765383245972,
    0.7993033909808878, 0.7946731021746518, 0.7899846929040102, 0.7852372193422359,
    0.7804297714900102, 0.7755614718717752, 0.7706314742762532, 0.7656389625409343,
    0.7605831493801138, 0.755463275255876, 0.7502786072912779, 0.7450284382248515,
    0.7397120854054562, 0.7343288898264317, 0.7288782151979485, 0.723359447056403,
    0.7177719919096891, 0.7121152764171501, 0.7063887466030155, 0.7005918671021272,
    0.6947241204367662, 0.6887850063234112, 0.6827740410082728, 0.6766907566304742,
    0.6705347006117787, 0.6643054350717816, 0.6580025362675297, 0.6516255940565492,
    0.6451742113823051, 0.6386480037811447, 0.6320465989098079, 0.6253696360926277,
    0.6186167658875723, 0.6117876496703111, 0.6048819592355267, 0.597899376414719,
    0.5908395927097809, 0.5837023089416582, 0.5764872349134298, 0.5691940890871778,
    0.561822598274041, 0.5543724973368732, 0.5468435289049529, 0.5392354431002159,
    0.531547997274505, 0.5237809557573542, 0.5159340896138467, 0.5080071764121058,
    0.5,
]


class TestDn:
    def test_values(self):
        assert dn_fidelity(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            dn_fidelity(1.5)


class TestF21:
    def test_endpoints(self):
        assert f21_exact(0.0) == pytest.approx(1.0, abs=1e-14)
        assert f21_exact(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_first_branch_value(self):
        assert f21_exact(0.25) == pytest.approx(0.8884803921568627, abs=1e-12)

    def test_branch_continuity(self):
        knot = 3 / 8
        for eps in (1e-6, 1e-8, 1e-10):
            left = f21_exact(knot - eps)
            right = f21_exact(knot + eps)
            assert abs(left - right) <= 10 * eps

    def test_both_branch_expressions_agree_at_knot(self):
        p = 3 / 8
        first = (1 - p) * (51 + 23 * p) / 54 + (1 - p) * (3 + p) ** 2 / (27 * (6 - 7 * p)) + p * p / 2
        second = (1 - p) * (51 + 23 * p) / 54 + p * (1 - p) / 3 + p * p / 2
        assert first == pytest.approx(second, abs=1e-12)


class TestMpUpper:
    def test_n1_2_reduces_to_quadratic(self):
        for p in np.linspace(0, 1, 21):
            assert mp_upper(p, 2) == pytest.approx((9 - 2 * p - p * p) / 12, abs=1e-12)

    def test_values(self):
        assert mp_upper(0.0, 2) == pytest.approx(0.75, abs=1e-14)
        assert mp_upper(1.0, 7) == pytest.approx(0.5, abs=1e-14)
        assert mp_upper(0.5, 2) == pytest.approx(7.75 / 12, abs=1e-14)


class TestCemAndSingleCopy:
    """The single-mixture-copy optimum F(1, n2) and the symmetric-measurement
    protocol both give 1 - p/2, which has one name, `dn_fidelity`."""

    def test_one_name_for_one_minus_half_p(self):
        for p in np.linspace(0, 1, 21):
            assert dn_fidelity(p) == 1.0 - p / 2.0
        for name in ("f1n2", "cem_fidelity"):
            assert not hasattr(closed_forms, name) and not hasattr(uqsub, name)
            assert name not in uqsub.__all__

    def test_f1n2(self):
        assert dn_fidelity(0.2) == pytest.approx(0.9, abs=1e-15)
        assert dn_fidelity(0.0) == 1.0
        assert dn_fidelity(1.0) == 0.5
        for n2 in (1, 2, 5):
            table = build_objective(1, n2)
            for p in (0.2, 0.5, 0.9):
                value = solve(assemble(table, p)).objective_value
                assert value == pytest.approx(dn_fidelity(p), abs=1e-12), (n2, p)


class TestF2Inf:
    def test_endpoints(self):
        assert f2inf(0.0) == pytest.approx(1.0, abs=1e-9)
        assert f2inf(1.0) == pytest.approx(0.5, abs=1e-9)

    def test_frozen_interior_values(self):
        for p, expected in F2INF_REGRESSION.items():
            assert f2inf(p) == pytest.approx(expected, abs=1e-9)

    def test_frozen_grid(self):
        for p, expected in zip(default_p_grid(), F2INF_GRID_FROZEN):
            assert abs(f2inf(p) - expected) <= 1e-15, p

    def test_dominates_finite_noise_copies(self):
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert f21_exact(p) <= f2inf(p) + 1e-9


class TestF2InfAgainstCovariant:
    """F(2, n2) from the covariant SDP rises to f2inf as n2 grows, with an
    expansion in 1/n2. The degree-4 polynomial through n2 = 18..22, taken at
    1/n2 = 0, lands within 1.5e-7 of f2inf (worst at p = 0.5), below it."""

    PS = (0.05, 0.2, 0.375, 0.5, 0.8, 0.95)

    @pytest.fixture(scope="class")
    def f2(self):
        tables = {n2: build_objective(2, n2) for n2 in range(1, 23)}
        return {(n2, p): solve(assemble(table, p)).objective_value
                for n2, table in tables.items() for p in self.PS}

    @pytest.mark.parametrize("p", PS)
    def test_extrapolation_to_infinite_noise_copies(self, f2, p):
        n2s = np.arange(18, 23)
        coef = np.polyfit(1.0 / n2s, [f2[(n2, p)] for n2 in n2s], 4)
        assert abs(np.polyval(coef, 0.0) - f2inf(p)) <= 5e-7

    @pytest.mark.parametrize("p", PS)
    def test_finite_noise_copies_stay_below(self, f2, p):
        for n2 in range(1, 23):
            assert f2[(n2, p)] <= f2inf(p) + 1e-12, n2


class TestOrderings:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.4, 0.6, 0.8, 0.95])
    def test_interior_orderings(self, p):
        assert mp_upper(p, 2) < dn_fidelity(p)
        assert f21_exact(p) > dn_fidelity(p)
        assert f21_exact(p) <= f2inf(p) + 1e-9

    def test_all_curves_within_unit_interval(self):
        curves = (dn_fidelity, f21_exact, lambda p: mp_upper(p, 2), f2inf)
        values = [curve(p) for curve in curves for p in default_p_grid()]
        assert len(values) == len(curves) * 101
        for value in values:
            assert -1e-12 <= value <= 1 + 1e-12


class TestCurveGrid:
    def test_default_grid(self):
        grid = default_p_grid()
        assert len(grid) == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0
