import pytest

from blockosc.errors import InvalidArgumentError
from blockosc.ordinals import AT_LEAST_OMEGA_OMEGA, OrdinalCNF


class TestConstruction:
    def test_canonical_form_enforced(self):
        with pytest.raises(InvalidArgumentError):
            OrdinalCNF(((2, 1), (2, 1)))  # exponents must strictly decrease
        with pytest.raises(InvalidArgumentError):
            OrdinalCNF(((3, 0),))  # zero coefficient

    def test_omega_power(self):
        assert OrdinalCNF.omega_power(3).terms == ((3, 1),)

    def test_str_forms(self):
        assert str(OrdinalCNF.omega_power(3)) == "w^3"
        assert str(OrdinalCNF(((2, 1), (1, 3)))) == "w^2+w*3"
        assert str(OrdinalCNF()) == "0"
        assert "w^w" in str(AT_LEAST_OMEGA_OMEGA)

