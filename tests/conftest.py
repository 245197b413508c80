import pytest

from chaincodes import Ambient, Poly, ring_construct


@pytest.fixture(scope="session")
def z4():
    return ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 1})


@pytest.fixture(scope="session")
def z9():
    return ring_construct({"kind": "galois", "p": 3, "t": 2, "l": 1})


@pytest.fixture(scope="session")
def gr42():
    return ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 2})


@pytest.fixture(scope="session")
def f3u2():
    return ring_construct({"kind": "truncated", "p": 3, "t": 2, "l": 1})


@pytest.fixture(scope="session")
def amb_x7(z4):
    """Z4[x]/(x^7 - 1)."""
    return Ambient(z4, [Poly.from_ints(z4, [-1, 0, 0, 0, 0, 0, 0, 1])])


@pytest.fixture(scope="session")
def amb_x3(z4):
    """Z4[x]/(x^3 - 1)."""
    return Ambient(z4, [Poly.from_ints(z4, [-1, 0, 0, 1])])


@pytest.fixture(scope="session")
def amb_x3y3(z4):
    """Z4[X,Y]/(X^3 - 1, Y^3 - 1)."""
    return Ambient(
        z4,
        [Poly.from_ints(z4, [-1, 0, 0, 1], var=0), Poly.from_ints(z4, [-1, 0, 0, 1], var=1)],
    )


@pytest.fixture(scope="session")
def amb_z9(z9):
    """Z9[X,Y]/(X^2 - 1, Y^2 - 1)."""
    return Ambient(
        z9,
        [Poly.from_ints(z9, [-1, 0, 1], var=0), Poly.from_ints(z9, [-1, 0, 1], var=1)],
    )


@pytest.fixture(scope="session")
def orbit_length():
    """Length of the q-power orbit of a single root (the degree d_i), the
    reference that the class sizes are checked against."""

    def orbit_length(label, e_or_field, q):
        if isinstance(label, int):
            e = e_or_field
            d = 1
            cur = (label * q) % e
            while cur != label:
                cur = (cur * q) % e
                d += 1
            return d
        d = 1
        cur = label**q
        while cur != label:
            cur = cur**q
            d += 1
        return d

    return orbit_length
