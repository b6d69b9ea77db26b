"""What the scalar ``contains``, ``decode``, ``delta`` and ``phi`` of the
finite label spaces do with values that are not plain member ints.

Pinned as they behave today, so a faster scalar path keeps every answer and
every ContractViolation: bools are not members (though ``delta`` reads one
paired with an int as that int), numpy integers are members for everything
but ``decode``, which takes only JSON's ints, and floats, strings, nested
lists, negatives and non-member ints are rejected.
"""

import numpy as np
import pytest

from semistruct import ContractViolation, MulticlassSpace, TaxonomySpace, three_level_taxonomy

CV = ContractViolation
X = np.array([1.0, 2.0])

# value, contains, decode, delta(value, first label), the label whose phi it has
MULTICLASS = [
    (True, False, CV, 1.0, CV),
    (False, False, CV, 0.0, CV),
    (np.int64(1), True, CV, 1.0, 1),
    (np.int8(1), True, CV, 1.0, 1),
    (2, True, 2, 1.0, 2),
    (3.0, False, CV, CV, CV),
    (-1, False, CV, CV, CV),
    (3, False, CV, CV, CV),
    (10**30, False, CV, CV, CV),
    ([1], False, CV, CV, CV),
    ([[1]], False, CV, CV, CV),
    ("a", False, CV, CV, CV),
    ("1", False, CV, CV, CV),
]
TAXONOMY = [  # leaves 4 .. 18; 0 is the root, 1 .. 3 the branches
    (True, False, CV, CV, CV),
    (False, False, CV, CV, CV),
    (np.int64(4), True, CV, 0.0, 4),
    (np.int8(4), True, CV, 0.0, 4),
    (np.int64(1), False, CV, CV, CV),
    (7, True, 7, 1.0, 7),
    (4.0, False, CV, CV, CV),
    (-1, False, CV, CV, CV),
    (2, False, CV, CV, CV),
    (19, False, CV, CV, CV),
    ([4], False, CV, CV, CV),
    ([[4]], False, CV, CV, CV),
    ("a", False, CV, CV, CV),
    ("4", False, CV, CV, CV),
]


def _cases():
    spaces = {"multiclass": MulticlassSpace(3, 2),
              "taxonomy": TaxonomySpace(three_level_taxonomy(), 2)}
    for kind, table in (("multiclass", MULTICLASS), ("taxonomy", TAXONOMY)):
        for row in table:
            yield pytest.param(spaces[kind], *row, id=f"{kind}-{row[0]!r}")


@pytest.mark.parametrize("space, value, contains, decode, delta, phi_as", _cases())
def test_scalar_semantics_are_pinned(space, value, contains, decode, delta, phi_as):
    assert space.contains(value) is contains
    first = space.labels[0]
    for method, args, want in ((space.decode, (value,), decode),
                               (space.delta, (value, first), delta)):
        if want is CV:
            with pytest.raises(ContractViolation):
                method(*args)
        else:
            got = method(*args)
            assert got == want and type(got) is type(want)
    if phi_as is CV:
        with pytest.raises(ContractViolation):
            space.phi(X, value)
    else:
        assert np.array_equal(space.phi(X, value), space.phi(X, phi_as))
