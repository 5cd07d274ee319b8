import numpy as np
import pytest

from levygof.streams import RandomStream


def test_same_key_same_bytes():
    a = RandomStream(123, 7).generator().random(1000)
    b = RandomStream(123, 7).generator().random(1000)
    assert a.tobytes() == b.tobytes()


def test_different_index_different_stream():
    a = RandomStream(123, 0).generator().random(100)
    b = RandomStream(123, 1).generator().random(100)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
def test_invalid_seed_rejected(seed):
    with pytest.raises(ValueError):
        RandomStream(seed)
