import itertools
from functools import lru_cache

import pytest

from syncodec.deltrans import DeltransDeskCode
from syncodec.words import Word


@lru_cache(maxsize=None)
def built_desk_code():
    # the cap-5 greedy hash is nearly all of the build's ~0.7 s; build once
    # and share
    return DeltransDeskCode.build(28, 5)


@pytest.fixture(scope="session")
def desk_code():
    return built_desk_code()


def binary_words(n):
    for bits in itertools.product((0, 1), repeat=n):
        yield Word(bits, 2)


def quaternary_words(n):
    for symbols in itertools.product(range(4), repeat=n):
        yield Word(symbols, 4)
