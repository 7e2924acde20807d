"""The counting window search against an explicit per-start loop.

``find_window`` counts every start's in-window faults in one pass and
asks ``can_correct`` only for starts whose count lies between the
scheme's ``deterministic_capability`` and its ``fault_ceiling``.  These
tests pin it to the plain search -- rebase the faults at each start, ask
the scheme -- and check that each ceiling is sound and tight.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import faults_in_window, find_window
from repro.core.window import LINE_BYTES
from repro.correction import SECDED, aegis17x31, ecp6, safer32

SCHEMES = {
    "ecp6": ecp6(),
    "safer32": safer32(),
    "aegis17x31": aegis17x31(),
    "secded": SECDED(),
}

#: A fault set ``fault_ceiling`` large that the scheme corrects, so the
#: ceiling cannot be set one lower.
TIGHT = {
    "ecp6": [0, 100, 200, 300, 400, 500],
    "safer32": list(range(32)),  # distinct low five index bits
    "aegis17x31": list(range(31)),  # one grid row: distinct columns
    "secded": list(range(0, 512, 64)),  # one fault per code word
}


def per_start_search(faults, size, scheme, hint):
    """``find_window``'s contract, one start at a time."""
    if faults.size <= scheme.deterministic_capability:
        return hint
    if size == LINE_BYTES:
        starts = [0]  # a full-line window sees every fault at any start
    else:
        starts = [(hint + step) % LINE_BYTES for step in range(LINE_BYTES)]
    for start in starts:
        if scheme.can_correct(faults_in_window(faults, start, size)):
            return start
    return None


def _run(low, length):
    return [(low + offset) % 512 for offset in range(length)]


def _stride(offset, stride, count):
    return [(offset + stride * index) % 512 for index in range(count)]


# Uniform sets rarely put a ceiling's worth of faults in a correctable
# pattern; runs (SAFER, Aegis) and strides of a code word (SECDED) do.
STRIDES = st.sampled_from((8, 17, 31, 64))
fault_sets = st.one_of(
    st.lists(st.integers(0, 511), max_size=80, unique=True),
    st.builds(_run, st.integers(0, 511), st.integers(0, 80)),
    st.builds(_stride, st.integers(0, 511), STRIDES, st.integers(0, 80)),
).map(lambda faults: np.unique(np.asarray(faults, dtype=np.int64)))


def _tight_examples(test):
    """Each tight set alone in a full-line window and in a sub-line one."""
    for faults in TIGHT.values():
        faults = np.asarray(faults, dtype=np.int64)
        test = example(faults=faults, size=LINE_BYTES, hint=0)(test)
        test = example(faults=faults, size=int(faults[-1]) // 8 + 1, hint=0)(test)
    return test


@pytest.mark.parametrize("name", sorted(SCHEMES))
@settings(max_examples=150, deadline=None)
@given(
    faults=fault_sets,
    size=st.integers(1, LINE_BYTES),
    hint=st.integers(0, LINE_BYTES - 1),
)
@_tight_examples
def test_find_window_matches_per_start_loop(name, faults, size, hint):
    scheme = SCHEMES[name]
    assert find_window(faults, size, scheme, start_hint=hint) == per_start_search(
        faults, size, scheme, hint
    )


@pytest.mark.parametrize("name", sorted(SCHEMES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ceiling_is_sound(name, data):
    """``can_correct`` rejects every set one larger than the ceiling."""
    scheme = SCHEMES[name]
    size = scheme.fault_ceiling + 1
    faults = data.draw(
        st.one_of(
            st.lists(
                st.integers(0, 511), min_size=size, max_size=size, unique=True
            ),
            st.builds(_run, st.integers(0, 511), st.just(size)),
            st.builds(_stride, st.integers(0, 511), STRIDES, st.just(size)),
        ).filter(lambda faults: len(set(faults)) == size)
    )
    assert not scheme.can_correct(faults)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_ceiling_is_tight(name):
    """Some set of exactly ``fault_ceiling`` faults is correctable."""
    scheme = SCHEMES[name]
    assert len(TIGHT[name]) == scheme.fault_ceiling
    assert scheme.can_correct(TIGHT[name])
