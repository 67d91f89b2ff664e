"""The port rule, ``types.valid_port``, against the inline rules it replaced."""

import pytest
from hypothesis import example, given, strategies as st

from launchport.intent import PartialJobSpec
from launchport.types import PORT_MAX, PORT_MIN, valid_port


# The rules valid_port replaced, as they stood inline.
def _old_int_rule(value):
    """PartialJobSpec, extraction, parse_script and template defaults: an int in range."""
    return value if PORT_MIN <= value <= PORT_MAX else None


def _old_set_param_rule(value):
    """The set_param repair: an int, or up to five decimal digits, in range."""
    port = int(value) if isinstance(value, str) and value.isdecimal() and len(value) <= 5 else value
    return port if type(port) is int and PORT_MIN <= port <= PORT_MAX else None


def _old_lint_rule(text):
    """Lint's check on the digits after a port flag, for texts int() converts."""
    return int(text) if PORT_MIN <= int(text) <= PORT_MAX else None


_INTS = (
    st.integers()
    | st.integers(PORT_MIN - 2, PORT_MAX + 2)
    | st.sampled_from([0, 1, PORT_MIN - 1, PORT_MIN, PORT_MAX, PORT_MAX + 1, 10**100])
)
_DIGITS = st.text("0123456789", max_size=8) | st.text(
    st.characters(categories=["Nd"]), max_size=8
)
# Leading zeros in front of a port, a near port or any digits.
_ZEROS = st.builds(
    str.__add__, st.text("0", max_size=4), _DIGITS | st.integers(0, PORT_MAX + 2).map(str)
)
_TEXTS = _DIGITS | _ZEROS | st.text(max_size=6)


@given(_INTS | st.booleans())
def test_ints_and_bools_follow_the_old_rules(value):
    assert valid_port(value) == _old_int_rule(value) == _old_set_param_rule(value)
    if valid_port(value) is None:
        with pytest.raises(ValueError, match=r"master_port must be in \[1024, 65535\]"):
            PartialJobSpec(master_port=value)
    else:
        assert PartialJobSpec(master_port=value).master_port == value


@given(_TEXTS)
@example("٢٩٥٠٠")
@example("01024")
@example("00080")
@example("0029500")
@example("9" * 5000)
def test_texts_follow_the_old_rules(text):
    port = valid_port(text)
    assert port == _old_set_param_rule(text)
    if text.isdecimal() and len(text) <= 5:
        assert port == _old_lint_rule(text)
    else:
        # A longer text is no port, even where leading zeros would bring it
        # into range ("0029500"); lint's old int() read that one as 29500.
        assert port is None


def test_a_port_text_is_read_as_an_int():
    assert PartialJobSpec(master_port="29500").master_port == 29500
    with pytest.raises(ValueError):
        PartialJobSpec(master_port="0029500")
