"""The line-reach plugin's account of which lines a function body holds."""

import reach

SOURCE = '''\
"""Module docstring."""
LIMIT = [n for n in range(3)]


def f(x):
    """Docstring."""
    if x:
        return [y for y in x
                if y]
    return None


class Shape:
    SIDES = 4

    def area(self) -> int: ...

    @property
    def name(self):
        return "shape"
'''


def test_function_body_lines_not_hit_are_listed(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE, "utf-8")
    # Module and class bodies, docstrings and the stub compile to no function line.
    everything = [(7, "f"), (8, "f"), (9, "f.<locals>.<listcomp>"), (10, "f"),
                  (20, "Shape.name")]
    assert reach.unreached(path, set()) == everything
    assert reach.unreached(path, {7, 8, 9, 10, 20}) == []
    assert reach.unreached(path, {7, 10}) == [entry for entry in everything
                                              if entry[0] not in (7, 10)]
