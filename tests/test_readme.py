"""The Python example under "## Library" in README.md runs as written, and
each line whose comment is a value gives that value.

A commented expression is evaluated again; a commented assignment is
checked on the name it binds, a Groebner basis as its generators through
`format_polynomial`, comma separated.
"""

from pathlib import Path

from evalcodes import GroebnerBasis, format_polynomial

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first ```python block after the "## Library" heading."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def shown(value):
    if isinstance(value, GroebnerBasis):
        return ", ".join(format_polynomial(g) for g in value.generators)
    return str(value)


def test_library_example_gives_the_commented_values():
    source = library_example()
    namespace = {}
    exec(source, namespace)
    checked = []
    for line in source.splitlines():
        code, sep, comment = line.partition("#")
        if not sep:
            continue
        target, assign, expr = code.partition(" = ")
        value = namespace[target.strip()] if assign else eval(code, namespace)
        assert shown(value) == comment.strip(), code
        checked.append(shown(value))
    assert checked == [
        "t1^2 - t1, t2^3 - t2, t1*t2^2 - t1*t2",
        "1",
        "2",
        "2",
    ]
