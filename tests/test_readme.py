"""README's library example runs and gives the values its comments state."""

from pathlib import Path

from numsgps import Relation

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under README's "Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_gives_its_commented_values():
    code = library_example()
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    S, fam, rep = scope["S"], scope["fam"], scope["rep"]
    assert "# (43, 22)" in code and (S.frobenius(), S.genus()) == (43, 22)
    assert "# ((3,0,0) = (0,2,0), (1,6,0) = (0,0,3))" in code
    assert scope["minimal_presentation"](S) == (
        Relation((3, 0, 0), (0, 2, 0), 18),
        Relation((1, 6, 0), (0, 0, 3), 60),
    )
    assert "# period 9" in code and fam.period == 9
    assert "n=515 member" in code and rep.n + rep.period == 515
    assert rep.ok
