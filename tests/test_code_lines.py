"""The code line counter behind the workflow's "Code lines" step."""

import code_lines


def test_one_tree_and_two_trees(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "pkg").mkdir(parents=True)
    (old / "pkg" / "a.py").write_text('"""Docstring."""\nx = 1\n# comment\n\ny = 2\n')
    (new / "pkg" / "a.py").write_text("x = 1\n")
    (new / "pkg" / "b.py").write_text('def f():\n    """Docstring."""\n    return 1\n')
    assert code_lines.main([str(new)]) == 0
    assert capsys.readouterr().out == "pkg/a.py=1\npkg/b.py=2\ntotal=3\n"
    # a module that one tree lacks counts 0 there
    assert code_lines.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == "pkg/a.py=2 -> 1\npkg/b.py=0 -> 2\ntotal=2 -> 3 (+1)\n"
    assert code_lines.main([]) == 2
