from code_lines import code_lines, docstring_lines

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


def f(x):
    """Function docstring."""
    total = (x
             + 1)
    return total


class C:
    """Class docstring."""

    text = """a string that is not a docstring,
    on two lines"""
'''


def test_docstrings_are_the_module_class_and_function_ones():
    assert docstring_lines(SNIPPET) == {1, 2, 10, 17}


def test_counts_statement_lines_only():
    # import, def, the two lines of the assignment, return, class and the
    # two lines of the string assignment.
    assert code_lines(SNIPPET) == 8
