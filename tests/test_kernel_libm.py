"""The L0 kernel takes its libm from numpy alone.

A lane of the special-function kernel must get the same bits from the float
driver (interval()) and the array driver (the engine).  This parses
`special.py` with the standard library's `ast` and fails if it names `math`'s
exp, log, log1p or pow, which round differently from numpy's array loops, or
if a kernel step (a function whose first parameter is `xp`) raises to a
computed power with `**`: a float `**` runs the C library's pow, and numpy
squares a scalar base for an exponent of 2 where its array loop does not.
The `**` check finds the kernel steps by that parameter, so every function of
`special.py` that the package calls with SCALAR or VECTOR first must name it
`xp`.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "binomci"
SPECIAL = PACKAGE / "special.py"
FLOAT_LIBM = {"exp", "log", "log1p", "pow"}


def libm_breaches(source: str) -> list[str]:
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "math" and node.attr in FLOAT_LIBM):
            found.add((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.update((node.lineno, f"math.{a.name}") for a in node.names
                         if a.name in FLOAT_LIBM)
        elif isinstance(node, ast.FunctionDef) and node.args.args[:1] and (
                node.args.args[0].arg == "xp"):
            for op in ast.walk(node):
                if isinstance(op, ast.BinOp) and isinstance(op.op, ast.Pow):
                    exponent = op.right
                elif isinstance(op, ast.AugAssign) and isinstance(op.op, ast.Pow):
                    exponent = op.value
                else:
                    continue
                try:
                    ast.literal_eval(exponent)
                except ValueError:
                    found.add((op.lineno, f"** in {node.name}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_kernel_uses_one_libm():
    assert libm_breaches(SPECIAL.read_text()) == []


def test_check_finds_a_float_libm_call():
    source = (
        "import math\nfrom math import log1p, sqrt\n"
        "def seed(xp, a, q):\n"
        "    def tail():\n"
        "        return (a * q) ** (1.0 / a)\n"
        "    return xp.select(q < 0.5, tail, tail) + q ** 2 + q ** -1.5\n"
        "def driver(q):\n"
        "    return math.exp(q) + math.sqrt(q) + q ** (1.0 / q)\n"
    )
    assert libm_breaches(source) == [
        "math.log1p (line 2)", "** in seed (line 5)", "math.exp (line 8)"
    ]


def steps_without_xp(special: str, callers: list[str]) -> list[str]:
    """Functions of `special` that a caller passes SCALAR or VECTOR as the first
    argument, but whose first parameter is not named xp."""
    called = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in ("SCALAR", "VECTOR")):
                called.add(node.func.id)
    return sorted(
        node.name for node in ast.walk(ast.parse(special))
        if isinstance(node, ast.FunctionDef) and node.name in called
        and [p.arg for p in node.args.args[:1]] != ["xp"]
    )


def test_kernel_steps_take_xp_first():
    callers = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert steps_without_xp(SPECIAL.read_text(), callers) == []


def test_check_finds_a_step_without_xp():
    special = (
        "def step(xp, a):\n    return a\n"
        "def recur(ns, a):\n    return a * a\n"
        "def drive(a):\n    return recur(SCALAR, a)\n"
        "def helper(a, ns):\n    return a\n"
    )
    caller = "def loop(a):\n    return step(VECTOR, a) + helper(a, VECTOR) + drive(SCALAR)\n"
    assert steps_without_xp(special, [special, caller]) == ["drive", "recur"]
