"""nlbox has no runtime dependencies: every import in the package names
nlbox itself or a module of the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nlbox"


def test_src_imports_only_nlbox_and_stdlib():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "nlbox" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert foreign == []


TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_rebinds() -> dict:
    """The names bench/tracer.py rebinds, by nlbox module: for analysis,
    those in its ENTRY_POINTS and CHILD_CALLS; for every module, each
    ``rebind(module, "name", ...)`` it spells out, and each
    ``rebind(module, attr, ...)`` in a loop ``for attr in ("name", ...)``."""
    names = {"analysis": set(), "games": set(), "strategies": set()}

    def rebinds(node, loop=None):
        """The (module, names) of each rebind call under node; loop is
        (variable, the names it runs over) where node is such a loop."""
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "rebind"
                    and getattr(call.args[0], "id", None) in names):
                continue
            attr = call.args[1]
            if isinstance(attr, ast.Constant):
                yield call.args[0].id, {attr.value}
            elif loop and getattr(attr, "id", None) == loop[0]:
                yield call.args[0].id, set(loop[1])

    tree = ast.parse(TRACER.read_text(), str(TRACER))
    found = list(rebinds(tree))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("ENTRY_POINTS",
                                                             "CHILD_CALLS")):
            names["analysis"].update(v if isinstance(v, str) else v[0]
                                     for v in ast.literal_eval(node.value))
        elif (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
              and isinstance(node.iter, ast.Tuple)):
            found += rebinds(node, (node.target.id, ast.literal_eval(node.iter)))
    for module, attrs in found:
        names[module] |= attrs
    return names


def test_analysis_binds_every_name_the_tracer_rebinds():
    # the benchmark's --trace 1 rebinds these; an import that no code of
    # analysis uses any more must stay, or tracing fails on a missing name
    from nlbox import analysis
    names = tracer_rebinds()["analysis"]
    assert {"verify_winning", "execute", "winning_outcomes", "enumerate_seeds",
            "strategy_from_tables", "is_winning"} <= names
    assert sorted(n for n in names if not hasattr(analysis, n)) == []


def test_games_and_strategies_bind_every_name_the_tracer_rebinds():
    # the registry lookups and the strategy constructors the tracer times
    from nlbox import games, strategies
    names = tracer_rebinds()
    assert {"get_game"} <= names["games"]
    assert {"get_strategy", "enumerate_quadruples", "majority_formula",
            "flatten"} <= names["strategies"]
    assert sorted(n for n in names["games"] if not hasattr(games, n)) == []
    assert sorted(n for n in names["strategies"] if not hasattr(strategies, n)) == []


def engine_imports(module: str) -> set:
    path = SRC / f"{module}.py"
    return {alias.name for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom) and node.module == "engine"
            for alias in node.names}


def test_only_engine_knows_the_lane_layout():
    # analysis runs blocks through engine.LaneGrid; building lanes from
    # columns, turning outcomes into masks and back, and telling a lane
    # from a bit stay inside engine, and a run's inputs are told apart by
    # one rule there, LaneGrid.input_span
    from nlbox import engine
    from nlbox.engine import LaneGrid
    names = engine_imports("analysis")
    assert "LaneGrid" in names
    assert names & {"_build", "_columns", "_spread", "Lane"} == set()
    assert not hasattr(LaneGrid, "by_input")
    # games and strategies test no lane type: their code runs on lanes as
    # on bits, and engine's helpers (equal_bits, index_bits) read a Choice
    for module in ("games", "strategies"):
        assert engine_imports(module) & {"Lane", "Choice", "LaneSeed", "has_lane"} == set()
        assert code_names(module) & {"Lane", "Choice"} == set(), module
    assert not hasattr(engine, "has_lane") and not hasattr(engine, "_LANE_TYPES")


def code_names(module: str) -> set:
    """The names a module's code reads, as a name or an attribute."""
    path = SRC / f"{module}.py"
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Name, ast.Attribute))}


def analysis_call_sites(name: str) -> list:
    """The functions of analysis that call name, as a function or a
    method, once per call."""
    path = SRC / "analysis.py"
    tree = ast.parse(path.read_text(), str(path))
    return [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for call in ast.walk(fn) if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == name]


def test_analysis_executes_at_one_site():
    # every run passes through _runs, where the benchmark's tracer counts
    # it by the name analysis.execute
    assert analysis_call_sites("execute") == ["_runs"]


def test_analysis_runs_a_win_relation_at_two_sites():
    # on lanes in _won, and once per distinct outcome where lanes raise
    # LaneBranch in _decide: the places that can count its calls
    assert analysis_call_sites("win") == ["_won", "_decide"]


def test_src_parses_as_python_3_10():
    # pyproject's requires-python = ">=3.10": no later grammar, such as
    # except* (3.11) or type parameters (3.12)
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
