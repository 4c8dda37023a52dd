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


def tracer_rebinds() -> set:
    """The names of nlbox.analysis that bench/tracer.py rebinds: those in
    its ENTRY_POINTS and CHILD_CALLS, and each ``rebind(analysis, "name",
    ...)`` it spells out."""
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text(), str(TRACER))):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("ENTRY_POINTS",
                                                             "CHILD_CALLS")):
            names.update(v if isinstance(v, str) else v[0]
                         for v in ast.literal_eval(node.value))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "rebind"
              and getattr(node.args[0], "id", None) == "analysis"
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def test_analysis_binds_every_name_the_tracer_rebinds():
    # the benchmark's --trace 1 rebinds these; an import that no code of
    # analysis uses any more must stay, or tracing fails on a missing name
    from nlbox import analysis
    names = tracer_rebinds()
    assert {"verify_winning", "execute", "winning_outcomes", "enumerate_seeds",
            "strategy_from_tables"} <= names
    assert sorted(n for n in names if not hasattr(analysis, n)) == []


def test_only_engine_knows_the_lane_layout():
    # analysis runs blocks through engine.LaneGrid; building lanes from
    # columns stays inside engine
    path = SRC / "analysis.py"
    names = {alias.name for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and node.module == "engine"
             for alias in node.names}
    assert "LaneGrid" in names
    assert names & {"_build", "_columns", "_spread"} == set()
