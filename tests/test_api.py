"""Public API: the functions the benchmark's traced run reports on stay
public, since its span recorder wraps only the names in a module's
``__all__`` (``main`` for cli, which has none)."""
import ast
import importlib
import inspect
import pathlib

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
# read by perfbench/run.py outside its CALLS_AND_SELF tuple
OTHER_TRACED = ("optimizer.optimize", "asymptotics.dvo_experiment", "montecarlo.simulate")


def traced_names():
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CALLS_AND_SELF" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("CALLS_AND_SELF not found in perfbench/run.py")


def test_traced_names_are_public_functions():
    names = set(traced_names()) | set(OTHER_TRACED)
    for name in sorted(names):
        layer, attr = name.split(".")
        mod = importlib.import_module(f"pamq.{layer}")
        assert attr in getattr(mod, "__all__", ["main"]), name
        assert inspect.isfunction(getattr(mod, attr)), name
