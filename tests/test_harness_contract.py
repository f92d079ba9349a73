"""The names and call shapes that ``perfbench/`` relies on when it wraps the
package.

Tier-1 never runs the benchmark's tracer or its request timer, so these tests
pin what they assume: every package name the benchmark imports, reads or
patches exists; the tracer replaces ``keyrate.apply_decoy_bounds`` with a
wrapper of exactly two positional parameters; an optimizer search computes its
decoy and coin stages through the two names the tracer wraps; and the optimize
workload times one request from each ``optimizer.expected_counts`` call to the
``optimizer.evaluate_pipeline`` call after it.
"""

import ast
import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from corrbb84 import correlations, keyrate, optimizer
from corrbb84.correlations import CorrelationModel
from corrbb84.simulator import expected_counts
from corrbb84.validation import reference_config


@pytest.mark.parametrize("model", [None, CorrelationModel(0.05, 1.0, 1e-12)],
                         ids=["uncorrelated", "correlated"])
def test_keyrate_calls_apply_decoy_bounds_with_two_positional_arguments(
        monkeypatch, channel_10km, model):
    config = reference_config(10**9)
    if model is not None:
        config = replace(config, epsilon_budget=replace(config.epsilon_budget, d=1e-12))
    observed, _ = expected_counts(config, channel_10km)
    plain = keyrate.evaluate_pipeline(observed, config, model)
    original, calls = keyrate.apply_decoy_bounds, []

    def call(*args, **kwargs):  # the tracer's wrapper accepts (observed, config) only
        calls.append((args, kwargs))
        observed, config = args
        return original(observed, config)

    monkeypatch.setattr(keyrate, "apply_decoy_bounds", call)
    wrapped = keyrate.evaluate_pipeline(observed, config, model)
    assert calls == [((observed, config), {})]
    assert wrapped == plain and wrapped.audit == plain.audit


def test_search_computes_every_stage_through_the_traced_names(monkeypatch, channel_10km):
    """Every decoy and coin entry a correlated search stores is the result of
    one call of ``keyrate.apply_decoy_bounds`` (two positional arguments, as
    the tracer's wrapper takes) or ``correlations.coin_parameter_bound``, so
    the traced optimize metrics see each stage the search computes."""
    decoy_calls, coin_calls, searches = [], [], []
    apply_decoy_bounds = keyrate.apply_decoy_bounds
    coin_parameter_bound = correlations.coin_parameter_bound
    evaluate = optimizer.evaluate_pipeline

    def decoy_call(observed, config):
        decoy_calls.append(apply_decoy_bounds(observed, config))
        return decoy_calls[-1]

    def coin_call(*args):
        coin_calls.append((args, coin_parameter_bound(*args)))
        return coin_calls[-1][1]

    def evaluate_call(*args, stages=None, **kwargs):
        if stages is not None and stages not in searches:
            searches.append(stages)
        return evaluate(*args, stages=stages, **kwargs)

    monkeypatch.setattr(keyrate, "apply_decoy_bounds", decoy_call)
    monkeypatch.setattr(correlations, "coin_parameter_bound", coin_call)
    monkeypatch.setattr(optimizer, "evaluate_pipeline", evaluate_call)
    spec = optimizer.OptimizationSpec(N=10**9, correlation=CorrelationModel(0.05, 1.0, 1e-12),
                                      budget=120)
    outcome = optimizer.optimize_params(spec, channel_10km)
    [search] = searches
    assert outcome.evaluations == 120 and search.evaluations == 120
    # a stage repeats within the search, so some evaluations read a stored entry
    assert 0 < len(search.decoy) < 120 and 0 < len(search.coin) < 120
    # each entry computed once, plus the winner's re-evaluation outside the search
    assert len(decoy_calls) == len(search.decoy) + 1
    assert len(coin_calls) == len(search.coin) + 1
    assert all(any(stored is computed for computed in decoy_calls)
               for stored in search.decoy.values())
    assert all(any(args == key and value is stored for args, value in coin_calls)
               for key, stored in search.coin.items())


@pytest.mark.parametrize("model", [None, CorrelationModel(0.05, 1.0, 1e-12)],
                         ids=["uncorrelated", "correlated"])
def test_optimizer_calls_expected_counts_once_before_each_evaluation(
        monkeypatch, channel_10km, model):
    """Both names are looked up on the optimizer module at call time, and the
    winner's re-evaluation is one more pair than ``evaluations``."""
    log = []

    def logged(name, original):
        def call(*args, **kwargs):
            log.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("expected_counts", "evaluate_pipeline"):
        monkeypatch.setattr(optimizer, name, logged(name, getattr(optimizer, name)))
    spec = optimizer.OptimizationSpec(N=10**9, correlation=model, budget=40)
    outcome = optimizer.optimize_params(spec, channel_10km)
    assert outcome.evaluations == 40
    assert log == ["expected_counts", "evaluate_pipeline"] * (outcome.evaluations + 1)


PERFBENCH = Path(__file__).parents[1] / "perfbench"
# patched names the package no longer has, which the tracer skips; retiring
# them is the benchmark's own change (ROADMAP Direction 5)
STALE_PATCH_TARGETS = {("corrbb84.optimizer", "required_truncation_length")}


def _patch_targets(tree: ast.Module, modules: dict) -> set:
    """(module, attribute) of every ``tracer.patch`` and ``_paced`` call, with
    loops over a tuple of module names or over a module-level tuple of strings
    unrolled, so ``f"check_{check}"`` names each check."""
    constants = {
        node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Tuple)
        and all(isinstance(item, ast.Constant) for item in node.value.elts)
    }
    found = set()

    def text(node, env):
        if isinstance(node, ast.Constant):
            return node.value
        return "".join(part.value if isinstance(part, ast.Constant) else env[part.value.id]
                       for part in node.values)  # an f-string over loop variables

    def visit(node, env):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            if isinstance(node.iter, ast.Tuple):
                values = [getattr(item, "id", getattr(item, "value", None))
                          for item in node.iter.elts]
            else:
                values = constants.get(getattr(node.iter, "id", None))
            if values is not None:
                for value in values:
                    for child in node.body:
                        visit(child, {**env, node.target.id: value})
                return
        if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) == "patch"
                or getattr(node.func, "id", None) == "_paced"):
            module, attr = node.args[:2]
            found.add((modules[env.get(module.id, module.id)], text(attr, env)))
        for child in ast.iter_child_nodes(node):
            visit(child, env)

    visit(tree, {})
    return found


def _package_names_in(path: Path) -> set:
    """(module, name) pairs the file needs from the package: names imported
    from it, attributes read off a package module it imports, and the
    targets it patches."""
    tree = ast.parse(path.read_text())
    modules, needed = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names
                           if alias.name.split(".")[0] == "corrbb84")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("corrbb84"):
            for alias in node.names:
                needed.add((node.module, alias.name))
                full = f"{node.module}.{alias.name}"
                if node.module == "corrbb84" and importlib.util.find_spec(full) is not None:
                    modules[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            needed.add((modules[node.value.id], node.attr))
    return needed | _patch_targets(tree, modules)


def test_every_package_name_the_benchmark_uses_exists():
    """A cleanup that drops a name the benchmark imports (even one the package
    uses only in annotations), reads or patches fails here, where Tier-1 would
    otherwise stay green while every benchmark run fails."""
    needed = set().union(*(_package_names_in(path) for path in PERFBENCH.glob("*.py")))
    assert ("corrbb84.decoy", "CountTriple") in needed
    assert ("corrbb84.validation", "check_coin_domination") in needed
    missing = {(module, name) for module, name in needed
               if not hasattr(importlib.import_module(module), name)}
    assert missing == STALE_PATCH_TARGETS
