import importlib
import inspect
import pkgutil

import pytest

import aldkit

MODULES = ["aldkit"] + [
    f"aldkit.{info.name}" for info in pkgutil.iter_modules(aldkit.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A removed definition must not leave its name behind in __all__.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_root_exports_are_the_module_lists():
    # each public name is listed by exactly one module and re-exported
    # from the package root as that module's object
    owners = {}
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            assert export not in owners, (export, owners.get(export), name)
            owners[export] = module
    assert sorted(aldkit.__all__) == sorted(owners)
    for export in aldkit.__all__:
        assert getattr(aldkit, export) is getattr(owners[export], export)


def test_benchmark_call_surface():
    # benchmark/workloads.py and benchmark/tracing.py (not collected here)
    # call these keywords and call or wrap these module attributes by name.
    from aldkit import cli, codes, core, delsarte, hyperbound, lp, search_verify

    assert "budget_secs" in inspect.signature(delsarte.delsarte_bound).parameters
    assert "on_step" in inspect.signature(lp.solve_lp).parameters
    wrapped = {
        cli: ["lp_hypergraph_bound", "naive_weight_bound", "simple_bound",
              "weights1_bound", "main"],
        hyperbound: ["lp_hypergraph_bound", "class_matrix", "ball_size", "solve_lp"],
        delsarte: ["delsarte_bound", "coefficient_column", "solve_lp"],
        search_verify: ["exact_max_code", "distance_graph", "min_distance",
                        "symbol_distance_table"],
        codes: ["build_cl", "build_cp", "best_cn_coset", "decode_cl",
                "OddPrimeField", "DetectionFlag"],
        core: ["ald_distance", "PairedWord"],
    }
    missing = [f"{module.__name__}.{attr}" for module, attrs in wrapped.items()
               for attr in attrs if not callable(getattr(module, attr, None))]
    assert missing == []
