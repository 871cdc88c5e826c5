"""The documented top-level API surface stays importable and coherent."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_surface(self):
        # The README quickstart's imports, end to end.
        from repro import BENCHMARKS, Machine, SystemConfig, estimate, get_profile

        assert len(BENCHMARKS) == 15
        profile = get_profile("mcf")
        machine = Machine(SystemConfig(num_cores=1), scheme="pom",
                          thp_large_fraction=profile.thp_large_fraction)
        workload = profile.build(num_cores=1, refs_per_core=100,
                                 seed=1, scale=0.02)
        result = machine.run(workload.streams,
                             warmup_references=workload.warmup_by_core)
        perf = estimate(profile.anchor(), result.l2_tlb_misses,
                        result.penalty_cycles)
        assert perf.speedup > 0

    def test_scheme_registry_names(self):
        from repro.core import SCHEMES
        assert set(SCHEMES) == {"baseline", "pom", "pom_skewed",
                                "shared_l2", "tsb"}


#: keyword arguments that only exist from Python 3.10 on
_PY310_KEYWORDS = {"dataclass": {"slots", "kw_only", "match_args"},
                   "zip": {"strict"}}


def test_sources_stay_within_the_declared_minimum_python():
    # pyproject declares requires-python >= 3.9, while CI runs a newer
    # interpreter; a 3.10-only construct would only fail on import on 3.9.
    import ast
    import pathlib
    import re

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    declared = re.search(r'requires-python\s*=\s*">=3\.(\d+)"',
                         (root / "pyproject.toml").read_text())
    assert declared and int(declared.group(1)) == 9
    offenders = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path), feature_version=(3, 9))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            for keyword in node.keywords:
                if keyword.arg in _PY310_KEYWORDS.get(name, ()):
                    offenders.append(f"{path.name}:{node.lineno} "
                                     f"{name}({keyword.arg}=)")
    assert offenders == []
