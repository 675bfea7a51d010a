"""Public-API contract: exports resolve, are documented, and stay stable."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.alerting",
    "repro.core",
    "repro.tsdb",
    "repro.hbase",
    "repro.lifecycle",
    "repro.cluster",
    "repro.sparklet",
    "repro.simdata",
    "repro.serve",
    "repro.viz",
    "repro.bench",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} must declare __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} in __all__ but missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_sorted(self, package):
        module = importlib.import_module(package)
        exported = list(module.__all__)
        assert exported == sorted(exported), f"{package}.__all__ not sorted"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_public_classes_documented(self):
        """Every exported class/function carries a docstring."""
        undocumented = []
        for package in PACKAGES:
            module = importlib.import_module(package)
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        undocumented.append(f"{package}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_top_level_surface_snapshot(self):
        """The exact top-level API; update deliberately when it changes."""
        import repro

        assert list(repro.__all__) == [
            "AlertManager",
            "AlertStore",
            "AlertingConfig",
            "AnomalyEvent",
            "AnomalyPipeline",
            "AnomalyReport",
            "AsyncQueryExecutor",
            "BatchPublisher",
            "BlockBatch",
            "BlockStore",
            "ClusterConfig",
            "CusumChart",
            "Dashboard",
            "DataPoint",
            "EwmaChart",
            "FDRDetector",
            "FDRDetectorConfig",
            "FaultKind",
            "FaultSpec",
            "FleetAnalytics",
            "FleetConfig",
            "FleetEvaluationEngine",
            "FleetGenerator",
            "FleetWorkload",
            "GatewayConfig",
            "Incident",
            "IncidentState",
            "IncrementalMoments",
            "IngestionDriver",
            "OfflineTrainer",
            "OnlineEvaluator",
            "PipelineResult",
            "PublishReport",
            "QueryEngine",
            "QueryGateway",
            "QueryRejected",
            "ReverseProxy",
            "SeriesBlock",
            "ShewhartChart",
            "SparkletContext",
            "StreamingContext",
            "StreamingDetectionReport",
            "StreamingDetector",
            "StreamingTrainer",
            "TrainingResult",
            "TsdbCluster",
            "TsdbQuery",
            "UnitEvaluation",
            "UnitModel",
            "WorkloadConfig",
            "WorkloadReport",
            "__version__",
            "aggregate_outcomes",
            "benjamini_hochberg",
            "blocks_from_points",
            "bonferroni",
            "build_cluster",
            "evaluate_flags",
            "family_wise_error_probability",
            "parse_block",
        ]

    def test_new_engine_exports(self):
        from repro import (  # noqa: F401
            BatchPublisher,
            FleetEvaluationEngine,
            PublishReport,
            UnitEvaluation,
        )
        from repro.core import step_up_sparse  # noqa: F401

    def test_storage_boundary_surface_snapshot(self):
        """What crosses the storage boundary, and the places a single
        cell survives (DESIGN §20); update deliberately."""
        import repro.hbase
        from repro.hbase import region

        assert [name for name in repro.hbase.__all__ if name in region.__all__] == [
            "Cell",
            "CellBatch",
            "EMPTY_BATCH",
            "Region",
            "RegionInfo",
            "StoreFile",
            "merge_newest",
        ]

    def test_key_entry_points_importable_from_top_level(self):
        from repro import (  # noqa: F401
            AnomalyPipeline,
            Dashboard,
            FDRDetector,
            FleetGenerator,
            IngestionDriver,
            OnlineEvaluator,
            SparkletContext,
            build_cluster,
        )


class TestModuleDocstrings:
    def test_every_source_module_has_a_docstring(self):
        from pathlib import Path

        src = Path(__file__).parent.parent / "src" / "repro"
        missing = []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text().lstrip()
            if not text:
                continue
            if not text.startswith('"""'):
                missing.append(str(path.relative_to(src)))
        assert not missing, f"modules without docstrings: {missing}"
