"""Fixtures for the LAY layering rules, including a synthetic cycle."""

from .helpers import lint_tree, rules_of

LAY = ["LAY001", "LAY002", "LAY003", "LAY004", "LAY005"]


class TestLayerOrder:
    def test_upward_import_is_rejected(self):
        findings = lint_tree(
            {
                "repro.align.kernel": "from ..hw import systolic\n",
                "repro.hw.systolic": "",
            },
            select=LAY,
        )
        assert rules_of(findings) == ["LAY001"]
        assert "align (layer 3) imports hw (layer 6)" in findings[0].message

    def test_downward_and_equal_rank_imports_pass(self):
        findings = lint_tree(
            {
                "repro.lastz.pipeline": (
                    "from ..core.extension import extend_anchors\n"
                    "from ..seed.index import SeedIndex\n"
                ),
                "repro.core.extension": "from ..align import cigar\n",
                "repro.seed.index": "from ..genome import sequence\n",
                "repro.align.cigar": "",
                "repro.genome.sequence": "",
            },
            select=LAY,
        )
        assert findings == []

    def test_deferred_function_level_import_is_allowed(self):
        findings = lint_tree(
            {
                "repro.core.pipeline": (
                    "def make_engine(workers):\n"
                    "    from ..parallel.engine import ExecutionEngine\n"
                    "    return ExecutionEngine(workers)\n"
                ),
                "repro.parallel.engine": "class ExecutionEngine:\n    pass\n",
            },
            select=LAY,
        )
        assert findings == []

    def test_type_checking_import_is_allowed(self):
        findings = lint_tree(
            {
                "repro.core.pipeline": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from ..parallel.engine import ExecutionEngine\n"
                ),
                "repro.parallel.engine": "",
            },
            select=LAY,
        )
        assert findings == []

    # A package __init__ is a table of strings handed to the rank-0
    # resolver, so the package file itself imports nothing upward; the
    # rule must keep biting on the module a table entry names.
    LAZY_INIT = (
        "from .._lazy import lazy_exports\n"
        "__all__, __getattr__, __dir__ = lazy_exports(\n"
        "    __name__, {'Sequence': 'sequence', 'evolve': 'evolution'}\n"
        ")\n"
    )

    def test_lazy_export_table_passes(self):
        findings = lint_tree(
            {
                "repro._lazy": "def lazy_exports(package, table): ...\n",
                "repro.genome.__init__": self.LAZY_INIT,
                "repro.genome.sequence": "",
                "repro.genome.evolution": "from .sequence import Sequence\n",
            },
            select=LAY,
        )
        assert findings == []

    def test_upward_import_in_a_table_target_is_rejected(self):
        findings = lint_tree(
            {
                "repro._lazy": "def lazy_exports(package, table): ...\n",
                "repro.genome.__init__": self.LAZY_INIT,
                "repro.genome.sequence": "",
                "repro.genome.evolution": (
                    "from ..core.pipeline import DarwinWGA\n"
                ),
                "repro.core.pipeline": "",
            },
            select=LAY,
        )
        assert rules_of(findings) == ["LAY001"]
        assert findings[0].path.endswith("genome/evolution.py")
        assert "genome (layer 1) imports core (layer 5)" in findings[0].message

    def test_the_resolver_may_import_nothing_above_it(self):
        findings = lint_tree(
            {
                "repro._lazy": "from .genome.sequence import Sequence\n",
                "repro.genome.sequence": "",
            },
            select=LAY,
        )
        assert rules_of(findings) == ["LAY001"]


class TestImportCycle:
    def test_synthetic_cycle_is_rejected(self):
        findings = lint_tree(
            {
                "repro.core.pipeline": (
                    "from .extension import extend_anchors\n"
                ),
                "repro.core.extension": "from .worker import task\n",
                "repro.core.worker": "from .pipeline import Workload\n",
            },
            select=LAY,
        )
        assert rules_of(findings) == ["LAY002"]
        message = findings[0].message
        for member in (
            "repro.core.pipeline",
            "repro.core.extension",
            "repro.core.worker",
        ):
            assert member in message

    def test_acyclic_chain_passes(self):
        findings = lint_tree(
            {
                "repro.core.pipeline": (
                    "from .extension import extend_anchors\n"
                ),
                "repro.core.extension": "from .worker import task\n",
                "repro.core.worker": "",
            },
            select=LAY,
        )
        assert findings == []


class TestSelfContained:
    def test_obs_importing_genome_is_rejected(self):
        findings = lint_tree(
            {
                "repro.obs.tracer": "from ..genome import sequence\n",
                "repro.genome.sequence": "",
            },
            select=LAY,
        )
        # Upward (obs is rank 0) and self-containment are both violated.
        assert rules_of(findings) == ["LAY001", "LAY003"]

    def test_obs_internal_imports_pass(self):
        findings = lint_tree(
            {
                "repro.obs.__init__": "from .tracer import Tracer\n",
                "repro.obs.tracer": "class Tracer:\n    pass\n",
            },
            select=LAY,
        )
        assert findings == []


class TestCliTopOnly:
    def test_importing_the_cli_is_rejected(self):
        findings = lint_tree(
            {
                "repro.seed.index": "from ..cli import main\n",
                "repro.cli": "def main():\n    return 0\n",
            },
            select=LAY,
        )
        # Upward (cli is the top rank) and top-only are both violated.
        assert rules_of(findings) == ["LAY001", "LAY004"]


class TestUnmappedPackage:
    def test_new_subpackage_must_be_ranked(self):
        findings = lint_tree(
            {"repro.mystery.thing": "x = 1\n"},
            select=LAY,
        )
        assert rules_of(findings) == ["LAY005"]
        assert "repro.mystery" in findings[0].message
