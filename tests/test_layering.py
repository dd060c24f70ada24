"""Synthetic trees for the layer DAG checker of ``tests/test_layers.py``."""

from .test_layers import layer_violations


def kinds(tree):
    return sorted(kind for kind, _ in layer_violations(tree))


class TestLayerOrder:
    def test_upward_import_is_rejected(self):
        found = layer_violations(
            {
                "repro.align.kernel": "from ..hw import systolic\n",
                "repro.hw.systolic": "",
            }
        )
        assert found == [
            ("upward", "repro.align.kernel imports repro.hw.systolic")
        ]

    def test_downward_and_equal_rank_imports_pass(self):
        tree = {
            "repro.lastz.pipeline": (
                "from ..core.extension import extend_anchors\n"
                "from ..seed.index import SeedIndex\n"
            ),
            "repro.core.extension": "from ..align import cigar\n",
            "repro.seed.index": "from ..genome import sequence\n",
            "repro.align.cigar": "",
            "repro.genome.sequence": "",
        }
        assert kinds(tree) == []

    def test_deferred_function_level_import_is_allowed(self):
        tree = {
            "repro.core.pipeline": (
                "def make_engine(workers):\n"
                "    from ..parallel.engine import ExecutionEngine\n"
                "    return ExecutionEngine(workers)\n"
            ),
            "repro.parallel.engine": "class ExecutionEngine:\n    pass\n",
        }
        assert kinds(tree) == []

    def test_type_checking_import_is_allowed(self):
        tree = {
            "repro.core.pipeline": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from ..parallel.engine import ExecutionEngine\n"
            ),
            "repro.parallel.engine": "",
        }
        assert kinds(tree) == []

    # A package __init__ is a table of strings handed to the rank-0
    # resolver, so the package file itself imports nothing upward; the
    # check must keep biting on the module a table entry names.
    LAZY_INIT = (
        "from .._lazy import lazy_exports\n"
        "__all__, __getattr__, __dir__ = lazy_exports(\n"
        "    __name__, {'Sequence': 'sequence', 'evolve': 'evolution'}\n"
        ")\n"
    )

    def test_lazy_export_table_passes(self):
        tree = {
            "repro._lazy": "def lazy_exports(package, table): ...\n",
            "repro.genome.__init__": self.LAZY_INIT,
            "repro.genome.sequence": "",
            "repro.genome.evolution": "from .sequence import Sequence\n",
        }
        assert kinds(tree) == []

    def test_upward_import_in_a_table_target_is_rejected(self):
        found = layer_violations(
            {
                "repro._lazy": "def lazy_exports(package, table): ...\n",
                "repro.genome.__init__": self.LAZY_INIT,
                "repro.genome.sequence": "",
                "repro.genome.evolution": (
                    "from ..core.pipeline import DarwinWGA\n"
                ),
                "repro.core.pipeline": "",
            }
        )
        assert found == [
            ("upward", "repro.genome.evolution imports repro.core.pipeline")
        ]

    def test_the_resolver_may_import_nothing_above_it(self):
        tree = {
            "repro._lazy": "from .genome.sequence import Sequence\n",
            "repro.genome.sequence": "",
        }
        assert kinds(tree) == ["upward"]


class TestImportCycle:
    def test_synthetic_cycle_is_rejected(self):
        found = layer_violations(
            {
                "repro.core.pipeline": (
                    "from .extension import extend_anchors\n"
                ),
                "repro.core.extension": "from .worker import task\n",
                "repro.core.worker": "from .pipeline import Workload\n",
            }
        )
        assert [kind for kind, _ in found] == ["cycle"]
        for member in ("pipeline", "extension", "worker"):
            assert f"repro.core.{member}" in found[0][1]

    def test_acyclic_chain_passes(self):
        tree = {
            "repro.core.pipeline": "from .extension import extend_anchors\n",
            "repro.core.extension": "from .worker import task\n",
            "repro.core.worker": "",
        }
        assert kinds(tree) == []


class TestSelfContained:
    def test_obs_importing_genome_is_rejected(self):
        tree = {
            "repro.obs.tracer": "from ..genome import sequence\n",
            "repro.genome.sequence": "",
        }
        # Upward (obs is rank 0) and self-containment are both violated.
        assert kinds(tree) == ["self-contained", "upward"]

    def test_obs_internal_imports_pass(self):
        tree = {
            "repro.obs.__init__": "from .tracer import Tracer\n",
            "repro.obs.tracer": "class Tracer:\n    pass\n",
        }
        assert kinds(tree) == []


class TestCliTopOnly:
    def test_importing_the_cli_is_rejected(self):
        tree = {
            "repro.seed.index": "from ..cli import main\n",
            "repro.cli": "def main():\n    return 0\n",
        }
        # Upward (cli is the top rank) and top-only are both violated.
        assert kinds(tree) == ["top-only", "upward"]


class TestUnmappedPackage:
    def test_new_subpackage_must_be_ranked(self):
        found = layer_violations({"repro.mystery.thing": "x = 1\n"})
        assert found == [("unmapped", "repro.mystery has no rank in RANKS")]
