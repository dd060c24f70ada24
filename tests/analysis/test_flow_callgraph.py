"""Call-graph construction: resolution through aliases, methods,
nested defs, package re-exports, and the conservative dispatch union."""

from .helpers import call_graph


def test_plain_module_level_call_resolves():
    graph = call_graph(
        {
            "repro.seed.mod": """
            def helper():
                return 1

            def top():
                return helper()
            """,
        }
    )
    targets = [t for t, _ in graph.callees("repro.seed.mod.top")]
    assert targets == ["repro.seed.mod.helper"]


def test_aliased_import_resolves_across_modules():
    graph = call_graph(
        {
            "repro.seed.producer": """
            def make():
                return 7
            """,
            "repro.seed.consumer": """
            from repro.seed.producer import make as build

            def run():
                return build()
            """,
        }
    )
    targets = [
        t for t, _ in graph.callees("repro.seed.consumer.run")
    ]
    assert targets == ["repro.seed.producer.make"]


def test_module_alias_attribute_call_resolves():
    graph = call_graph(
        {
            "repro.seed.producer": """
            def make():
                return 7
            """,
            "repro.seed.consumer": """
            import repro.seed.producer as prod

            def run():
                return prod.make()
            """,
        }
    )
    targets = [
        t for t, _ in graph.callees("repro.seed.consumer.run")
    ]
    assert targets == ["repro.seed.producer.make"]


def test_init_reexport_is_followed():
    graph = call_graph(
        {
            "repro.seed.__init__": """
            from .dsoft import seed_hits
            """,
            "repro.seed.dsoft": """
            def seed_hits():
                return []
            """,
            "repro.align.caller": """
            from repro.seed import seed_hits

            def run():
                return seed_hits()
            """,
        }
    )
    targets = [t for t, _ in graph.callees("repro.align.caller.run")]
    assert targets == ["repro.seed.dsoft.seed_hits"]


def test_self_method_call_resolves_within_class():
    graph = call_graph(
        {
            "repro.core.cls": """
            class Engine:
                def step(self):
                    return self.helper()

                def helper(self):
                    return 1
            """,
        }
    )
    targets = [
        t for t, _ in graph.callees("repro.core.cls.Engine.step")
    ]
    assert targets == ["repro.core.cls.Engine.helper"]


def test_unknown_receiver_unions_all_methods_of_that_name():
    graph = call_graph(
        {
            "repro.core.a": """
            class A:
                def run(self):
                    return 1
            """,
            "repro.core.b": """
            class B:
                def run(self):
                    return 2
            """,
            "repro.core.use": """
            def call(obj):
                return obj.run()
            """,
        }
    )
    targets = sorted(
        t for t, _ in graph.callees("repro.core.use.call")
    )
    assert targets == ["repro.core.a.A.run", "repro.core.b.B.run"]


def test_nested_def_gets_locals_qualname_and_resolves():
    graph = call_graph(
        {
            "repro.core.nest": """
            def outer():
                def inner():
                    return 3
                return inner()
            """,
        }
    )
    assert (
        "repro.core.nest.outer.<locals>.inner" in graph.functions
    )
    targets = [t for t, _ in graph.callees("repro.core.nest.outer")]
    assert targets == ["repro.core.nest.outer.<locals>.inner"]


def test_external_call_has_no_edge():
    graph = call_graph(
        {
            "repro.core.ext": """
            import time

            def now():
                return time.time()
            """,
        }
    )
    node = graph.functions["repro.core.ext.now"]
    assert [site.targets for site in node.calls] == [()]


def test_nested_scope_shadows_module_level_def():
    graph = call_graph(
        {
            "repro.core.shadow": """
            def helper():
                return "module"

            def outer():
                def helper():
                    return "local"
                return helper()
            """,
        }
    )
    targets = [
        t for t, _ in graph.callees("repro.core.shadow.outer")
    ]
    assert targets == ["repro.core.shadow.outer.<locals>.helper"]
