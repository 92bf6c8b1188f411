"""Rule-by-rule fixtures for the REPRO contract linter, plus the repo-wide
"lint is clean" meta-test and the CLI's exit-code contract."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import lint_paths, lint_source, rule_catalogue
from repro.analysis.contracts import RULES
from repro.qx.stabilizer import StabilizerState
from repro.qx.statevector import StateVector

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"


def codes(violations):
    return [v.rule for v in violations]


# ---------------------------------------------------------------------- #
# REPRO001 — rng provenance
# ---------------------------------------------------------------------- #
class TestRngProvenance:
    def test_legacy_np_random_api_flagged(self):
        source = "import numpy as np\nx = np.random.random(4)\n"
        assert codes(lint_source(source, "src/repro/qx/engine.py")) == ["REPRO001"]

    def test_legacy_seed_call_flagged(self):
        source = "import numpy as np\nnp.random.seed(3)\n"
        assert codes(lint_source(source, "src/repro/core/mod.py")) == ["REPRO001"]

    def test_bare_default_rng_without_rng_param_flagged(self):
        source = (
            "import numpy as np\n"
            "def draw():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.random()\n"
        )
        assert codes(lint_source(source, "src/repro/qx/engine.py")) == ["REPRO001"]

    def test_none_fallback_with_rng_param_allowed(self):
        source = (
            "import numpy as np\n"
            "def __init__(self, rng=None):\n"
            "    self.rng = rng if rng is not None else np.random.default_rng()\n"
        )
        assert lint_source(source, "src/repro/qx/engine.py") == []

    def test_raw_seed_param_flagged(self):
        source = (
            "import numpy as np\n"
            "def build(seed: int | None = None):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert codes(lint_source(source, "src/repro/annealing/solver.py")) == ["REPRO001"]

    def test_seed_sequence_annotation_allowed(self):
        source = (
            "import numpy as np\n"
            "def build(seed: int | np.random.SeedSequence | None = None):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert lint_source(source, "src/repro/annealing/solver.py") == []

    def test_injected_rng_param_allowed(self):
        source = (
            "import numpy as np\n"
            "def build(seed=None, rng=None):\n"
            "    return rng if rng is not None else np.random.default_rng(seed)\n"
        )
        assert lint_source(source, "src/repro/annealing/solver.py") == []

    def test_derived_expression_allowed(self):
        source = (
            "import numpy as np\n"
            "def run(task):\n"
            "    return np.random.default_rng(shard_seed(task.seed, task.point, task.shard))\n"
        )
        assert lint_source(source, "src/repro/runtime/worker.py") == []

    def test_modern_constructors_allowed(self):
        source = (
            "import numpy as np\n"
            "seq = np.random.SeedSequence(5)\n"
            "gen = np.random.Generator(np.random.PCG64(seq))\n"
        )
        assert lint_source(source, "src/repro/qx/engine.py") == []


# ---------------------------------------------------------------------- #
# REPRO002 — one-draw measurement contract
# ---------------------------------------------------------------------- #
class TestCoinFlips:
    @pytest.mark.parametrize(
        "call",
        ["rng.integers(2)", "rng.integers(0, 2)", "rng.integers(low=0, high=2)"],
    )
    def test_binary_integer_draw_flagged_in_engines(self, call):
        source = f"def measure(rng):\n    return {call}\n"
        assert codes(lint_source(source, "src/repro/qx/engine.py")) == ["REPRO002"]
        assert codes(lint_source(source, "src/repro/qec/frame.py")) == ["REPRO002"]

    def test_probability_comparison_allowed(self):
        source = "def measure(rng, p):\n    return int(rng.random() < p)\n"
        assert lint_source(source, "src/repro/qx/engine.py") == []

    def test_non_binary_integers_allowed(self):
        source = "def pick(rng, n):\n    return rng.integers(n)\n"
        assert lint_source(source, "src/repro/qx/engine.py") == []

    def test_out_of_scope_module_not_flagged(self):
        source = "def flip(rng):\n    return rng.integers(2)\n"
        assert lint_source(source, "src/repro/annealing/solver.py") == []


# ---------------------------------------------------------------------- #
# REPRO003 — single keying module
# ---------------------------------------------------------------------- #
class TestKeying:
    def test_local_key_builder_flagged(self):
        source = 'def key(bits):\n    return "".join(str(b) for b in bits)\n'
        assert codes(lint_source(source, "src/repro/qx/engine.py")) == ["REPRO003"]
        assert codes(lint_source(source, "src/repro/runtime/merge.py")) == ["REPRO003"]

    def test_keying_module_itself_exempt(self):
        source = 'def key(bits):\n    return "".join(str(b) for b in bits)\n'
        assert lint_source(source, "src/repro/qx/keying.py") == []

    def test_non_key_join_allowed(self):
        source = 'def render(parts):\n    return "".join(parts)\n'
        assert lint_source(source, "src/repro/qx/engine.py") == []

    def test_separator_join_allowed(self):
        source = 'def label(values):\n    return ",".join(str(v) for v in values)\n'
        assert lint_source(source, "src/repro/runtime/merge.py") == []


# ---------------------------------------------------------------------- #
# REPRO004 — deterministic iteration order
# ---------------------------------------------------------------------- #
class TestSetIteration:
    def test_set_literal_iteration_flagged(self):
        source = "def emit(out):\n    for key in {'b', 'a'}:\n        out.append(key)\n"
        assert codes(lint_source(source, "src/repro/runtime/batch.py")) == ["REPRO004"]

    def test_set_call_iteration_flagged(self):
        source = "def emit(items):\n    return [x for x in set(items)]\n"
        assert codes(lint_source(source, "src/repro/runtime/batch.py")) == ["REPRO004"]

    def test_set_bound_name_iteration_flagged(self):
        source = (
            "def emit(items):\n"
            "    pending = set(items)\n"
            "    return [x for x in pending]\n"
        )
        assert codes(lint_source(source, "src/repro/runtime/batch.py")) == ["REPRO004"]

    def test_sorted_wrapping_allowed(self):
        source = "def emit(items):\n    return [x for x in sorted(set(items))]\n"
        assert lint_source(source, "src/repro/runtime/batch.py") == []

    def test_list_iteration_allowed(self):
        source = "def emit(items):\n    return [x for x in list(items)]\n"
        assert lint_source(source, "src/repro/runtime/batch.py") == []

    def test_outside_runtime_not_flagged(self):
        source = "def emit(items):\n    return [x for x in set(items)]\n"
        assert lint_source(source, "src/repro/qx/engine.py") == []


# ---------------------------------------------------------------------- #
# REPRO005 — pickle-safe worker tasks
# ---------------------------------------------------------------------- #
class TestTaskPickleSafety:
    def test_lambda_default_flagged(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class ShardTask:\n"
            "    shots: int = 0\n"
            "    combine = lambda a, b: a + b\n"
        )
        # the lambda is a plain assignment, not AnnAssign; use an annotated one
        source = (
            "from dataclasses import dataclass\n"
            "from typing import Any\n"
            "@dataclass\n"
            "class ShardTask:\n"
            "    combine: Any = lambda a, b: a + b\n"
        )
        assert codes(lint_source(source, "src/repro/runtime/worker.py")) == ["REPRO005"]

    def test_callable_field_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "@dataclass\n"
            "class MergeTask:\n"
            "    merge: Callable[[int], int] | None = None\n"
        )
        assert codes(lint_source(source, "src/repro/runtime/worker.py")) == ["REPRO005"]

    def test_local_task_class_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "def make():\n"
            "    @dataclass\n"
            "    class InnerTask:\n"
            "        shots: int = 0\n"
            "    return InnerTask\n"
        )
        assert codes(lint_source(source, "src/repro/runtime/worker.py")) == ["REPRO005"]

    def test_plain_data_fields_allowed(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class ShardTask:\n"
            "    cqasm: str = ''\n"
            "    shots: int = 0\n"
        )
        assert lint_source(source, "src/repro/runtime/worker.py") == []

    def test_non_task_dataclass_ignored(self):
        source = (
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "@dataclass\n"
            "class Config:\n"
            "    hook: Callable | None = None\n"
        )
        assert lint_source(source, "src/repro/runtime/worker.py") == []


# ---------------------------------------------------------------------- #
# REPRO006 — worker purity
# ---------------------------------------------------------------------- #
class TestWorkerState:
    def test_module_dict_mutation_flagged(self):
        source = (
            "_CACHE = {}\n"
            "def load(key):\n"
            "    _CACHE[key] = 1\n"
        )
        assert codes(lint_source(source, "src/repro/runtime/worker.py")) == ["REPRO006"]

    def test_mutator_method_flagged(self):
        source = (
            "_ITEMS = []\n"
            "def record(x):\n"
            "    _ITEMS.append(x)\n"
        )
        assert codes(lint_source(source, "src/repro/runtime/batch.py")) == ["REPRO006"]

    def test_global_statement_flagged(self):
        source = (
            "_COUNT = 0\n"
            "def bump():\n"
            "    global _COUNT\n"
            "    _COUNT += 1\n"
        )
        found = codes(lint_source(source, "src/repro/runtime/worker.py"))
        assert "REPRO006" in found

    def test_module_level_initialisation_allowed(self):
        source = "_CACHE = {}\n_CACHE['warm'] = True\n"
        assert lint_source(source, "src/repro/runtime/worker.py") == []

    def test_local_mutation_allowed(self):
        source = (
            "def load(key):\n"
            "    cache = {}\n"
            "    cache[key] = 1\n"
            "    return cache\n"
        )
        assert lint_source(source, "src/repro/runtime/worker.py") == []

    def test_other_runtime_modules_out_of_scope(self):
        source = "_CACHE = {}\ndef load(key):\n    _CACHE[key] = 1\n"
        assert lint_source(source, "src/repro/runtime/spec.py") == []


# ---------------------------------------------------------------------- #
# REPRO007 — rng isolation on copy
# ---------------------------------------------------------------------- #
class TestRngSharing:
    def test_shared_rng_in_copy_flagged(self):
        source = (
            "class State:\n"
            "    def copy(self):\n"
            "        return State(self.num_qubits, rng=self.rng)\n"
        )
        assert codes(lint_source(source, "src/repro/qx/state.py")) == ["REPRO007"]

    def test_spawned_rng_allowed(self):
        source = (
            "class State:\n"
            "    def copy(self):\n"
            "        return State(self.num_qubits, rng=self.rng.spawn(1)[0])\n"
        )
        assert lint_source(source, "src/repro/qx/state.py") == []

    def test_non_copy_method_allowed(self):
        source = (
            "class State:\n"
            "    def sample(self):\n"
            "        return self.rng.random()\n"
        )
        assert lint_source(source, "src/repro/qx/state.py") == []

    def test_engine_copy_paths_spawn_fresh_generators(self):
        """Satellite 6: the dynamic audit behind the static rule."""
        seq = np.random.SeedSequence(7)
        vector = StateVector(3, rng=np.random.default_rng(seq))
        stabilizer = StabilizerState(3, rng=np.random.default_rng(seq))
        for parent in (vector, stabilizer):
            clone = parent.copy()
            assert clone.rng is not parent.rng
            # Drawing from the clone must not advance the parent's stream.
            before = parent.rng.bit_generator.state
            clone.rng.random(16)
            assert parent.rng.bit_generator.state == before


# ---------------------------------------------------------------------- #
# REPRO008 — event-loop purity in the service layer
# ---------------------------------------------------------------------- #
class TestEventLoopBlocking:
    def test_blocking_worker_call_in_coroutine_flagged(self):
        source = (
            "from repro.runtime.worker import run_shard\n"
            "async def handle(task):\n"
            "    return run_shard(task)\n"
        )
        assert codes(lint_source(source, "src/repro/service/engine.py")) == ["REPRO008"]

    def test_runner_method_call_in_coroutine_flagged(self):
        source = (
            "async def admit(runner, point):\n"
            "    return runner.plan_point(point)\n"
        )
        assert codes(lint_source(source, "src/repro/service/engine.py")) == ["REPRO008"]

    def test_run_batch_in_coroutine_flagged(self):
        source = (
            "from repro.runtime import run_batch\n"
            "async def handle(spec):\n"
            "    return run_batch(spec)\n"
        )
        assert codes(lint_source(source, "src/repro/service/http.py")) == ["REPRO008"]

    def test_run_window_in_coroutine_flagged(self):
        source = (
            "from repro.runtime.batch import run_window\n"
            "async def handle(window):\n"
            "    return run_window(window)\n"
        )
        assert codes(lint_source(source, "src/repro/service/engine.py")) == ["REPRO008"]

    def test_executor_dispatch_allowed(self):
        source = (
            "from repro.runtime.batch import run_window\n"
            "from repro.runtime.worker import run_shard\n"
            "async def handle(loop, pool, runner, task, point):\n"
            "    await loop.run_in_executor(pool, run_shard, task)\n"
            "    await loop.run_in_executor(pool, run_window, task)\n"
            "    await loop.run_in_executor(pool, runner.plan_point, point)\n"
        )
        assert lint_source(source, "src/repro/service/engine.py") == []

    def test_sync_helper_in_service_module_allowed(self):
        source = (
            "from repro.runtime.worker import run_shard\n"
            "def inline(task):\n"
            "    return run_shard(task)\n"
        )
        assert lint_source(source, "src/repro/service/jobs.py") == []

    def test_rule_scoped_to_service_package(self):
        source = (
            "from repro.runtime.worker import run_shard\n"
            "async def handle(task):\n"
            "    return run_shard(task)\n"
        )
        assert lint_source(source, "src/repro/runtime/runner.py") == []


# ---------------------------------------------------------------------- #
# REPRO010 — no test-only definitions in src/
# ---------------------------------------------------------------------- #
def _plant_tree(root: Path, helper_line: str = "def oracle_helper(x):") -> Path:
    """A checkout whose one src/ helper is named by a test and nothing else."""
    module = root / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "def public_api(x):\n"
        "    return x\n"
        "\n"
        "\n"
        f"{helper_line}\n"
        "    return -x\n"
    )
    (root / "scripts").mkdir()
    (root / "scripts" / "run.py").write_text("from pkg.mod import public_api\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text("from pkg.mod import oracle_helper\n")
    return module


class TestNoTestOnlyDefinitions:
    def test_helper_named_only_by_tests_is_flagged(self, tmp_path):
        module = _plant_tree(tmp_path)
        violations, _ = lint_paths([tmp_path / "src"])
        assert [v.format().split(" ")[0] for v in violations] == [f"{module}:5:0:"]
        assert codes(violations) == ["REPRO010"]
        assert "'oracle_helper'" in violations[0].message

    @pytest.mark.parametrize("caller_dir", ["scripts", "examples"])
    def test_helper_named_by_a_caller_passes(self, tmp_path, caller_dir):
        _plant_tree(tmp_path)
        caller = tmp_path / caller_dir / "use.py"
        caller.parent.mkdir(exist_ok=True)
        caller.write_text("from pkg.mod import oracle_helper\n")
        assert lint_paths([tmp_path / "src"])[0] == []

    def test_suppression_on_the_def_line_is_the_allowlist(self, tmp_path):
        _plant_tree(
            tmp_path, "def oracle_helper(x):  # contract: ignore[REPRO010] paper-layer API"
        )
        assert lint_paths([tmp_path / "src"])[0] == []

    def test_class_members_are_checked(self, tmp_path):
        module = _plant_tree(tmp_path)
        module.write_text("class Engine:\n    def oracle_helper(self):\n        return 0\n")
        (tmp_path / "scripts" / "run.py").write_text("from pkg.mod import Engine\n")
        violations, _ = lint_paths([tmp_path / "src"])
        assert [(v.line, v.rule) for v in violations] == [(2, "REPRO010")]
        assert "'Engine.oracle_helper'" in violations[0].message

    def test_unsaved_source_is_out_of_scope(self, tmp_path):
        module = _plant_tree(tmp_path)
        source = module.read_text()
        assert codes(lint_source(source, module)) == ["REPRO010"]
        assert lint_source(source + "\n", module) == []
        assert lint_source(source, tmp_path / "src" / "pkg" / "not_on_disk.py") == []

    def test_real_tree_is_clean(self):
        violations, _ = lint_paths([SRC_TREE], rules=[r for r in RULES if r.rule_id == "REPRO010"])
        assert violations == [], "\n".join(v.format() for v in violations)


# ---------------------------------------------------------------------- #
# Ignore comments
# ---------------------------------------------------------------------- #
class TestIgnoreComments:
    def test_line_level_ignore(self):
        source = (
            "import numpy as np\n"
            "x = np.random.random(4)  # contract: ignore[REPRO001] fixture data\n"
        )
        assert lint_source(source, "src/repro/qx/engine.py") == []

    def test_def_level_ignore_covers_body(self):
        source = (
            "_CACHE = {}\n"
            "def load(key):  # contract: ignore[REPRO006]\n"
            "    _CACHE[key] = 1\n"
            "    _CACHE.pop(key)\n"
        )
        assert lint_source(source, "src/repro/runtime/worker.py") == []

    def test_ignore_is_rule_specific(self):
        source = (
            "import numpy as np\n"
            "x = np.random.random(4)  # contract: ignore[REPRO002]\n"
        )
        assert codes(lint_source(source, "src/repro/qx/engine.py")) == ["REPRO001"]

    def test_multiple_rules_in_one_ignore(self):
        source = (
            "import numpy as np\n"
            "x = np.random.random(4)  # contract: ignore[REPRO001, REPRO002]\n"
        )
        assert lint_source(source, "src/repro/qx/engine.py") == []


# ---------------------------------------------------------------------- #
# Meta: the tree is clean, the catalogue is complete, the CLI's exit codes
# ---------------------------------------------------------------------- #
class TestRepoAndCli:
    def test_source_tree_is_contract_clean(self):
        violations, checked = lint_paths([SRC_TREE])
        assert checked > 90
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_rule_catalogue_is_documented(self):
        catalogue = rule_catalogue()
        assert [entry["id"] for entry in catalogue] == [
            *(f"REPRO00{i}" for i in range(1, 9)),
            "REPRO010",
        ]
        for entry in catalogue:
            assert entry["title"]
            assert entry["rationale"]
            assert entry["scope"]

    def test_cli_clean_tree_exits_zero(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "lint_contracts.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_cli_seeded_violation_exits_nonzero_with_location(self, tmp_path):
        bad = tmp_path / "qx" / "bad_engine.py"
        bad.parent.mkdir()
        bad.write_text(
            "import numpy as np\n"
            "def measure(rng):\n"
            "    coin = rng.integers(2)\n"
            "    legacy = np.random.random()\n"
            "    return coin, legacy\n"
        )
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "lint_contracts.py"), str(bad)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 1
        assert "REPRO001" in result.stdout
        assert "REPRO002" in result.stdout
        assert f"{bad}:3:" in result.stdout  # file:line anchors
        assert f"{bad}:4:" in result.stdout

    def test_cli_select_filters_rules(self, tmp_path):
        bad = tmp_path / "qx" / "bad_engine.py"
        bad.parent.mkdir()
        bad.write_text("def measure(rng):\n    return rng.integers(2)\n")
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "lint_contracts.py"),
                "--select",
                "REPRO001",
                str(bad),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0  # REPRO002 not selected
