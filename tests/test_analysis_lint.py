"""Tests of the repo-native invariant linter (`repro lint`, RPR0xx rules)."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.linting import format_violations, lint_paths, lint_source

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _codes(violations):
    return [v.code for v in violations]


# --------------------------------------------------------------------------
# one fixture per rule: each contains exactly one violation of that rule
# --------------------------------------------------------------------------
def test_rpr001_wall_clock_in_solver_scope():
    source = textwrap.dedent(
        """
        import time

        def solve():
            started = time.time()
            return started
        """
    )
    violations = lint_source(source, "src/repro/core/fixture.py")
    assert _codes(violations) == ["RPR001"]
    assert violations[0].line == 5
    assert "time.time" in violations[0].message


def test_rpr001_perf_counter_is_allowed():
    source = "import time\nt0 = time.perf_counter()\n"
    assert lint_source(source, "src/repro/core/fixture.py") == []


def test_rpr001_out_of_scope_module_is_exempt():
    source = "import time\nstamp = time.time()\n"
    assert lint_source(source, "src/repro/server/fixture.py") == []


def test_rpr002_unseeded_rng():
    source = textwrap.dedent(
        """
        import numpy as np

        def jitter():
            rng = np.random.default_rng()
            return rng.random()
        """
    )
    violations = lint_source(source, "src/repro/gpusim/fixture.py")
    assert _codes(violations) == ["RPR002"]
    assert violations[0].line == 5


def test_rpr002_seeded_rng_and_legacy_global_state():
    ok = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert lint_source(ok, "src/repro/seq/fixture.py") == []
    legacy = "import numpy as np\nx = np.random.rand(3)\n"
    assert _codes(lint_source(legacy, "src/repro/seq/fixture.py")) == ["RPR002"]


def test_rpr003_lock_discipline():
    source = textwrap.dedent(
        """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def good(self):
                with self._lock:
                    self.count += 1

            def bad(self):
                self.count += 1
        """
    )
    violations = lint_source(source, "src/repro/engine/fixture.py")
    assert _codes(violations) == ["RPR003"]
    assert violations[0].line == 14
    assert "self.count" in violations[0].message and "Pool" in violations[0].message


def test_rpr003_lockless_classes_and_other_packages_exempt():
    lockless = "class Plain:\n    def set(self):\n        self.x = 1\n"
    assert lint_source(lockless, "src/repro/engine/fixture.py") == []
    source = (
        "import threading\n"
        "class P:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def bad(self):\n"
        "        self.x = 1\n"
    )
    # Same class outside the locked packages: not in scope.
    assert lint_source(source, "src/repro/core/fixture.py") == []


def test_rpr004_hot_path_accessor():
    source = textwrap.dedent(
        """
        def scan(graph, cols):
            total = 0
            # hot-path
            for v in cols:
                ptr, ind = graph.csr_lists("col")
                total += ptr[v + 1] - ptr[v]
            # end hot-path
            return total
        """
    )
    violations = lint_source(source, "src/repro/seq/fixture.py")
    assert _codes(violations) == ["RPR004"]
    assert violations[0].line == 6
    assert "csr_lists" in violations[0].message


def test_rpr004_hoisted_accessor_is_clean():
    source = textwrap.dedent(
        """
        def scan(graph, cols):
            ptr, ind = graph.csr_lists("col")
            total = 0
            # hot-path
            for v in cols:
                total += ptr[v + 1] - ptr[v]
            # end hot-path
            return total
        """
    )
    assert lint_source(source, "src/repro/seq/fixture.py") == []


def test_rpr004_unclosed_region_is_reported():
    source = "# hot-path\nx = 1\n"
    violations = lint_source(source, "src/repro/seq/fixture.py")
    assert _codes(violations) == ["RPR004"]
    assert "unclosed" in violations[0].message


def test_rpr004_stray_end_marker_is_reported():
    source = "x = 1\n# end hot-path\n"
    violations = lint_source(source, "src/repro/seq/fixture.py")
    assert _codes(violations) == ["RPR004"]
    assert "stray" in violations[0].message


def test_rpr004_annotated_marker_opens_a_region():
    source = textwrap.dedent(
        """
        def scan(graph, cols):
            total = 0
            # hot-path compiled=alternating_level_bfs
            for v in cols:
                ptr, ind = graph.csr_lists("col")
                total += ptr[v + 1] - ptr[v]
            # end hot-path
            return total
        """
    )
    violations = lint_source(source, "src/repro/seq/fixture.py")
    # The annotated marker still delimits a region (the accessor is caught)
    # and the known entry name passes validation.
    assert _codes(violations) == ["RPR004"]
    assert "csr_lists" in violations[0].message


def test_rpr004_unknown_compiled_entry_is_reported():
    source = textwrap.dedent(
        """
        # hot-path compiled=no_such_twin
        x = 1
        # end hot-path
        """
    )
    violations = lint_source(source, "src/repro/seq/fixture.py")
    assert _codes(violations) == ["RPR004"]
    assert "no_such_twin" in violations[0].message
    assert "no registered dispatch entry" in violations[0].message


def test_rpr004_dispatch_lookup_inside_region_is_reported():
    source = textwrap.dedent(
        """
        def scan(cols, ptr):
            total = 0
            # hot-path
            for v in cols:
                fn = _compiled.implementation_for("alternating_level_bfs")
                total += ptr[v]
            # end hot-path
            return total
        """
    )
    violations = lint_source(source, "src/repro/seq/fixture.py")
    assert _codes(violations) == ["RPR004"]
    assert "implementation_for" in violations[0].message
    assert "above the loop" in violations[0].message


def test_rpr004_hoisted_dispatch_lookup_is_clean():
    source = textwrap.dedent(
        """
        def scan(cols, ptr):
            fn = _compiled.implementation_for("alternating_level_bfs")
            total = 0
            # hot-path compiled=alternating_level_bfs
            for v in cols:
                total += ptr[v]
            # end hot-path
            return total
        """
    )
    assert lint_source(source, "src/repro/seq/fixture.py") == []


def test_rpr005_bare_except_and_swallowed_failure():
    source = textwrap.dedent(
        """
        def run(job):
            try:
                job()
            except:
                pass

        def run2(job):
            try:
                job()
            except Exception:
                pass
        """
    )
    violations = lint_source(source, "src/repro/tools/fixture.py")
    assert _codes(violations) == ["RPR005", "RPR005"]
    assert "bare" in violations[0].message
    assert "swallows" in violations[1].message


def test_rpr005_handled_broad_except_is_clean():
    source = textwrap.dedent(
        """
        def run(job, log):
            try:
                job()
            except Exception as exc:
                log(exc)
        """
    )
    assert lint_source(source, "src/repro/tools/fixture.py") == []


# --------------------------------------------------------------------------
# framework behaviour
# --------------------------------------------------------------------------
def test_suppression_on_line_and_file_wide():
    source = "import time\nt = time.time()  # repro-lint: disable=RPR001\n"
    assert lint_source(source, "src/repro/core/fixture.py") == []
    source = "# repro-lint: disable-file=RPR001\nimport time\nt = time.time()\n"
    assert lint_source(source, "src/repro/core/fixture.py") == []
    # Suppressing a different code does not silence the violation.
    source = "import time\nt = time.time()  # repro-lint: disable=RPR002\n"
    assert _codes(lint_source(source, "src/repro/core/fixture.py")) == ["RPR001"]


def test_syntax_error_reports_rpr000():
    violations = lint_source("def broken(:\n", "src/repro/core/fixture.py")
    assert _codes(violations) == ["RPR000"]


def test_violations_render_file_line_code():
    violations = lint_source("import time\nt = time.time()\n", "src/repro/core/fixture.py")
    rendered = format_violations(violations)
    assert rendered.startswith("src/repro/core/fixture.py:2: RPR001 ")


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import time\nt = time.time()\n")
    (pkg / "good.py").write_text("x = 1\n")
    violations = lint_paths([str(tmp_path)])
    assert _codes(violations) == ["RPR001"]
    assert violations[0].path.endswith("bad.py")


def test_shipped_tree_is_lint_clean():
    violations = lint_paths([str(SRC_DIR)])
    assert violations == [], format_violations(violations)


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------
def _run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
    )


def test_cli_lint_exit_codes(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    bad = pkg / "bad.py"
    bad.write_text("import time\nt = time.time()\n")

    proc = _run_cli("lint", str(bad))
    assert proc.returncode == 1
    assert f"{bad}:2: RPR001" in proc.stdout

    proc = _run_cli("lint", str(SRC_DIR))
    assert proc.returncode == 0, proc.stdout + proc.stderr

    proc = _run_cli("lint", "--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005"]

    proc = _run_cli("lint", str(tmp_path / "does-not-exist"))
    assert proc.returncode == 2


def test_cli_lint_json_format(tmp_path):
    import json

    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    bad = pkg / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    proc = _run_cli("lint", "--format", "json", str(bad))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload[0]["code"] == "RPR001" and payload[0]["line"] == 2


def test_lint_and_sanitizer_import_without_optional_deps():
    """The minimal-install CI job has no scipy/networkx; block them and import."""
    script = textwrap.dedent(
        """
        import sys

        class _Blocker:
            def find_module(self, name, path=None):
                if name.split(".")[0] in ("scipy", "networkx"):
                    return self

            def load_module(self, name):
                raise ImportError(f"blocked optional dependency: {name}")

        sys.meta_path.insert(0, _Blocker())

        import repro.analysis
        from repro.analysis.linting import lint_source
        from repro.analysis.hazards import AccessLog, ShadowArray

        assert lint_source("x = 1\\n", "src/repro/core/f.py") == []
        assert AccessLog().segments == []
        print("minimal-install-ok")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "minimal-install-ok" in proc.stdout
