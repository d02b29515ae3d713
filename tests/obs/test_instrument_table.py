"""The instrument table is the contract.

Three angles on one rule — a metric exists exactly as it is declared in
:data:`repro.obs.instrument.INSTRUMENTS`:

* a static AST pass over ``src/``: every ``count/observe/set`` recorder
  call names a declared constant of the right kind and passes exactly its
  declared label keywords, and nothing but the three recorders (and
  ``obs/metrics.py`` itself) asks the registry for an instrument;
* runtime: an undeclared name, a wrong kind or a wrong label set raises on
  a live ``Telemetry``; on a disabled one no recorder call, in any order
  and however wrong, raises or stores anything;
* the generated "Metric reference" table in docs/OBSERVABILITY.md matches
  the declarations.
"""

import ast
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.errors import TracError
from repro.obs import NULL_TELEMETRY, Telemetry, instrument
from repro.obs.instrument import INSTRUMENTS

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(REPO_ROOT, "src")

RECORDER_KINDS = {"count": "counter", "observe": "histogram", "set": "gauge"}
#: Receivers that are a telemetry object at every call site in ``src/``.
TELEMETRY_RECEIVERS = {"tel", "telemetry"}


def _source_files():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def _receiver_name(node: ast.AST) -> str:
    """``tel`` for ``tel.count``, ``tel`` for ``self.tel.count``, ``self``..."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_recorder_call(call: ast.Call, path: str) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in RECORDER_KINDS):
        return False
    receiver = _receiver_name(func.value)
    if receiver in TELEMETRY_RECEIVERS:
        return True
    # Telemetry.emit counts its own events through ``self.count``.
    return receiver == "self" and path.endswith(os.path.join("obs", "instrument.py"))


def _named_constants(node: ast.AST):
    """The ``instrument`` constants a recorder's first argument can evaluate
    to: ``obs.NAME``, a bare imported ``NAME``, or ``A if cond else B``."""
    if isinstance(node, ast.IfExp):
        return _named_constants(node.body) + _named_constants(node.orelse)
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return [None]  # a string literal, a call, ...: not a declared constant


def _recorder_calls():
    for path in _source_files():
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_recorder_call(node, path):
                yield os.path.relpath(path, REPO_ROOT), node


class TestStaticContract:
    def test_every_recorder_call_matches_its_declaration(self):
        problems = []
        recorded = set()
        calls = 0
        for path, call in _recorder_calls():
            calls += 1
            where = f"{path}:{call.lineno}"
            method = call.func.attr
            if not call.args:
                problems.append(f"{where}: {method}() without a metric name")
                continue
            keywords = {kw.arg for kw in call.keywords}
            if None in keywords:
                problems.append(f"{where}: **labels hides the label set")
                continue
            if method == "observe":
                keywords.discard("trace_id")
            for constant in _named_constants(call.args[0]):
                name = getattr(instrument, constant, None) if constant else None
                spec = INSTRUMENTS.get(name) if isinstance(name, str) else None
                if spec is None:
                    problems.append(f"{where}: {method}() does not name a declared constant")
                    continue
                recorded.add(spec.name)
                if spec.kind != RECORDER_KINDS[method]:
                    problems.append(f"{where}: {method}() on {spec.kind} {spec.name}")
                if keywords != set(spec.labels):
                    problems.append(
                        f"{where}: {spec.name} takes labels {sorted(spec.labels)}, "
                        f"call passes {sorted(keywords)}"
                    )
        assert not problems, "\n".join(problems)
        assert calls >= 56  # the walk really found the call sites
        # ...and no declaration is dead: every metric is recorded somewhere.
        assert recorded == set(INSTRUMENTS)

    def test_only_the_recorders_ask_the_registry_for_instruments(self):
        """``metrics.counter(`` / ``gauge(`` / ``histogram(`` occur in ``src/``
        only inside ``obs/metrics.py`` and the three recorders."""
        offenders = []
        for path in _source_files():
            if path.endswith(os.path.join("obs", "metrics.py")):
                continue
            with open(path) as handle:
                tree = ast.parse(handle.read(), filename=path)
            parents = {}
            for parent in ast.walk(tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and _receiver_name(node.func.value) in ("metrics", "registry")
                ):
                    continue
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                inside = getattr(scope, "name", "<module>")
                rel = os.path.relpath(path, REPO_ROOT)
                if not (rel.endswith("obs/instrument.py") and inside in RECORDER_KINDS):
                    offenders.append(f"{rel}:{node.lineno} (in {inside})")
        assert offenders == []

    def test_no_record_helper_survives(self):
        leftovers = [
            name
            for name in dir(instrument)
            if name.startswith("record_") or name.startswith("_record")
        ]
        assert leftovers == []
        import repro.obs

        assert [n for n in repro.obs.__all__ if n.startswith("record_")] == []


class TestDeclarations:
    def test_every_instrument_is_fully_declared(self):
        assert len(INSTRUMENTS) == 54
        for name, spec in INSTRUMENTS.items():
            assert spec.name == name and name.startswith("trac_")
            assert spec.kind in ("counter", "gauge", "histogram")
            assert spec.help
            assert (spec.buckets is not None) == (spec.kind == "histogram")
            if spec.buckets is not None:
                assert list(spec.buckets) == sorted(set(spec.buckets))

    def test_a_declaration_evaluates_to_its_name(self):
        assert instrument.REPORTS == "trac_reports_total"
        assert INSTRUMENTS[instrument.REPORTS].labels == {"method"}
        assert INSTRUMENTS[instrument.SERVE_REQUEST_SECONDS].buckets == instrument.SERVE_BUCKETS

    def test_declaring_a_name_twice_is_an_error(self):
        with pytest.raises(TracError, match="declared twice"):
            instrument.counter(instrument.REPORTS, "again", "method")
        assert INSTRUMENTS[instrument.REPORTS].help == "Recency reports produced"


class TestRecordersRejectWhatIsNotDeclared:
    def test_declared_calls_land_in_the_registry_with_help_and_buckets(self):
        tel = Telemetry()
        tel.count(instrument.REPORTS, method="focused")
        tel.count(instrument.REPORTS, 2, method="focused")
        tel.observe(instrument.ROW_QUALITY, 0.5, method="focused")
        tel.set(instrument.SNIFFER_BACKLOG, 7, machine="m1")
        assert tel.metrics.counter(instrument.REPORTS, {"method": "focused"}).value == 3
        quality = tel.metrics.histogram(
            instrument.ROW_QUALITY, {"method": "focused"}, buckets=instrument.QUALITY_BUCKETS
        )
        assert quality.count == 1 and quality.bounds == instrument.QUALITY_BUCKETS
        assert tel.metrics.gauge(instrument.SNIFFER_BACKLOG, {"machine": "m1"}).value == 7
        assert tel.metrics.help_text(instrument.REPORTS) == "Recency reports produced"

    @pytest.mark.parametrize("method", ["count", "observe", "set"])
    def test_undeclared_name_raises(self, method):
        tel = Telemetry()
        with pytest.raises(TracError, match="not a declared"):
            getattr(tel, method)("trac_made_up_total", 1.0)
        assert len(tel.metrics) == 0

    def test_wrong_kind_raises(self):
        tel = Telemetry()
        with pytest.raises(TracError, match="not a declared histogram"):
            tel.observe(instrument.REPORTS, 1.0, method="focused")
        with pytest.raises(TracError, match="not a declared counter"):
            tel.count(instrument.SNIFFER_BACKLOG, machine="m1")

    @pytest.mark.parametrize(
        "labels",
        [{}, {"backend": "memory"}, {"method": "focused", "backend": "memory"}],
        ids=["missing", "renamed", "extra"],
    )
    def test_wrong_label_set_raises(self, labels):
        tel = Telemetry()
        with pytest.raises(TracError, match=r"takes labels \['method'\]"):
            tel.count(instrument.REPORTS, **labels)
        with pytest.raises(TracError, match="takes labels"):
            tel.observe(instrument.REPORT_SECONDS, 0.1, **labels)
        assert len(tel.metrics) == 0

    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(["count", "observe", "set", "emit"]),
                st.sampled_from(sorted(INSTRUMENTS)) | st.text(max_size=12),
                st.floats(allow_nan=False) | st.none(),
                st.dictionaries(
                    st.sampled_from(["method", "backend", "severity", "source", "wrong"]),
                    st.text(max_size=6),
                    max_size=3,
                ),
            ),
            max_size=12,
        )
    )
    def test_null_telemetry_does_nothing(self, calls):
        """Any recorder sequence on a disabled ``Telemetry`` — undeclared
        names, wrong kinds, wrong labels, an unknown severity — returns
        ``None`` and leaves every structure it owns empty."""
        for tel in (NULL_TELEMETRY, Telemetry(enabled=False)):
            for method, name, value, labels in calls:
                if method == "emit":
                    assert tel.emit(name, t=value, **labels) is None
                else:
                    assert getattr(tel, method)(name, value, **labels) is None
            assert len(tel.metrics) == 0 and tel.metrics.collect() == []
            assert tel.tracer.finished_spans() == [] and tel.tracer.dropped == 0
            for ring in (tel.events, tel.profiles, tel.provenance):
                assert (len(ring), ring.total) == (0, 0)


class TestMetricReferenceDoc:
    def test_doc_table_matches_the_declarations(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "tools", "metric_reference.py"), "--check"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr

    def test_every_metric_is_documented_with_its_help(self):
        with open(os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")) as handle:
            doc = handle.read()
        for spec in INSTRUMENTS.values():
            assert f"| `{spec.name}` | {spec.kind} |" in doc
            assert spec.help in doc
