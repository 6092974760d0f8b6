"""Schema-versioned serving run records and the diffable run store.

Every serving sweep — a CLI ``serve-sim``, a benchmark section, a
cluster run — can persist its outcome as one JSON record appended to a
JSONL file under ``benchmarks/runs/`` (one file per label, one line
per run).  A record is self-describing::

    {"schema": "obsrun-v1", "run_id": "slo#3", "label": "slo",
     "created_unix": ..., "git_commit": "abc1234",
     "config":   {...how the run was launched...},
     "metrics":  {...flat numeric metrics, diffable...},
     "sections": {"window_stats": {...}, "tenant_stats": {...}}}

``metrics`` keys are flat and dotted (``tenant.interactive.p99_ttft_s``)
so two records diff key-by-key; :func:`diff_records` compares them and
flags regressions beyond a threshold using a direction registry
(throughput-like metrics must not drop, latency-like metrics must not
rise).  ``repro obs list|show|diff`` is the CLI over this module.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import time
import warnings
from dataclasses import dataclass, field

from ..errors import ReproError, SimulationError

SCHEMA = "obsrun-v1"

#: Default store root, relative to the working directory.
DEFAULT_ROOT = "benchmarks/runs"

#: Substrings classifying a metric's good direction.  First match wins;
#: metrics matching neither list are reported but never flagged.
HIGHER_IS_BETTER = ("tokens_per_s", "goodput", "throughput", "speedup")
LOWER_IS_BETTER = ("ttft", "lat", "e2e", "wall", "rss", "heap",
                   "preempt", "rejected", "lost", "failed", "killed",
                   "mttr", "downtime", "shed", "recompute")


def metric_direction(key: str) -> int:
    """+1 when larger is better, -1 when smaller is better, 0 neutral."""
    low = key.lower()
    for pat in HIGHER_IS_BETTER:
        if pat in low:
            return 1
    for pat in LOWER_IS_BETTER:
        if pat in low:
            return -1
    return 0


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


@dataclass
class RunRecord:
    """One persisted serving run (see module docstring for the shape)."""

    run_id: str
    label: str
    created_unix: float
    config: dict
    metrics: dict
    sections: dict = field(default_factory=dict)
    git_commit: str | None = None
    schema: str = SCHEMA

    def to_json(self) -> dict:
        return {"schema": self.schema, "run_id": self.run_id,
                "label": self.label, "created_unix": self.created_unix,
                "git_commit": self.git_commit, "config": self.config,
                "metrics": self.metrics, "sections": self.sections}

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ReproError(
                f"unsupported run-record schema {schema!r} "
                f"(this build reads {SCHEMA!r})")
        return cls(run_id=data["run_id"], label=data["label"],
                   created_unix=data.get("created_unix", 0.0),
                   config=data.get("config", {}),
                   metrics=data.get("metrics", {}),
                   sections=data.get("sections", {}),
                   git_commit=data.get("git_commit"), schema=schema)


def report_metrics(report) -> tuple[dict, dict]:
    """``(metrics, sections)`` of a :class:`repro.engine.ServeReport`
    — an engine or cluster report at any telemetry level.  Metrics a
    report cannot answer (e.g. TTFT percentiles of a run with no
    retired requests) are skipped rather than guessed.
    """
    metrics: dict = {
        "n_requests": report.n_requests,
        "total_new_tokens": report.total_new_tokens,
        "total_time_s": report.total_time_s,
        "n_steps": report.n_steps,
        "preemptions": report.preemptions,
        "max_batch": report.max_batch_observed,
    }

    def _try(key, fn):
        try:
            metrics[key] = fn()
        except SimulationError:
            pass

    _try("aggregate_tokens_per_s", lambda: report.aggregate_tokens_per_s)
    _try("mean_batch", lambda: report.mean_batch)
    _try("mean_ttft_s", lambda: report.mean_ttft_s)
    for p in (50, 99):
        _try(f"p{p}_ttft_s", lambda p=p: report.ttft_percentile_s(p))
        _try(f"p{p}_token_lat_s",
             lambda p=p: report.latency_percentile_s(p))

    sections: dict = {}
    if report.window_stats:
        sections["window_stats"] = report.window_stats
    tenant_stats = report.tenant_stats
    if tenant_stats:
        sections["tenant_stats"] = tenant_stats
        for name, stats in tenant_stats.items():
            for key, value in stats.items():
                if isinstance(value, (int, float)) and value is not None:
                    metrics[f"tenant.{name}.{key}"] = value
    resilience = report.resilience
    if resilience:
        sections["resilience"] = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in resilience.items()}
        for key, value in resilience.items():
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                metrics[f"resilience.{key}"] = value
    return metrics, sections


class RunStore:
    """Append-only JSONL store of :class:`RunRecord` under one root."""

    def __init__(self, root: "str | pathlib.Path" = DEFAULT_ROOT) -> None:
        self.root = pathlib.Path(root)

    def _label_path(self, label: str) -> pathlib.Path:
        if not label or "/" in label or label.startswith("."):
            raise ReproError(f"bad run label {label!r}")
        return self.root / f"{label}.jsonl"

    def _load_lines(self, path: pathlib.Path) -> list[RunRecord]:
        """Parse one label file, skipping corrupt lines.

        A store file can end mid-line (a killed run) or pick up a
        mangled record (a bad merge); one poisoned line must not take
        ``obs list|show|diff`` down with it.  Bad lines are skipped
        with a warning naming the file and line number.
        """
        records = []
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(RunRecord.from_json(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError,
                    AttributeError, ReproError) as exc:
                warnings.warn(
                    f"{path}:{lineno}: skipping corrupt run record "
                    f"({exc.__class__.__name__}: {exc})",
                    RuntimeWarning, stacklevel=2)
        return records

    def record(self, label: str, config: dict, metrics: dict,
               sections: dict | None = None) -> RunRecord:
        """Build a record with the next sequence id for ``label``
        (does not write; pass to :meth:`save`)."""
        path = self._label_path(label)
        seq = len(self._load_lines(path)) if path.exists() else 0
        return RunRecord(run_id=f"{label}#{seq}", label=label,
                         created_unix=time.time(), config=config,
                         metrics=metrics, sections=sections or {},
                         git_commit=_git_commit())

    def save(self, record: RunRecord) -> pathlib.Path:
        path = self._label_path(record.label)
        self.root.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(json.dumps(record.to_json()) + "\n")
        return path

    def record_report(self, label: str, report,
                      config: dict | None = None,
                      extra_metrics: dict | None = None) -> RunRecord:
        """Record-and-save a serving report; returns the saved record."""
        metrics, sections = report_metrics(report)
        if extra_metrics:
            metrics.update(extra_metrics)
        record = self.record(label, config or {}, metrics, sections)
        self.save(record)
        return record

    def list_runs(self) -> list[RunRecord]:
        """Every record in the store, label-sorted then append-ordered."""
        records: list[RunRecord] = []
        if not self.root.is_dir():
            return records
        for path in sorted(self.root.glob("*.jsonl")):
            records.extend(self._load_lines(path))
        return records

    def load(self, selector: str) -> RunRecord:
        """Resolve ``selector`` to one record.

        Accepts a run id (``label#seq``), a bare label (its latest
        run), or a path to a ``.jsonl``/``.json`` file (its last
        record) — the file form is what diffing records produced on
        another commit or machine uses.
        """
        as_path = pathlib.Path(selector)
        if as_path.suffix in (".jsonl", ".json") or as_path.is_file():
            if not as_path.is_file():
                raise ReproError(f"no run file at {selector!r}")
            records = self._load_lines(as_path)
            if not records:
                raise ReproError(f"run file {selector!r} is empty")
            return records[-1]
        label = selector.split("#", 1)[0]
        path = self._label_path(label)
        if not path.is_file():
            raise ReproError(
                f"no runs recorded under label {label!r} "
                f"(looked at {path})")
        records = self._load_lines(path)
        if "#" in selector:
            for record in records:
                if record.run_id == selector:
                    return record
            raise ReproError(f"no run {selector!r} in {path}")
        return records[-1]

    def load_window(self, selector: str, k: int) -> list[RunRecord]:
        """The last ``k`` records under ``selector``'s label (or run
        file), oldest first.  Their :func:`median_record` is a
        noise-robust baseline: one unlucky scheduler wobble in the
        history no longer decides whether today's run "regressed"."""
        if k <= 0:
            raise ReproError(f"baseline window must be >= 1: {k}")
        as_path = pathlib.Path(selector)
        if as_path.suffix in (".jsonl", ".json") or as_path.is_file():
            if not as_path.is_file():
                raise ReproError(f"no run file at {selector!r}")
            records = self._load_lines(as_path)
        else:
            label = selector.split("#", 1)[0]
            path = self._label_path(label)
            if not path.is_file():
                raise ReproError(
                    f"no runs recorded under label {label!r} "
                    f"(looked at {path})")
            records = self._load_lines(path)
        if not records:
            raise ReproError(f"no runs under {selector!r}")
        return records[-k:]


def median_record(records: "list[RunRecord]") -> RunRecord:
    """A synthetic record holding the per-metric median of ``records``.

    Only metrics numeric in *every* record survive (a median over a
    partial window would silently mix telemetry levels).  The even-size
    median averages the middle pair — fine for a baseline, which is a
    comparison anchor, not a reproducible measurement.
    """
    if not records:
        raise ReproError("no records to take a median over")
    if len(records) == 1:
        return records[0]
    keys = set(records[0].metrics)
    for rec in records[1:]:
        keys &= set(rec.metrics)
    metrics: dict = {}
    for key in sorted(keys):
        values = [rec.metrics[key] for rec in records
                  if isinstance(rec.metrics[key], (int, float))
                  and not isinstance(rec.metrics[key], bool)]
        if len(values) != len(records):
            continue
        values.sort()
        mid = len(values) // 2
        metrics[key] = values[mid] if len(values) % 2 \
            else (values[mid - 1] + values[mid]) / 2
    return RunRecord(
        run_id=f"{records[0].label}#median[{len(records)}]",
        label=records[0].label,
        created_unix=max(r.created_unix for r in records),
        config={"median_of": [r.run_id for r in records]},
        metrics=metrics,
        git_commit=records[-1].git_commit)


@dataclass
class MetricDelta:
    """One metric's comparison between two records."""

    key: str
    base: float
    new: float
    rel_change: float | None  # None when the base is 0
    direction: int            # +1 higher-better, -1 lower-better, 0
    regressed: bool
    improved: bool


def diff_records(base: RunRecord, new: RunRecord,
                 threshold: float = 0.05) -> list[MetricDelta]:
    """Compare shared numeric metrics; flag moves beyond ``threshold``.

    A *regression* is a relative change larger than ``threshold`` in a
    metric's bad direction (throughput down, latency up); an
    *improvement* is the mirror image.  Direction-neutral metrics are
    listed with their deltas but never flagged.  Metrics present in
    only one record are ignored — diffing records from different
    telemetry levels or schema extensions must not false-positive.
    """
    deltas: list[MetricDelta] = []
    for key in sorted(set(base.metrics) & set(new.metrics)):
        old_v, new_v = base.metrics[key], new.metrics[key]
        if not isinstance(old_v, (int, float)) \
                or not isinstance(new_v, (int, float)) \
                or isinstance(old_v, bool) or isinstance(new_v, bool):
            continue
        rel = (new_v - old_v) / abs(old_v) if old_v else None
        direction = metric_direction(key)
        regressed = improved = False
        if rel is not None and direction:
            signed = rel * direction
            regressed = signed < -threshold
            improved = signed > threshold
        deltas.append(MetricDelta(key=key, base=float(old_v),
                                  new=float(new_v), rel_change=rel,
                                  direction=direction,
                                  regressed=regressed,
                                  improved=improved))
    if not deltas:
        raise ReproError(
            f"records {base.run_id!r} and {new.run_id!r} share no "
            "numeric metrics")
    return deltas
