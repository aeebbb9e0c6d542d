"""Streaming aggregation: journal records → pass@k, tables and figures.

The aggregator consumes journal records one at a time (``feed``) or wholesale
from a store (``feed_store``) and can produce its outputs at any moment, so a
report renders from a partially complete run and is simply re-rendered as more
units land.  Per-task scoring is :func:`~repro.bench.scoring.task_result`
over the outcomes in sample order, and
:func:`~repro.bench.scoring.best_temperature` with the first temperature
winning ties.  Quarantined units carry no verdict, so they are left out of
their task's samples: a quarantine is an infrastructure fault, not a failed
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.outcomes import CheckOutcome
from ..bench.reporting import (
    AblationSeries,
    Table4Row,
    Table5Row,
    table4_row_from_results,
    table5_row_from_result,
)
from ..bench.scoring import SuiteResult, best_temperature, task_result
from ..bench.suites import TABLE4_SUITES
from .manifest import RunManifest
from .resolve import ManifestResolver
from .store import RunStore, outcome_from_record


@dataclass
class RunProgress:
    """How much of a manifest's expansion the journal covers.

    ``completed`` counts scored units only; ``quarantined`` units are
    journaled (so resume skips them) but carry no verdict.  Both count toward
    coverage: a run with every unit either scored or quarantined is complete
    — just not :attr:`healthy`.
    """

    completed: int
    total: int
    quarantined: int = 0

    @property
    def accounted(self) -> int:
        return self.completed + self.quarantined

    @property
    def fraction(self) -> float:
        return self.accounted / self.total if self.total else 1.0

    @property
    def percent(self) -> float:
        return 100.0 * self.fraction

    @property
    def complete(self) -> bool:
        return self.accounted >= self.total

    @property
    def healthy(self) -> bool:
        return self.complete and self.quarantined == 0


class StreamingAggregator:
    """Incrementally rebuild suite results (and the paper's outputs) from a journal."""

    def __init__(self, manifest: RunManifest, resolver: ManifestResolver | None = None):
        self.manifest = manifest
        self.resolver = resolver or ManifestResolver(manifest)
        self._manifest_hash = manifest.manifest_hash
        #: (profile, suite) → task → temperature → sample index → outcome
        self._outcomes: dict[
            tuple[str, str], dict[str, dict[float, dict[int, CheckOutcome]]]
        ] = {}
        self._seen = 0
        #: (store generation, records fed) as of the last :meth:`feed_store`.
        self._fed_from: tuple[int, int] = (-1, 0)
        #: Unit keys journaled as quarantined (poison units; never scored).
        self._quarantined_keys: set[str] = set()

    # ------------------------------------------------------------------ ingest
    def feed(self, record: dict) -> bool:
        """Ingest one journal record; foreign-manifest records are ignored.

        Quarantine records are counted (for progress and health) but
        contribute no outcome: the paper's metrics aggregate over scored
        units only, bit-for-bit with a fault-free run of the healthy subset.
        """
        if record.get("kind") == "quarantine":
            if record.get("manifest") != self._manifest_hash:
                return False
            self._quarantined_keys.add(record["key"])
            return True
        if record.get("kind") != "unit" or record.get("manifest") != self._manifest_hash:
            return False
        group = self._outcomes.setdefault((record["profile"], record["suite"]), {})
        per_task = group.setdefault(record["task"], {})
        per_temperature = per_task.setdefault(float(record["temperature"]), {})
        sample_index = int(record["sample"])
        if sample_index not in per_temperature:
            self._seen += 1
        per_temperature[sample_index] = outcome_from_record(record)
        return True

    def feed_store(self, store: RunStore) -> "StreamingAggregator":
        """Ingest the store's records not yet fed from it.

        A repeated call on the same store feeds only the records appended
        since the last one.  Once the store starts its records over (its
        journal shrank, or it was reloaded), or for a different store, every
        record is fed again; :meth:`feed` keeps the latest outcome per sample.
        """
        generation, fed = self._fed_from
        if generation != store.generation:
            fed = 0
        for record in store.records(fed):
            self.feed(record)
            fed += 1
        self._fed_from = (store.generation, fed)
        return self

    # ------------------------------------------------------------------ progress
    def progress(self) -> RunProgress:
        total = len(self.manifest.expand(self.resolver.suite_task_ids()))
        return RunProgress(
            completed=self._seen,
            total=total,
            quarantined=len(self._quarantined_keys),
        )

    # ------------------------------------------------------------------ suite results
    def suite_result(self, profile_id: str, suite_id: str) -> SuiteResult:
        """The (possibly partial) suite result for one profile on one suite.

        Tasks with no journaled sample yet are omitted; tasks with some
        samples journaled aggregate over what is there.
        """
        suite_spec = next(s for s in self.manifest.suites if s.suite_id == suite_id)
        suite = self.resolver.suite(suite_spec)
        result = SuiteResult(
            suite_name=suite.name,
            model_name=self.resolver.pipeline_name(profile_id),
            ks=self.manifest.config.ks,
        )
        group = self._outcomes.get((profile_id, suite_id), {})
        for task in self.resolver.tasks(suite_spec):
            per_task = group.get(task.task_id, {})
            best = best_temperature(
                task_result(task, temperature, [outcomes[i] for i in sorted(outcomes)])
                for temperature in self.manifest.config.temperatures
                if (outcomes := per_task.get(float(temperature)))
            )
            if best is not None:
                result.task_results.append(best)
        return result

    # ------------------------------------------------------------------ experiment outputs
    def table4_rows(self) -> list[Table4Row]:
        rows: list[Table4Row] = []
        columns = [s.suite_id for s in self.manifest.suites if s.suite_id in TABLE4_SUITES]
        for spec in self.manifest.profiles:
            rows.append(
                table4_row_from_results(
                    model=spec.display,
                    group=spec.group,
                    open_source=spec.open_source,
                    model_size=spec.model_size,
                    **{
                        suite_id: self.suite_result(spec.profile_id, suite_id)
                        for suite_id in columns
                    },
                )
            )
        return rows

    def table5_rows(self) -> list[Table5Row]:
        return [
            table5_row_from_result(
                spec.display, self.suite_result(spec.profile_id, "symbolic")
            )
            for spec in self.manifest.profiles
        ]

    def table6_rows(self) -> dict[str, tuple[float, float]]:
        rows: dict[str, tuple[float, float]] = {}
        with_cot = {s.key: s for s in self.manifest.profiles if s.use_sicot}
        without_cot = {s.key: s for s in self.manifest.profiles if not s.use_sicot}
        for key, spec in with_cot.items():
            partner = without_cot.get(key)
            if partner is None:
                continue
            rows[spec.display] = (
                self.suite_result(spec.profile_id, "symbolic")
                .functional_percentages()
                .get(1, 0.0),
                self.suite_result(partner.profile_id, "symbolic")
                .functional_percentages()
                .get(1, 0.0),
            )
        return rows

    def fig3_series(self) -> list[AblationSeries]:
        series: list[AblationSeries] = []
        by_label: dict[str, AblationSeries] = {}
        for spec in self.manifest.profiles:
            entry = by_label.get(spec.group)
            if entry is None:
                entry = AblationSeries(model=spec.group)
                by_label[spec.group] = entry
                series.append(entry)
            percentages = self.suite_result(spec.profile_id, "human").functional_percentages()
            entry.pass1[spec.setting] = percentages.get(1, 0.0)
            entry.pass5[spec.setting] = percentages.get(5, percentages.get(1, 0.0))
        return series

    def fig4_grids(
        self,
    ) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
        grid_pass1: dict[tuple[int, int], float] = {}
        grid_pass5: dict[tuple[int, int], float] = {}
        for spec in self.manifest.profiles:
            percentages = self.suite_result(spec.profile_id, "human").functional_percentages()
            cell = (spec.k_portion, spec.l_portion)
            grid_pass1[cell] = percentages.get(1, 0.0)
            grid_pass5[cell] = percentages.get(5, percentages.get(1, 0.0))
        return grid_pass1, grid_pass5

    # ------------------------------------------------------------------ rendering
    def report(self) -> str:
        """Render the manifest's experiment from whatever is journaled so far."""
        from ..bench.reporting import (
            render_fig3,
            render_fig4,
            render_table4,
            render_table5,
            render_table6,
        )

        experiment = self.manifest.experiment
        if experiment == "table4":
            return render_table4(self.table4_rows())
        if experiment == "table5":
            return render_table5(self.table5_rows())
        if experiment == "table6":
            return render_table6(self.table6_rows())
        if experiment == "fig3":
            return render_fig3(self.fig3_series())
        if experiment == "fig4":
            grid1, grid5 = self.fig4_grids()
            return render_fig4(grid1, grid5, portions=self.manifest.portions or (0, 50, 100))
        # Custom sweeps: render per-(profile, suite) pass@k summaries.
        from ..bench.reporting import format_table

        rows = []
        for spec in self.manifest.profiles:
            for suite in self.manifest.suites:
                result = self.suite_result(spec.profile_id, suite.suite_id)
                percentages = result.functional_percentages()
                rows.append(
                    [
                        spec.display,
                        suite.suite_id,
                        len(result.task_results),
                        percentages.get(1, 0.0),
                        percentages.get(5, "n/a"),
                    ]
                )
        return format_table(
            ["Model", "Suite", "Tasks", "pass@1", "pass@5"], rows, title=self.manifest.name
        )
