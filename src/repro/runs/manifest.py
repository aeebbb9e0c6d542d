"""Run manifests: the declarative description of one experiment sweep.

A manifest is pure data — profile specs, suite specs, the evaluation config and
the scale dict — hashed canonically so that a journal written by one process
can be validated and extended by another.  Expansion into work units is
deterministic: profiles in manifest order × suites in manifest order × tasks in
suite order × temperatures in config order × sample indices, which is exactly
the order the serial in-memory drivers evaluate in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from ..bench.scoring import EvaluationConfig

MANIFEST_VERSION = 1


def canonical_json(payload: object) -> str:
    """Stable JSON text (sorted keys, no whitespace drift) for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------- specs
@dataclass(frozen=True)
class ProfileSpec:
    """How to (re)build one evaluated pipeline, plus its report metadata.

    Kinds:

    * ``baseline`` — a registered :data:`~repro.core.llm.profiles.BASELINE_PROFILES`
      entry (``key``), optionally wrapped in SI-CoT;
    * ``haven``    — one of the three fine-tuned HaVen models (``key`` is the
      base-model key, training data derived from the manifest's scale);
    * ``fig3``     — a Fig. 3 ablation setting (``key`` = base model,
      ``setting`` = one of the five ablation settings);
    * ``fig4``     — a Fig. 4 K/L-portion fine-tune of CodeQwen
      (``k_portion``/``l_portion`` in percent).
    """

    profile_id: str
    kind: str
    key: str = ""
    use_sicot: bool = False
    setting: str = ""
    k_portion: int = 100
    l_portion: int = 100
    display: str = ""
    group: str = ""
    open_source: bool = True
    model_size: str = ""

    def to_dict(self) -> dict:
        return {
            "profile_id": self.profile_id,
            "kind": self.kind,
            "key": self.key,
            "use_sicot": self.use_sicot,
            "setting": self.setting,
            "k_portion": self.k_portion,
            "l_portion": self.l_portion,
            "display": self.display,
            "group": self.group,
            "open_source": self.open_source,
            "model_size": self.model_size,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ProfileSpec":
        return cls(
            profile_id=str(payload["profile_id"]),
            kind=str(payload["kind"]),
            key=str(payload.get("key", "")),
            use_sicot=bool(payload.get("use_sicot", False)),
            setting=str(payload.get("setting", "")),
            k_portion=int(payload.get("k_portion", 100)),
            l_portion=int(payload.get("l_portion", 100)),
            display=str(payload.get("display", "")),
            group=str(payload.get("group", "")),
            open_source=bool(payload.get("open_source", True)),
            model_size=str(payload.get("model_size", "")),
        )


@dataclass(frozen=True)
class SuiteSpec:
    """One benchmark suite of the sweep (sized by the manifest's scale)."""

    suite_id: str  # machine | human | rtllm | v2 | symbolic
    full_subset: bool = False  # symbolic only: paper-size subset regardless of scale

    def to_dict(self) -> dict:
        return {"suite_id": self.suite_id, "full_subset": self.full_subset}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SuiteSpec":
        return cls(
            suite_id=str(payload["suite_id"]),
            full_subset=bool(payload.get("full_subset", False)),
        )


# --------------------------------------------------------------------------- units
@dataclass(frozen=True)
class WorkUnit:
    """One content-addressed unit of work: a single sample of one task."""

    manifest_hash: str
    profile_id: str
    suite_id: str
    task_id: str
    temperature: float
    sample_index: int

    @cached_property
    def key(self) -> str:
        """Content address of this unit (journal index key), hashed once."""
        payload = repr(
            (
                self.manifest_hash,
                self.profile_id,
                self.suite_id,
                self.task_id,
                float(self.temperature),
                self.sample_index,
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "manifest_hash": self.manifest_hash,
            "profile_id": self.profile_id,
            "suite_id": self.suite_id,
            "task_id": self.task_id,
            "temperature": self.temperature,
            "sample_index": self.sample_index,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkUnit":
        return cls(
            manifest_hash=str(payload["manifest_hash"]),
            profile_id=str(payload["profile_id"]),
            suite_id=str(payload["suite_id"]),
            task_id=str(payload["task_id"]),
            temperature=float(payload["temperature"]),
            sample_index=int(payload["sample_index"]),
        )


# --------------------------------------------------------------------------- manifest
@dataclass
class RunManifest:
    """Declarative description of one sweep: what to run, at what scale."""

    name: str
    experiment: str  # table4 | table5 | table6 | fig3 | fig4 | custom
    scale: dict = field(default_factory=dict)  # ExperimentScale.to_dict()
    config: EvaluationConfig = field(default_factory=EvaluationConfig)
    profiles: list[ProfileSpec] = field(default_factory=list)
    suites: list[SuiteSpec] = field(default_factory=list)
    portions: tuple[int, ...] = ()  # fig4 K/L grid axes, percent
    version: int = MANIFEST_VERSION

    def __post_init__(self) -> None:
        # An empty sweep would expand to no units: a "finished" run of empty rows.
        if not self.config.temperatures:
            raise ValueError("EvaluationConfig.temperatures is empty: no sample can be drawn")

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "name": self.name,
            "experiment": self.experiment,
            "scale": dict(self.scale),
            "config": self.config.to_dict(),
            "profiles": [spec.to_dict() for spec in self.profiles],
            "suites": [spec.to_dict() for spec in self.suites],
            "portions": list(self.portions),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunManifest":
        return cls(
            name=str(payload["name"]),
            experiment=str(payload["experiment"]),
            scale=dict(payload.get("scale", {})),
            config=EvaluationConfig.from_dict(payload["config"]),
            profiles=[ProfileSpec.from_dict(entry) for entry in payload.get("profiles", [])],
            suites=[SuiteSpec.from_dict(entry) for entry in payload.get("suites", [])],
            portions=tuple(int(p) for p in payload.get("portions", [])),
            version=int(payload.get("version", MANIFEST_VERSION)),
        )

    @property
    def manifest_hash(self) -> str:
        """Content address of the whole sweep declaration."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    def profile(self, profile_id: str) -> ProfileSpec:
        for spec in self.profiles:
            if spec.profile_id == profile_id:
                return spec
        raise KeyError(f"unknown profile id {profile_id!r}")

    def expand(self, suite_task_ids: Mapping[str, Sequence[str]]) -> list[WorkUnit]:
        """Deterministically expand the sweep into its work units.

        ``suite_task_ids`` maps every suite id in the manifest to that suite's
        task ids *in suite order* (the resolver provides this); the expansion
        order mirrors the serial in-memory drivers so sharding by unit index is
        stable across processes.
        """
        manifest_hash = self.manifest_hash
        units: list[WorkUnit] = []
        for profile in self.profiles:
            for suite in self.suites:
                for task_id in suite_task_ids[suite.suite_id]:
                    for temperature in self.config.temperatures:
                        for sample_index in range(self.config.num_samples):
                            units.append(
                                WorkUnit(
                                    manifest_hash=manifest_hash,
                                    profile_id=profile.profile_id,
                                    suite_id=suite.suite_id,
                                    task_id=task_id,
                                    temperature=float(temperature),
                                    sample_index=sample_index,
                                )
                            )
        return units
