"""Log validation and quarantine — the guard at the data boundary.

The paper's methodology is only sound when the harvested tuples
``⟨x, a, r, p⟩`` satisfy its assumptions; real production logs violate
them constantly (§5), and mundanely: truncated lines, missing fields,
zero or out-of-range propensities, actions outside the eligible set.
SAYER and the contextual-bandit productization literature both report
that guarding this boundary is the hard part of shipping these
systems.  This module is that guard:

- :class:`RecordValidator` — composable per-record rules (parseable,
  schema-complete, propensity in (0, 1], action in the eligible set,
  reward finite/in range, monotone timestamps) that classify each raw
  record as clean, repairable, or rejected.
- :class:`Quarantine` — collects rejected records *with reasons*
  instead of crashing mid-file, and renders a per-reason report.
- Three processing modes, wired through
  :meth:`repro.core.types.Dataset.load_jsonl`,
  :meth:`repro.core.harvest.HarvestPipeline.build_dataset`,
  :class:`repro.core.streaming.ValidatedInteractionStream`, and the
  ``python -m repro evaluate`` CLI:

  - ``"strict"`` — first bad record raises a :class:`ValueError`
    naming the source and 1-based line number;
  - ``"quarantine"`` — bad records are set aside with a reason and
    processing continues;
  - ``"repair"`` — fixable defects (clampable propensities, clippable
    rewards, non-monotone timestamps) are repaired and counted; the
    rest are quarantined.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.columns import ColumnChunk, PackedContexts
from repro.core.types import (
    ActionSpace,
    Context,
    Interaction,
    RewardRange,
)
from repro.obs.metrics import get_metrics
from repro.obs.monitors import NULL_MONITORS, get_monitors

#: Rejection reason codes, used as quarantine bucket keys.
UNPARSEABLE = "unparseable"
SCHEMA = "schema"
PROPENSITY = "propensity"
ACTION = "action"
REWARD = "reward"
TIMESTAMP = "timestamp"
#: Ledger-chain rejections (hash binding broken, tampered content);
#: same code as :data:`repro.audit.ledger.LEDGER`.
LEDGER = "ledger"

REASONS = (UNPARSEABLE, SCHEMA, PROPENSITY, ACTION, REWARD, TIMESTAMP, LEDGER)

#: The recognized processing modes.
MODES = ("strict", "quarantine", "repair")


def check_mode(mode: str) -> str:
    """Validate a processing-mode name."""
    if mode not in MODES:
        raise ValueError(f"unknown validation mode {mode!r}; expected one of {MODES}")
    return mode


@dataclass(frozen=True)
class RejectedRecord:
    """One record the validator refused, with provenance.

    ``line_number`` is 1-based; 0 means the source had no line numbers
    (e.g. an in-memory record stream, where it is the record index + 1).
    """

    line_number: int
    reason: str
    detail: str
    raw: str

    def __str__(self) -> str:
        return f"line {self.line_number}: {self.reason}: {self.detail}"


class Quarantine:
    """Rejected records, collected instead of crashing the pipeline.

    Keeps per-reason counts for every rejection and retains up to
    ``max_kept`` full :class:`RejectedRecord` examples (counting always
    continues past the cap — a 10%-corrupt billion-line log must not
    hold a billion lines of garbage in memory).

    Every rejection and repair is also mirrored to the active metrics
    registry (:mod:`repro.obs.metrics`) as ``validation.rejected`` /
    ``validation.repaired`` counters labeled by reason, and every
    rejection to the active monitor suite
    (:mod:`repro.obs.monitors` — the quarantine-rate and
    ledger-break-rate monitors) — both no-ops until a run installs
    them.  ``record_metrics=False`` opts a quarantine out of the
    mirrors, for a second read of records a run has already counted.
    """

    def __init__(self, max_kept: int = 1000, record_metrics: bool = True) -> None:
        if max_kept < 0:
            raise ValueError("max_kept must be non-negative")
        self.max_kept = max_kept
        self.record_metrics = record_metrics
        self.rejected: list[RejectedRecord] = []
        self.counts: Counter = Counter()
        self.repairs: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def add(self, line_number: int, reason: str, detail: str, raw: str = "") -> None:
        """Record one rejection."""
        self.counts[reason] += 1
        if self.record_metrics:
            get_metrics().counter("validation.rejected", reason=reason).inc()
            get_monitors().observe_rejected(reason)
        if len(self.rejected) < self.max_kept:
            self.rejected.append(
                RejectedRecord(line_number, reason, detail, raw[:200])
            )

    def note_repair(self, reason: str) -> None:
        """Record one successful in-place repair (repair mode)."""
        self.repairs[reason] += 1
        if self.record_metrics:
            get_metrics().counter("validation.repaired", reason=reason).inc()

    # -- inspection ----------------------------------------------------------

    @property
    def n_rejected(self) -> int:
        """Total records rejected (including those past ``max_kept``)."""
        return sum(self.counts.values())

    @property
    def n_repaired(self) -> int:
        """Total repairs applied (repair mode only)."""
        return sum(self.repairs.values())

    def __len__(self) -> int:
        return self.n_rejected

    def __bool__(self) -> bool:
        # A quarantine is "truthy" when anything landed in it; an empty
        # quarantine is falsy so `if dataset.quarantine:` reads naturally.
        return self.n_rejected > 0 or self.n_repaired > 0

    def counts_by_reason(self) -> dict[str, int]:
        """Rejection counts keyed by reason code."""
        return dict(self.counts)

    def report(self) -> dict:
        """JSON-serializable summary of everything quarantined."""
        return {
            "n_rejected": self.n_rejected,
            "n_repaired": self.n_repaired,
            "by_reason": dict(self.counts),
            "repairs_by_reason": dict(self.repairs),
            "examples": [
                {
                    "line": r.line_number,
                    "reason": r.reason,
                    "detail": r.detail,
                    "raw": r.raw,
                }
                for r in self.rejected[:10]
            ],
        }

    def summary_text(self) -> str:
        """Human-readable per-reason report for terminals."""
        lines = [
            f"quarantine: {self.n_rejected} record(s) rejected, "
            f"{self.n_repaired} repaired"
        ]
        for reason in sorted(self.counts):
            lines.append(f"  {reason:<12s} {self.counts[reason]}")
        for reason in sorted(self.repairs):
            lines.append(f"  repaired/{reason:<12s} {self.repairs[reason]}")
        for example in self.rejected[:3]:
            lines.append(f"  e.g. {example}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Quarantine(rejected={self.n_rejected}, "
            f"repaired={self.n_repaired})"
        )


def check_values(
    context: Optional[Context],
    action: object,
    reward: object,
    propensity: object,
    eligible: Optional[Sequence[int]] = None,
    reward_range: Optional[RewardRange] = None,
) -> list[tuple[str, str]]:
    """Value-level rules shared by every validation entry point.

    Returns ``(reason, detail)`` issues; empty means the tuple is a
    legal exploration datapoint.  Used both on parsed JSONL records and
    on the harvest pipeline's scavenged-record → propensity-model path.
    """
    issues: list[tuple[str, str]] = []
    # Action: an integer, non-negative, inside the eligible set.
    try:
        action_id = int(action)  # type: ignore[arg-type]
        if isinstance(action, float) and not float(action).is_integer():
            raise ValueError(action)
    except (TypeError, ValueError):
        issues.append((ACTION, f"action {action!r} is not an integer"))
    else:
        if action_id < 0:
            issues.append((ACTION, f"action {action_id} is negative"))
        elif eligible is not None and action_id not in eligible:
            issues.append(
                (ACTION, f"action {action_id} not in eligible set {list(eligible)}")
            )
    # Reward: finite float, inside the declared range when one is known.
    try:
        reward_value = float(reward)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        issues.append((REWARD, f"reward {reward!r} is not a number"))
    else:
        if not math.isfinite(reward_value):
            issues.append((REWARD, f"reward {reward_value} is not finite"))
        elif reward_range is not None and not (
            reward_range.low <= reward_value <= reward_range.high
        ):
            issues.append(
                (
                    REWARD,
                    f"reward {reward_value:g} outside declared range "
                    f"[{reward_range.low:g}, {reward_range.high:g}]",
                )
            )
    # Propensity: a probability, strictly positive (p = 0 breaks IPS).
    try:
        p = float(propensity)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        issues.append((PROPENSITY, f"propensity {propensity!r} is not a number"))
    else:
        if not math.isfinite(p):
            issues.append((PROPENSITY, f"propensity {p} is not finite"))
        elif not 0.0 < p <= 1.0:
            issues.append((PROPENSITY, f"propensity {p:g} outside (0, 1]"))
    return issues


class RecordValidator:
    """Composable per-record rules over raw (parsed-JSON) log records.

    The built-in rules mirror the exploration-tuple contract: schema
    completeness, a well-formed context, ``propensity ∈ (0, 1]``,
    ``action`` in the eligible set, ``reward`` finite and in range, and
    (optionally) monotone timestamps.  ``extra_rules`` appends custom
    callables ``record -> Optional[(reason, detail)]``.

    The monotone-timestamp rule is stateful: call :meth:`reset` before
    reusing a validator on a new log.
    """

    REQUIRED_FIELDS = ("context", "action", "reward", "propensity")

    def __init__(
        self,
        action_space: Optional[ActionSpace] = None,
        reward_range: Optional[RewardRange] = None,
        monotone_timestamps: bool = False,
        repair_propensity_floor: float = 1e-3,
        extra_rules: Sequence = (),
    ) -> None:
        if not 0.0 < repair_propensity_floor <= 1.0:
            raise ValueError("repair_propensity_floor must be in (0, 1]")
        self.action_space = action_space
        self.reward_range = reward_range
        self.monotone_timestamps = monotone_timestamps
        self.repair_propensity_floor = repair_propensity_floor
        self.extra_rules = list(extra_rules)
        self._last_timestamp: Optional[float] = None

    def reset(self) -> None:
        """Forget cross-record state (the last accepted timestamp)."""
        self._last_timestamp = None

    # -- rule evaluation -----------------------------------------------------

    def check(self, record: object) -> list[tuple[str, str]]:
        """All rule violations for one parsed record (empty = clean).

        Pure with respect to validator state: the monotone-timestamp
        watermark only advances via :meth:`observe`, which the drivers
        call after a record is *accepted*.
        """
        if not isinstance(record, Mapping):
            return [(SCHEMA, f"record is {type(record).__name__}, not an object")]
        missing = [f for f in self.REQUIRED_FIELDS if f not in record]
        if missing:
            return [(SCHEMA, f"missing field(s) {missing}")]
        issues: list[tuple[str, str]] = []
        context = record["context"]
        eligible: Optional[Sequence[int]] = None
        if not isinstance(context, Mapping):
            issues.append(
                (SCHEMA, f"context is {type(context).__name__}, not a mapping")
            )
            context = None
        else:
            try:
                context = {str(k): float(v) for k, v in context.items()}
            except (TypeError, ValueError):
                issues.append((SCHEMA, "context has non-numeric feature values"))
                context = None
        if context is not None and self.action_space is not None:
            try:
                eligible = self.action_space.actions(context)
            except (KeyError, ValueError, TypeError):
                eligible = list(range(self.action_space.n_actions))
        issues.extend(
            check_values(
                context,
                record["action"],
                record["reward"],
                record["propensity"],
                eligible=eligible,
                reward_range=self.reward_range,
            )
        )
        full_rewards = record.get("full_rewards")
        if full_rewards is not None:
            try:
                if not all(math.isfinite(float(r)) for r in full_rewards):
                    issues.append((REWARD, "full_rewards contains non-finite values"))
            except (TypeError, ValueError):
                issues.append((REWARD, "full_rewards is not a numeric sequence"))
        if self.monotone_timestamps and self._last_timestamp is not None:
            try:
                timestamp = float(record.get("timestamp", 0.0))
            except (TypeError, ValueError):
                timestamp = None
                issues.append((TIMESTAMP, "timestamp is not a number"))
            if timestamp is not None and timestamp < self._last_timestamp:
                issues.append(
                    (
                        TIMESTAMP,
                        f"timestamp {timestamp:g} precedes previous "
                        f"{self._last_timestamp:g}",
                    )
                )
        for rule in self.extra_rules:
            issue = rule(record)
            if issue is not None:
                issues.append(tuple(issue))  # type: ignore[arg-type]
        return issues

    def observe(self, record: Mapping) -> None:
        """Advance cross-record state after a record is accepted."""
        if self.monotone_timestamps:
            try:
                self._last_timestamp = float(record.get("timestamp", 0.0))
            except (TypeError, ValueError):  # pragma: no cover - checked earlier
                pass

    # -- repair --------------------------------------------------------------

    def repair(
        self, record: Mapping, issues: Sequence[tuple[str, str]]
    ) -> tuple[dict, list[tuple[str, str]], list[str]]:
        """Fix what is fixable; return (record, remaining issues, repairs).

        Repairable defects:

        - propensity > 1 → clamped to 1; propensity ≤ 0 (but numeric and
          finite) → raised to ``repair_propensity_floor`` — a recorded
          guess that keeps the record usable at bounded weight;
        - reward outside the declared range → clipped into it;
        - non-monotone timestamp → raised to the previous timestamp.

        Schema and action defects are structural and never repaired.
        """
        repaired = dict(record)
        remaining: list[tuple[str, str]] = []
        applied: list[str] = []
        for reason, detail in issues:
            if reason == PROPENSITY:
                try:
                    p = float(repaired["propensity"])
                except (TypeError, ValueError):
                    remaining.append((reason, detail))
                    continue
                if not math.isfinite(p):
                    remaining.append((reason, detail))
                elif p > 1.0:
                    repaired["propensity"] = 1.0
                    applied.append(PROPENSITY)
                else:  # p <= 0: floor it
                    repaired["propensity"] = self.repair_propensity_floor
                    applied.append(PROPENSITY)
            elif reason == REWARD and self.reward_range is not None:
                try:
                    r = float(repaired["reward"])
                except (TypeError, ValueError):
                    remaining.append((reason, detail))
                    continue
                if math.isfinite(r):
                    repaired["reward"] = self.reward_range.clip(r)
                    applied.append(REWARD)
                else:
                    remaining.append((reason, detail))
            elif reason == TIMESTAMP and self._last_timestamp is not None:
                try:
                    float(repaired.get("timestamp", 0.0))
                except (TypeError, ValueError):
                    remaining.append((reason, detail))
                    continue
                repaired["timestamp"] = self._last_timestamp
                applied.append(TIMESTAMP)
            else:
                remaining.append((reason, detail))
        return repaired, remaining, applied


def _reject_unparseable(
    error: json.JSONDecodeError,
    raw: str,
    line_number: int,
    mode: str,
    quarantine: Quarantine,
    source_name: str,
) -> None:
    """Refuse (strict) or quarantine one line that is not JSON."""
    if mode == "strict":
        raise ValueError(
            f"{source_name}: invalid JSON at line {line_number}: {error.msg}"
        ) from error
    quarantine.add(line_number, UNPARSEABLE, error.msg, raw)


def _admit(
    record: object,
    raw: str,
    line_number: int,
    mode: str,
    validator: RecordValidator,
    quarantine: Quarantine,
    source_name: str,
    chain_issues: Sequence[tuple[str, str]] = (),
) -> Optional[Interaction]:
    """Judge one parsed record; its Interaction, or ``None`` if refused.

    The single per-record rule path: ``chain_issues`` (the record's
    ledger binding defects, checked by the caller on the record as
    written) reject first and are never repaired; then the validator's
    rules, repairs in repair mode, and the :class:`Interaction`
    constructor's own invariants.  Strict mode raises on the first
    defect instead of quarantining it.
    """
    if chain_issues:
        reason, detail = chain_issues[0]
        if mode == "strict":
            raise ValueError(
                f"{source_name}: line {line_number}: {reason}: {detail}"
            )
        quarantine.add(
            line_number, reason, "; ".join(d for _, d in chain_issues), raw
        )
        return None
    issues = validator.check(record)
    if issues and mode == "repair" and isinstance(record, Mapping):
        record, issues, applied = validator.repair(record, issues)
        for reason in applied:
            quarantine.note_repair(reason)
    if issues:
        reason, detail = issues[0]
        if mode == "strict":
            raise ValueError(
                f"{source_name}: line {line_number}: {reason}: {detail}"
            )
        quarantine.add(
            line_number, reason, "; ".join(d for _, d in issues), raw
        )
        return None
    try:
        interaction = Interaction.from_dict(record)  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError) as error:
        # Belt and braces: whatever the rules missed, the Interaction
        # constructor's own invariants still hold the line.
        if mode == "strict":
            raise ValueError(
                f"{source_name}: line {line_number}: {error}"
            ) from error
        quarantine.add(line_number, SCHEMA, str(error), raw)
        return None
    validator.observe(record)  # type: ignore[arg-type]
    return interaction


def validated_interactions(
    source: Iterable[Union[str, Mapping]],
    mode: str = "strict",
    validator: Optional[RecordValidator] = None,
    quarantine: Optional[Quarantine] = None,
    source_name: str = "<stream>",
    chain=None,
) -> Iterator[Interaction]:
    """Validate a stream of JSONL lines (or parsed dicts) into Interactions.

    The shared driver behind every per-row validated entry point.
    ``source`` may mix raw JSONL strings and already-parsed mappings.
    In strict mode the first defect raises a :class:`ValueError` naming
    ``source_name`` and the 1-based line number; otherwise defects land
    in ``quarantine`` (pass one in to read the report afterwards).
    Blank lines are skipped without counting as rejections.

    ``chain`` (a :class:`repro.audit.ledger.ChainFollower`) adds
    tamper-evidence on top of the value rules: each record's ledger
    hash binding is checked *before* any repair mutates it, broken
    bindings are rejected under the :data:`LEDGER` reason (never
    repaired — a record that fails its own hash has no trustworthy
    content to fix), and the chain head advances over the log as
    written so a single bad record localizes instead of poisoning its
    suffix.
    """
    check_mode(mode)
    validator = validator or RecordValidator()
    validator.reset()
    quarantine = quarantine if quarantine is not None else Quarantine()
    monitors = get_monitors() if quarantine.record_metrics else NULL_MONITORS
    accepted = 0
    for line_number, item in enumerate(source, start=1):
        raw = ""
        if isinstance(item, str):
            raw = item.strip()
            if not raw:
                continue
            try:
                record: object = json.loads(raw)
            except json.JSONDecodeError as error:
                _reject_unparseable(
                    error, raw, line_number, mode, quarantine, source_name
                )
                continue
        else:
            record = item
        chain_issues: list[tuple[str, str]] = []
        if chain is not None and isinstance(record, Mapping):
            # Check the binding on the ORIGINAL record (repair must not
            # resurrect a tampered one), then advance the head over the
            # log as written, accepted or not.
            chain_issues = list(chain.check(record))
            chain.observe(record)
        interaction = _admit(
            record, raw, line_number, mode, validator, quarantine,
            source_name, chain_issues,
        )
        if interaction is None:
            continue
        if monitors.enabled:
            # Batched so quarantine-rate denominators cost one fold per
            # 1024 accepted rows, not one per row.
            accepted += 1
            if accepted >= 1024:
                monitors.observe_rows(accepted)
                accepted = 0
        yield interaction
    if accepted:
        monitors.observe_rows(accepted)


# ---------------------------------------------------------------------------
# columnar bulk reading: the chunked engine's parse-once ingest


@dataclass(frozen=True)
class LogSnapshot:
    """The exact log prefix one read judged.

    ``offset`` is the byte length of the prefix: every line through the
    last complete one (a final line without a newline counts when it
    parses).  ``lines`` counts the lines in it, blank ones included,
    and ``rows`` the rows accepted from them.  ``head`` is the stored
    ledger hash of the prefix's last ledgered record (``None`` for a
    plain log), so ``verify-ledger --expect-head HEAD`` on the first
    ``offset`` bytes re-checks exactly what was judged.
    ``torn_bytes`` is the length of an unterminated trailing fragment
    that did not parse (a write in progress) and was left out.
    """

    offset: int
    lines: int
    rows: int
    head: Optional[str] = None
    torn_bytes: int = 0

    def to_dict(self) -> dict:
        """JSON-able form (manifests, gate decisions)."""
        return {
            "offset": self.offset,
            "lines": self.lines,
            "rows": self.rows,
            "head": self.head,
            "torn_bytes": self.torn_bytes,
        }


def _fast_rules_apply(validator: RecordValidator) -> bool:
    """Whether the array masks reproduce ``validator``'s rules exactly.

    True for the built-in rule set with an unrestricted (or no) action
    space; stateful, custom, or context-dependent rules send every row
    through :meth:`RecordValidator.check` instead.
    """
    space = validator.action_space
    return (
        type(validator) is RecordValidator
        and not validator.monotone_timestamps
        and not validator.extra_rules
        and (space is None or not space.restricted)
    )


#: The value types ``json.loads`` gives a JSON number (bools included,
#: which every rule reads as 0/1); only these reach the array masks.
_JSON_NUMBERS = frozenset((int, float, bool))


def _numbers(raw: list, bad: np.ndarray) -> np.ndarray:
    """``raw`` (JSON numbers) as a numeric array; flags big ints in ``bad``.

    Numbers convert as ``int()``/``float()`` would; an int beyond int64
    is flagged for the per-row rules and zeroed here.  Entries flagged
    by :meth:`_Batch.flag` are already zeros.
    """
    array = np.array(raw)
    if array.dtype.kind in "biuf":
        return array
    ok = np.fromiter(
        (
            type(value) is float
            or (type(value) is int and -(2**63) <= value < 2**63)
            for value in raw
        ),
        dtype=bool,
        count=len(raw),
    )
    bad |= ~ok
    return np.array([value if good else 0 for value, good in zip(raw, ok)])


class _ChunkBuilder:
    """Accepted rows of the current chunk, plus the log's key vocabulary.

    Each context's key tuple (its *signature*) is registered once per
    log; rows keep a signature id and their float values, and
    :meth:`finish` scatters them into a :class:`PackedContexts` over the
    keys the chunk uses.
    """

    def __init__(self) -> None:
        self._vocab: list[str] = []
        self._key_to_col: dict[str, int] = {}
        #: signature (key tuple in insertion order) -> signature id.
        self._signatures: dict[tuple, int] = {}
        self._signature_cols: list[tuple[int, ...]] = []
        self._reset()

    def _reset(self) -> None:
        self.n = 0
        self._pieces: list[tuple] = []
        self._sig_ids: list[int] = []
        self._values: list[tuple] = []

    def register(self, keys: tuple) -> int:
        """The id of a context signature, registering it on first sight."""
        sig = self._signatures.get(keys)
        if sig is None:
            cols = []
            for key in keys:
                col = self._key_to_col.get(key)
                if col is None:
                    col = self._key_to_col[key] = len(self._vocab)
                    self._vocab.append(key)
                cols.append(col)
            sig = self._signatures[keys] = len(self._signature_cols)
            self._signature_cols.append(tuple(cols))
        return sig

    def add_rows(self, columns: tuple, sig_ids: list, values: list) -> None:
        """Append a run of rows.

        ``columns`` holds the run's actions, rewards, propensities and
        timestamps arrays; ``sig_ids``/``values`` its contexts.
        """
        self._pieces.append(columns)
        self._sig_ids.extend(sig_ids)
        self._values.extend(values)
        self.n += len(sig_ids)

    def add_interaction(self, interaction: Interaction) -> None:
        """Append one row the per-row rules accepted."""
        context = interaction.context
        self.add_rows(
            (
                np.array([interaction.action], dtype=np.int64),
                np.array([interaction.reward], dtype=np.float64),
                np.array([interaction.propensity], dtype=np.float64),
                np.array([interaction.timestamp], dtype=np.float64),
            ),
            [self.register(tuple(context))],
            [tuple(map(float, context.values()))],
        )

    def finish(self) -> ColumnChunk:
        """The accumulated rows as one chunk; starts the next one."""
        actions, rewards, propensities, timestamps = (
            np.concatenate([piece[i] for piece in self._pieces]).astype(
                dtype, copy=False
            )
            for i, dtype in enumerate(
                (np.int64, np.float64, np.float64, np.float64)
            )
        )
        sig_ids = np.array(self._sig_ids, dtype=np.int64)
        distinct = np.unique(sig_ids).tolist()
        used = sorted({c for s in distinct for c in self._signature_cols[s]})
        local = {col: i for i, col in enumerate(used)}
        values = np.zeros((self.n, len(used)))
        order = np.zeros((self.n, len(used)), dtype=np.int32)
        for sig in distinct:
            cols = [local[col] for col in self._signature_cols[sig]]
            rows = np.flatnonzero(sig_ids == sig)
            picked = (
                self._values
                if len(distinct) == 1
                else [self._values[row] for row in rows]
            )
            cells = np.ix_(rows, cols)
            values[cells] = np.array(picked, dtype=np.float64).reshape(
                len(rows), len(cols)
            )
            order[cells] = np.arange(1, len(cols) + 1, dtype=np.int32)
        keys = tuple(self._vocab[col] for col in used)
        self._reset()
        return ColumnChunk(
            actions, rewards, propensities, timestamps,
            PackedContexts(values, order, keys),
        )


class _Batch:
    """Candidate rows read since the last settlement, in line order.

    Well-formed records are staged field by field (:meth:`take`);
    every other candidate is *flagged* with what is already known
    against it — its ledger binding defects, or the decode error of a
    line that is not JSON — and settled by the per-row rules.
    """

    def __init__(self) -> None:
        self.lines: list[int] = []
        self.raws: list[str] = []
        self.records: list = []
        #: position -> chain issues, or the JSONDecodeError of the line.
        self.flagged: dict[int, object] = {}
        self.actions: list = []
        self.rewards: list = []
        self.propensities: list = []
        self.timestamps: list = []
        self.sig_ids: list[int] = []
        self.values: list[tuple] = []

    def __len__(self) -> int:
        return len(self.lines)

    def add(self, line_number: int, raw: str, record: object) -> None:
        """Open a candidate; :meth:`take` or :meth:`flag` must follow."""
        self.lines.append(line_number)
        self.raws.append(raw)
        self.records.append(record)

    def take(self, record: dict, builder: _ChunkBuilder) -> bool:
        """Stage a well-formed record's fields; ``False`` if it is not.

        Well-formed means every structural rule of
        :meth:`RecordValidator.check` and :meth:`Interaction.from_dict`
        holds: the required fields exist, action, reward, propensity and
        timestamp are JSON numbers, the context is an object of
        ``float()``-able values, metadata (if any) is an object and
        full rewards (if any) a list of finite numbers.  The field
        values themselves are judged later, by the array masks.  Any
        other value (a string, null, list or object) leaves the row to
        the per-row rules.
        """
        try:
            context = record["context"]
            action = record["action"]
            reward = record["reward"]
            propensity = record["propensity"]
        except KeyError:
            return False
        timestamp = record.get("timestamp", 0.0)
        if type(context) is not dict or not (
            type(action) in _JSON_NUMBERS
            and type(reward) in _JSON_NUMBERS
            and type(propensity) in _JSON_NUMBERS
            and type(timestamp) in _JSON_NUMBERS
        ):
            return False
        if "metadata" in record and type(record["metadata"]) is not dict:
            return False
        full_rewards = record.get("full_rewards")
        if full_rewards is not None:
            try:
                if type(full_rewards) is not list or not all(
                    map(math.isfinite, full_rewards)
                ):
                    return False
            except (TypeError, OverflowError):
                return False
        try:
            values = tuple(map(float, context.values()))
        except (TypeError, ValueError, OverflowError):
            return False
        self.sig_ids.append(builder.register(tuple(context)))
        self.values.append(values)
        self.actions.append(action)
        self.rewards.append(reward)
        self.propensities.append(propensity)
        self.timestamps.append(timestamp)
        return True

    def flag(self, why: object = ()) -> None:
        """Send the newest candidate through the per-row rules."""
        self.flagged[len(self.lines) - 1] = why
        self.actions.append(0)
        self.rewards.append(0.0)
        self.propensities.append(1.0)
        self.timestamps.append(0.0)
        self.sig_ids.append(-1)
        self.values.append(())


class ColumnarReader:
    """Read and validate a JSONL log once, into column chunks.

    The bulk twin of :func:`validated_interactions`, and the chunked
    engine's ingest: it yields :class:`~repro.core.columns.ColumnChunk`
    objects of exactly ``chunk_size`` accepted rows (the last may be
    shorter), with the same acceptances, repairs, quarantine entries
    and strict-mode refusals the per-row driver produces for the same
    lines, and the same monitor feed.

    Every line is parsed by ``json.loads`` once, so line numbers stay
    exact.  Well-formed records go straight to typed arrays and a
    :class:`~repro.core.columns.PackedContexts` over the log's key
    vocabulary; the value rules then run as one array mask per reason
    code.  Only the rows a mask or a structural check flags — and every
    row, when the validator's rules cannot be masked — go through
    :meth:`RecordValidator.check`, :meth:`~RecordValidator.repair` and
    :class:`Interaction`, which keeps reasons, details and repairs
    byte-identical.

    ``chain`` (a :class:`repro.audit.ledger.ChainFollower`) checks each
    record's ledger binding as :func:`validated_interactions` does.
    The read stops at the end of the file as found: a final line
    without a newline that does not parse is a write in progress — it
    is left out and counted in ``snapshot.torn_bytes``, never refused.
    After iteration, :attr:`snapshot` pins the prefix that was judged
    (see :class:`LogSnapshot`).
    """

    def __init__(
        self,
        path: str,
        chunk_size: int,
        *,
        mode: str = "strict",
        validator: Optional[RecordValidator] = None,
        quarantine: Optional[Quarantine] = None,
        chain=None,
    ) -> None:
        check_mode(mode)
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.path = path
        self.chunk_size = chunk_size
        self.mode = mode
        self.validator = validator or RecordValidator()
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self.chain = chain
        #: Rows accepted so far.
        self.rows = 0
        self.snapshot: Optional[LogSnapshot] = None
        self._monitors = NULL_MONITORS
        self._unreported = 0

    def __iter__(self) -> Iterator[ColumnChunk]:
        validator, chain = self.validator, self.chain
        validator.reset()
        if self.quarantine.record_metrics:
            self._monitors = get_monitors()
        fast = _fast_rules_apply(validator)
        # Looked up per read, not at import, so instrumentation that
        # wraps this module's ``json.loads`` sees every parse.
        loads = json.loads
        decode_error = json.JSONDecodeError
        builder = _ChunkBuilder()
        batch = _Batch()
        offset = lines = torn = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                try:
                    raw = line.decode("utf-8").strip()
                    record = loads(raw) if raw else None
                except (UnicodeDecodeError, decode_error) as error:
                    if not line.endswith(b"\n"):
                        torn = len(line)
                        break
                    if isinstance(error, UnicodeDecodeError):
                        raise
                    record = error
                lines += 1
                offset += len(line)
                if not raw:
                    continue
                batch.add(lines, raw, record)
                if type(record) is not dict:
                    batch.flag(record if isinstance(record, decode_error) else ())
                else:
                    issues = ()
                    if chain is not None:
                        issues = chain.check(record)
                        chain.observe(record)
                    if issues or not fast or not batch.take(record, builder):
                        batch.flag(list(issues))
                # Settle before the batch could overfill the chunk, so a
                # chunk closes right after its last accepted row.
                if len(batch) >= self.chunk_size - builder.n:
                    self._settle(batch, builder, fast)
                    batch = _Batch()
                    if builder.n == self.chunk_size:
                        yield builder.finish()
        self._settle(batch, builder, fast)
        if self._unreported:
            self._monitors.observe_rows(self._unreported)
            self._unreported = 0
        if builder.n:
            yield builder.finish()
        self.snapshot = LogSnapshot(
            offset=offset,
            lines=lines,
            rows=self.rows,
            head=chain.head if chain is not None and chain.engaged else None,
            torn_bytes=torn,
        )

    def _masks(self, batch: _Batch) -> tuple[dict, tuple]:
        """One mask per reason code over the staged rows, plus the columns."""
        n = len(batch)
        masks = {reason: np.zeros(n, dtype=bool)
                 for reason in (ACTION, REWARD, PROPENSITY, SCHEMA)}
        actions = _numbers(batch.actions, masks[ACTION])
        rewards = _numbers(batch.rewards, masks[REWARD]).astype(np.float64)
        propensities = _numbers(
            batch.propensities, masks[PROPENSITY]
        ).astype(np.float64)
        timestamps = _numbers(batch.timestamps, masks[SCHEMA]).astype(np.float64)
        if actions.dtype.kind == "f":
            whole = (
                np.isfinite(actions)
                & (actions == np.floor(actions))
                & (np.abs(actions) < 2.0**63)
            )
            masks[ACTION] |= ~whole
            actions = np.where(whole, actions, 0.0)
        actions = actions.astype(np.int64)
        masks[ACTION] |= actions < 0
        space = self.validator.action_space
        if space is not None:
            masks[ACTION] |= actions >= space.n_actions
        masks[REWARD] |= ~np.isfinite(rewards)
        bounds = self.validator.reward_range
        if bounds is not None:
            masks[REWARD] |= (rewards < bounds.low) | (rewards > bounds.high)
        # NaN fails both comparisons, so it is flagged too.
        masks[PROPENSITY] |= ~((propensities > 0.0) & (propensities <= 1.0))
        return masks, (actions, rewards, propensities, timestamps)

    def _settle(self, batch: _Batch, builder: _ChunkBuilder, fast: bool) -> None:
        """Judge a batch in line order, appending accepted rows to ``builder``."""
        n = len(batch)
        if not n:
            return
        flagged = np.zeros(n, dtype=bool)
        flagged[list(batch.flagged)] = True
        if fast and not flagged.all():
            masks, columns = self._masks(batch)
            for mask in masks.values():
                flagged |= mask
        else:
            flagged[:] = True
        start = 0
        for position in [*np.flatnonzero(flagged).tolist(), n]:
            if position > start:
                builder.add_rows(
                    tuple(column[start:position] for column in columns),
                    batch.sig_ids[start:position],
                    batch.values[start:position],
                )
                self._accepted(position - start)
            if position == n:
                break
            start = position + 1
            why = batch.flagged.get(position, ())
            raw, line_number = batch.raws[position], batch.lines[position]
            if isinstance(why, json.JSONDecodeError):
                _reject_unparseable(
                    why, raw, line_number, self.mode, self.quarantine, self.path
                )
                continue
            interaction = _admit(
                batch.records[position], raw, line_number, self.mode,
                self.validator, self.quarantine, self.path, why,
            )
            if interaction is not None:
                builder.add_interaction(interaction)
                self._accepted(1)

    def _accepted(self, count: int) -> None:
        """Count accepted rows; monitors hear of them per 1024 rows.

        The same cadence as :func:`validated_interactions`, so monitor
        windows see the same sequence from either driver.
        """
        self.rows += count
        if self._monitors.enabled:
            self._unreported += count
            while self._unreported >= 1024:
                self._monitors.observe_rows(1024)
                self._unreported -= 1024
