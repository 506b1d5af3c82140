"""Failure events and the downtime model.

When a machine stops responding, the controller waits up to ``w``
minutes; if the machine recovers on its own at minute ``t ≤ w``,
downtime is ``t``.  Otherwise the controller reboots at minute ``w``
and the machine is back after a reboot that itself takes time, so
downtime is ``w + reboot_minutes``.  Formally::

    downtime(w) = t_recover            if t_recover ≤ w
                = w + reboot_minutes   otherwise

The optimal wait therefore depends on how likely — and how fast — the
machine is to self-recover, which our model ties to the context:
transient network/firmware glitches on healthy machines recover fast
(wait!), kernel/disk failures on old, failure-prone machines don't
(reboot immediately!).  The paper's reward is total downtime *scaled by
the number of VMs* on the machine (Table 1), which we honor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machinehealth.fleet import FAILURE_KINDS, HARDWARE_SKUS, Machine
from repro.simsys.random_source import RandomSource

#: The paper's action set: wait {1, 2, ..., 9} minutes, plus the safe
#: default of 10 used during data collection.  Action id ``i`` means
#: "wait ``i + 1`` minutes".
WAIT_TIMES = tuple(range(1, 11))

#: Sentinel recovery time for machines that never self-recover.
NEVER = math.inf


@dataclass(frozen=True)
class FailureEvent:
    """One unresponsive-machine incident."""

    machine: Machine
    failure_kind: str
    recovery_minutes: float  # NEVER if the machine will not self-recover
    reboot_minutes: float

    def downtime(self, wait_minutes: float) -> float:
        """Downtime (minutes, scaled by VM count) for a given wait."""
        if wait_minutes <= 0:
            raise ValueError("wait must be positive")
        if self.recovery_minutes <= wait_minutes:
            raw = self.recovery_minutes
        else:
            raw = wait_minutes + self.reboot_minutes
        return raw * self.machine.n_vms

    def downtime_profile(self) -> list[float]:
        """Downtime for every wait time in :data:`WAIT_TIMES` — the
        full-feedback vector the Azure logs implicitly contain."""
        return [self.downtime(w) for w in WAIT_TIMES]

    def context_record(self) -> dict:
        """Raw context for this incident (machine + failure kind)."""
        record = self.machine.context_record()
        record["failure_kind"] = self.failure_kind
        return record


class DowntimeModel:
    """Generates context-dependent recovery behaviour.

    Three context-driven quantities:

    - ``recovery_probability``: transient kinds (network, firmware) on
      young, low-failure-count machines usually self-recover; kernel
      and disk failures rarely do, and age/history reduce the odds.
    - ``recovery_minutes``: lognormal, faster for network glitches.
    - ``reboot_minutes``: hardware-dependent (older SKUs POST slower).
    """

    def recovery_probability(self, machine: Machine, failure_kind: str) -> float:
        """Probability the incident resolves without a reboot."""
        base = {
            "network": 0.75,
            "firmware": 0.60,
            "disk": 0.25,
            "kernel": 0.15,
        }[failure_kind]
        # Aging and a failure-prone history both reduce self-recovery.
        penalty = 0.04 * machine.age_years + 0.03 * machine.prior_failures
        return max(0.02, min(0.95, base - penalty))

    def recovery_scale_minutes(self, machine: Machine, failure_kind: str) -> float:
        """Median self-recovery time, in minutes."""
        base = {
            "network": 1.5,
            "firmware": 3.0,
            "disk": 4.0,
            "kernel": 5.0,
        }[failure_kind]
        return base * (1.0 + 0.05 * machine.age_years)

    def reboot_minutes(self, machine: Machine, rng: RandomSource) -> float:
        """How long a reboot keeps the machine down."""
        generation = HARDWARE_SKUS.index(machine.hardware_sku)
        base = 9.0 - 1.2 * generation  # newer generations boot faster
        return max(2.0, base + rng.normal(0.0, 1.0))

    def failure_kind_probabilities(self, machine: Machine) -> list[float]:
        """Failure-kind mix; disk failures grow with age."""
        disk_weight = 1.0 + 0.3 * machine.age_years
        weights = [2.0, disk_weight, 1.0, 1.5]  # network, disk, kernel, firmware
        total = sum(weights)
        return [w / total for w in weights]

    def sample_event(self, machine: Machine, rng: RandomSource) -> FailureEvent:
        """Draw one incident for ``machine``."""
        kind = rng.choice(FAILURE_KINDS, p=self.failure_kind_probabilities(machine))
        if rng.bernoulli(self.recovery_probability(machine, kind)):
            scale = self.recovery_scale_minutes(machine, kind)
            # Lognormal with median `scale`; sigma wide enough that some
            # recoveries land past short waits (so waiting longer pays
            # for some contexts and not others).
            recovery = float(
                math.exp(rng.normal(math.log(scale), 0.6))
            )
        else:
            recovery = NEVER
        return FailureEvent(
            machine=machine,
            failure_kind=kind,
            recovery_minutes=recovery,
            reboot_minutes=self.reboot_minutes(machine, rng),
        )


def generate_failures(
    machines: list[Machine],
    n_events: int,
    randomness: RandomSource,
    model: DowntimeModel = None,
) -> list[FailureEvent]:
    """Draw ``n_events`` incidents across the fleet.

    Failure-prone machines (older, more prior failures) fail more
    often, mirroring real fleet telemetry.
    """
    if not machines:
        raise ValueError("no machines to fail")
    if n_events <= 0:
        raise ValueError("n_events must be positive")
    model = model or DowntimeModel()
    pick_rng = randomness.child("which-machine")
    event_rng = randomness.child("events")
    weights = [1.0 + m.prior_failures + m.age_years / 2.0 for m in machines]
    total = sum(weights)
    probabilities = [w / total for w in weights]
    # ``which-machine`` feeds only these picks, and a size-n draw takes
    # its uniforms in the order n scalar draws would: one call, same
    # machines as picking per event.
    picks = pick_rng.generator.choice(len(machines), size=n_events, p=probabilities)
    return [
        model.sample_event(machines[index], event_rng) for index in picks.tolist()
    ]
