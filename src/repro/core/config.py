"""Configuration for the Gurita scheduler family."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SchedulerError
from repro.schedulers.thresholds import ExponentialThresholds
from repro.simulator.bandwidth.request import DEFAULT_NUM_CLASSES
from repro.simulator.bandwidth.wrr import WEIGHT_MODES


@dataclass
class GuritaConfig:
    """Tunables of Gurita (defaults follow the paper's evaluation §V).

    Attributes
    ----------
    num_classes:
        Priority queues used (the paper evaluates with 4; switches offer 8).
    psi_first, psi_base:
        Exponentially spaced demotion thresholds over the blocking effect
        Ψ.  Ψ has byte-like scale (width × largest flow × factors ≤ 1), so
        the defaults start near Aalo's 10 MB boundary.
    update_interval:
        δ — seconds between head-receiver coordination rounds.
    beta_floor:
        β when all flows of a coflow are equal-sized (paper's 0.1).
    critical_path_bonus:
        λ — relative discount on Ψ for coflows judged to be on a critical
        path (rule 4); 0 disables the rule.
    critical_path_marks:
        AVA bound on coflows flagged critical per job (< 5, the average
        number of stages in production jobs).
    starvation_mitigation:
        When True (default) enforce priorities with WRR-emulated SPQ;
        when False use raw SPQ (the ablation of §IV.B's mitigation).
    wrr_utilization, wrr_weight_mode:
        Parameters of the WRR emulation (see bandwidth.wrr): the total
        class load, in (0, 1), and ``"inverse_wait"`` or ``"literal"``.
    use_flow_tables:
        When True, Ψ̈ estimates flow through the deployment-shaped
        observation plane (per-receiver Jenkins-hash flow tables merged by
        the head receiver, :mod:`repro.core.receiver`) instead of being
        read directly off coflow state.  The two paths are numerically
        equivalent; the plane costs extra bookkeeping and exists for
        architectural fidelity and per-receiver instrumentation.
    hr_failover_rounds:
        δ-rounds a job tolerates its head receiver being on a crashed
        host before the peers elect a replacement (the lowest-numbered
        alive receiver host).  Until the election the job's receivers
        keep scheduling on their stale priority view.
    stale_psi_bound:
        Seconds of HR-sync staleness receivers tolerate before
        discarding stale Ψ̈ decisions and falling back to the local
        default (highest priority, the no-information prior).  ``None``
        (default) disables the bound: receivers continue on stale Ψ̈
        indefinitely — the paper's graceful-degradation baseline.
    """

    num_classes: int = DEFAULT_NUM_CLASSES
    psi_first: float = 10e6
    psi_base: float = 10.0
    update_interval: float = 8e-3
    beta_floor: float = 0.1
    critical_path_bonus: float = 0.1
    critical_path_marks: int = 5
    starvation_mitigation: bool = True
    wrr_utilization: float = 0.9
    wrr_weight_mode: str = "inverse_wait"
    use_flow_tables: bool = False
    hr_failover_rounds: int = 2
    stale_psi_bound: Optional[float] = None

    thresholds: ExponentialThresholds = field(init=False)

    def __post_init__(self) -> None:
        if self.hr_failover_rounds < 1:
            raise SchedulerError(
                f"hr_failover_rounds must be >= 1, got {self.hr_failover_rounds}"
            )
        if self.stale_psi_bound is not None and self.stale_psi_bound <= 0:
            raise SchedulerError(
                f"stale_psi_bound must be positive, got {self.stale_psi_bound}"
            )
        if not 0.0 <= self.critical_path_bonus < 1.0:
            raise SchedulerError(
                f"critical_path_bonus must be in [0, 1), got {self.critical_path_bonus}"
            )
        if not 0.0 < self.beta_floor <= 1.0:
            raise SchedulerError(
                f"beta_floor must be in (0, 1], got {self.beta_floor}"
            )
        if self.update_interval <= 0:
            raise SchedulerError("update_interval must be positive")
        if self.wrr_weight_mode not in WEIGHT_MODES:
            raise SchedulerError(
                f"wrr_weight_mode must be one of {WEIGHT_MODES}, "
                f"got {self.wrr_weight_mode!r}"
            )
        if not 0.0 < self.wrr_utilization < 1.0:
            raise SchedulerError(
                f"wrr_utilization must be in (0, 1), got {self.wrr_utilization}"
            )
        self.thresholds = ExponentialThresholds(
            self.num_classes, first=self.psi_first, base=self.psi_base
        )
