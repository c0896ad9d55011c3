"""The heterogeneous worker fleet: warm simulators pinned to µarch configs.

Each :class:`Worker` models one warm transcoding server — one schedulable
core — pinned to a single microarchitecture configuration: the config
object and the kernel program are built once at fleet construction (the
"warm" state) and reused for every job, so per-job work is only the
trace replay on the worker's configuration.

Fleets come in two flavours, freely mixable in one spec:

- **Table IV config workers** (``fe_op``, ``be_op1``, …): the paper's
  same-ISA serving fleet. Each spec clause yields ``count`` workers at
  the service reference clock, billed at :data:`DEFAULT_RATE_PER_HOUR`
  per worker unless the clause carries a ``$rate`` override.
- **Instance-type workers** (``c5.xlarge``, ``c6g.xlarge``, … from
  :mod:`repro.uarch.instances`): each spec clause yields ``count``
  *instances*, and every instance expands to ``cores`` workers running
  the instance family's µarch at its relative clock, each billed the
  instance's per-core share of the hourly rate. This is the
  heterogeneous-cloud dimension of "Where to Encode: x86 vs Arm EC2".

The spec grammar is ``name[:count][:$rate]``, comma-separated —
``"c5.xlarge:2:$0.17,fe_op"`` rents two c5.xlarge instances at a spot
price and keeps one legacy front-end-optimized worker.

Fault handling mirrors the sweep engine's crash-suspect protocol: a
worker whose execution raises a *non-retryable* exception (retryable
ones are retried in place by the service's
:class:`~repro.resilience.retry.RetryPolicy`) is marked *suspect* and
isolated — it takes no further placements for the life of the fleet.
The ``service.worker`` fault point makes those crashes injectable from a
``--fault-plan``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import session as obs
from repro.resilience.faults import fault_point
from repro.service.jobs import Job
from repro.trace.program import Program
from repro.uarch.configs import CONFIG_NAMES, config_by_name
from repro.uarch.instances import INSTANCE_NAMES, InstanceType, instance_by_name
from repro.uarch.simulator import simulate

__all__ = [
    "DEFAULT_FLEET",
    "DEFAULT_RATE_PER_HOUR",
    "FleetEntry",
    "Worker",
    "WorkerFleet",
    "parse_fleet_spec",
]

#: One worker per Table IV variant — the paper's §V serving fleet.
DEFAULT_FLEET: tuple[str, ...] = ("fe_op", "be_op1", "be_op2", "bs_op")

#: $/hour billed per Table IV config worker when the fleet spec carries
#: no explicit rate — one reference-clock core at roughly the catalogue's
#: per-core x86 price point, so legacy fleets cost something sensible
#: instead of nothing.
DEFAULT_RATE_PER_HOUR = 0.085


@dataclass(frozen=True)
class FleetEntry:
    """One parsed fleet-spec clause: what to rent, how many, at what price.

    ``name`` is either a Table IV config name (one worker per count) or
    an instance-type name (``cores`` workers per count);
    ``rate_per_hour`` overrides the catalogue/default hourly price of
    one unit (one config worker, or one whole instance).
    """

    name: str
    count: int = 1
    rate_per_hour: float | None = None

    def __post_init__(self) -> None:
        if self.name not in CONFIG_NAMES and self.name not in INSTANCE_NAMES:
            raise ValueError(
                f"unknown fleet entry {self.name!r}; choose a µarch config "
                f"({', '.join(CONFIG_NAMES)}) or an instance type "
                f"({', '.join(INSTANCE_NAMES)})"
            )
        if self.count < 1:
            raise ValueError(f"fleet count must be >= 1, got {self.count}")
        if self.rate_per_hour is not None and self.rate_per_hour <= 0:
            raise ValueError(
                f"fleet $rate must be > 0, got {self.rate_per_hour}"
            )

    @property
    def instance(self) -> InstanceType | None:
        """The catalogue profile for instance entries, else ``None``."""
        if self.name in INSTANCE_NAMES:
            return instance_by_name(self.name)
        return None


def parse_fleet_spec(spec: str) -> tuple[FleetEntry, ...]:
    """Parse a fleet spec like ``"c5.xlarge:2:$0.17,fe_op,be_op1:2"``.

    Each comma-separated clause is ``name[:count][:$rate]`` where
    ``name`` is a Table IV config or an instance type, ``count`` repeats
    the unit, and ``$rate`` overrides its hourly price (the ``$`` prefix
    is mandatory, so counts and rates cannot be confused). Raises
    ``ValueError`` on unknown names, malformed or duplicate counts/rates,
    duplicate names, or an empty spec.
    """
    entries: list[FleetEntry] = []
    seen: set[str] = set()
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = [p.strip() for p in clause.split(":")]
        name, args = parts[0], parts[1:]
        count: int | None = None
        rate: float | None = None
        for arg in args:
            if arg.startswith("$"):
                if rate is not None:
                    raise ValueError(f"duplicate $rate in {clause!r}")
                try:
                    rate = float(arg[1:])
                except ValueError:
                    raise ValueError(
                        f"bad $rate {arg!r} in {clause!r}"
                    ) from None
            else:
                if count is not None:
                    raise ValueError(f"duplicate count in {clause!r}")
                try:
                    count = int(arg)
                except ValueError:
                    raise ValueError(
                        f"bad count {arg!r} in {clause!r} "
                        "(rates need a $ prefix)"
                    ) from None
        if name in seen:
            raise ValueError(
                f"duplicate fleet entry {name!r}; "
                "use name:count to size one entry"
            )
        seen.add(name)
        entries.append(
            FleetEntry(
                name=name,
                count=count if count is not None else 1,
                rate_per_hour=rate,
            )
        )
    if not entries:
        raise ValueError(f"empty fleet spec {spec!r}")
    return tuple(entries)


@dataclass
class WorkerStats:
    """Per-worker lifetime accounting."""

    busy_ns: int = 0                 # service-clock time spent on jobs
    cost_usd: float = 0.0            # busy time x this worker's rate


class Worker:
    """One warm server core pinned to a microarchitecture configuration."""

    def __init__(
        self,
        name: str,
        config_name: str,
        *,
        data_capacity_scale: float = 48.0,
        instance: InstanceType | None = None,
        rate_per_hour: float = DEFAULT_RATE_PER_HOUR,
        clock_hz: float = 1.0e6,
    ) -> None:
        self.name = name
        self.config_name = config_name
        #: Instance profile this core belongs to (None for Table IV
        #: config workers) and its catalogue name for metric labels.
        self.instance = instance
        self.instance_name = instance.name if instance else config_name
        # Warm state: the config is materialized once, not per job.
        if instance is not None:
            self.config = instance.build_config(
                data_capacity_scale=data_capacity_scale
            )
        else:
            self.config = config_by_name(
                config_name, data_capacity_scale=data_capacity_scale
            )
        #: This core's simulated frequency (virtual Hz) — instance cores
        #: scale the service reference clock by clock_ghz/3.0, so cycle
        #: counts convert to different virtual durations per family.
        self.clock_hz = clock_hz
        #: $/hour billed for this core (an instance's per-core share).
        self.rate_per_hour = rate_per_hour
        self.suspect = False
        self.stats = WorkerStats()
        #: When this worker's current job finishes, on the service clock
        #: (0 = never dispatched). Under a wall clock this is always in
        #: the past by the time anyone reads it (execution is
        #: synchronous); under a virtual clock it is the busy horizon
        #: that makes queueing-under-load observable.
        self.busy_until_ns = 0

    def charge(self, busy_ns: int) -> float:
        """Account ``busy_ns`` of occupancy and return its dollar cost."""
        cost = busy_ns / 1e9 / 3600.0 * self.rate_per_hour
        self.stats.busy_ns += busy_ns
        self.stats.cost_usd += cost
        return cost

    def execute(self, job: Job, stream, program: Program) -> float:
        """Replay ``job``'s recorded trace on this worker's µarch and
        return the simulated cycles (the job's virtual latency).

        ``service.worker`` is a fault point: plans may raise here to
        model an encoder crash on this worker (the detail string is
        ``"<worker> job=<id>"`` so ``match=`` can target one worker).
        """
        with obs.span(
            "worker.encode", job=job.job_id, worker=self.name,
            config=self.config_name,
        ):
            fault_point(
                "service.worker", detail=f"{self.name} job={job.job_id}"
            )
            return simulate(stream, program, self.config).cycles

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " SUSPECT" if self.suspect else ""
        return f"<Worker {self.name} ({self.config_name}){flag}>"


def _expand(
    entries: tuple, *, data_capacity_scale: float, clock_hz: float
) -> list[Worker]:
    """Expand fleet entries (or bare config names) into workers: one per
    count for a Table IV config, ``cores`` per count for an instance
    type, each billed the per-core share of the unit's hourly rate."""
    workers: list[Worker] = []
    for entry in entries:
        if isinstance(entry, str):
            entry = FleetEntry(name=entry)
        instance = entry.instance
        cores = instance.cores if instance else 1
        unit_rate = entry.rate_per_hour
        if unit_rate is None:
            unit_rate = (instance.rate_per_hour if instance
                         else DEFAULT_RATE_PER_HOUR)
        for _ in range(entry.count * cores):
            workers.append(Worker(
                f"w{len(workers)}:{entry.name}",
                instance.config_name if instance else entry.name,
                data_capacity_scale=data_capacity_scale,
                instance=instance,
                rate_per_hour=unit_rate / cores,
                clock_hz=clock_hz * (instance.clock_scale() if instance else 1.0),
            ))
    return workers


class WorkerFleet:
    """The set of warm workers the placement policy chooses between."""

    def __init__(
        self,
        entries: tuple = DEFAULT_FLEET,
        *,
        data_capacity_scale: float = 48.0,
        clock_hz: float = 1.0e6,
    ) -> None:
        if not entries:
            raise ValueError("fleet needs at least one worker")
        self.workers: list[Worker] = _expand(
            entries, data_capacity_scale=data_capacity_scale,
            clock_hz=clock_hz,
        )
        self._by_name = {w.name: w for w in self.workers}

    @property
    def hourly_rate(self) -> float:
        """The whole fleet's provisioned $/hour (suspects still billed)."""
        return sum(w.rate_per_hour for w in self.workers)

    def cost_usd(self) -> float:
        """Total busy-time dollars charged across the fleet so far."""
        return sum(w.stats.cost_usd for w in self.workers)

    def available(self) -> list[Worker]:
        """Workers eligible for placement (not crash-suspect)."""
        return [w for w in self.workers if not w.suspect]

    def free(self, now_ns: int) -> list[Worker]:
        """Available workers whose busy horizon has passed at ``now_ns``
        — the set continuous admission may place onto right now."""
        return [w for w in self.available() if w.busy_until_ns <= now_ns]

    def isolate(self, worker: Worker) -> None:
        """Mark ``worker`` crash-suspect; it receives no further jobs."""
        worker.suspect = True

    def get(self, name: str) -> Worker:
        """The worker called ``name`` (KeyError if unknown)."""
        return self._by_name[name]
