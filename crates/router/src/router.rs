//! The routing core: rendezvous ranking, per-backend sub-batch splitting,
//! golden replication/refresh/readback, health-aware deterministic
//! failover, and **live membership** — join/leave/drain with golden
//! migration, epoch-versioned so every observer can tell which fleet shape
//! answered. Shared by the in-process [`crate::RouterHandle`] and the TCP
//! [`crate::Router`] front.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use cut_filters::BiquadParams;
use dsig_core::{AcceptanceBand, DsigError, Signature, TestSetup};
use dsig_obs::trace::{self, Tracer};
use dsig_obs::{
    Counter, EventLevel, EventLog, Gauge, HealthReport, Histogram, MetricsSnapshot, Registry, SloPolicy, Span, TraceLog,
};
use dsig_serve::server::{group_by_fingerprint, health_sample};
use dsig_serve::{
    AdminRequest, BackendState, FleetRoster, GoldenRecord, RetestRequest, RetestScore, RosterEntry, ScoreResult,
    ServeError,
};

use crate::backend::{Backend, HealthConfig};
use crate::error::{Result, RouterError};
use crate::hash::rank_backends;
use crate::store::RouterStore;

/// Tuning knobs of a router.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Copies of each golden pushed across the rendezvous ranking (the owner
    /// plus `replicas - 1` followers). At least one; more copies let a
    /// failover backend answer without a mid-request refresh.
    pub replicas: usize,
    /// Maximum signatures per forwarded screening sub-batch. Large client
    /// batches are split at this boundary; results are bit-identical at
    /// every boundary because scoring is per-signature pure.
    pub sub_batch: usize,
    /// Health/backoff policy of the backend set.
    pub health: HealthConfig,
    /// SLO thresholds the `DSHC` health check verdicts the fleet against.
    pub slo: SloPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: 2,
            sub_batch: 256,
            health: HealthConfig::default(),
            slo: SloPolicy::default(),
        }
    }
}

/// The routing tier's fleet-wide metric handles, resolved once per core so
/// the forwarding hot path never touches the registry lock.
struct RouterMetrics {
    /// `router.backoff_backends` — ranked backends in failure backoff at the
    /// last forward (a state gauge, refreshed per forwarded operation).
    backoff: Arc<Gauge>,
    /// `router.fanout_us` — latency of one forwarded sub-batch, failover
    /// walk included.
    fanout_us: Arc<Histogram>,
    /// `router.refresh_on_miss` — goldens re-pushed to a backend that
    /// answered "unknown golden" mid-request.
    refresh_on_miss: Arc<Counter>,
    /// `router.membership_epoch` — the live epoch, mirrored as a gauge so a
    /// plain metrics scrape shows membership churn.
    epoch: Arc<Gauge>,
}

/// Per-backend forward/failover/retry counters, embedded in the member
/// entry so they travel with the backend through membership changes.
/// Cloning shares the counters (they are registry handles).
#[derive(Clone)]
struct BackendMetrics {
    /// `router.backend.<label>.forwards` — operations this backend answered.
    forwards: Arc<Counter>,
    /// `router.backend.<label>.failovers` — operations this backend answered
    /// after at least one higher-ranked backend was skipped or had failed.
    failovers: Arc<Counter>,
    /// `router.backend.<label>.retries` — failed attempts against this
    /// backend that sent the operation onward down the chain.
    retries: Arc<Counter>,
}

impl BackendMetrics {
    fn new(registry: &Registry, label: &str) -> BackendMetrics {
        let name = |what: &str| format!("router.backend.{label}.{what}");
        BackendMetrics {
            forwards: registry.counter(&name("forwards")),
            failovers: registry.counter(&name("failovers")),
            retries: registry.counter(&name("retries")),
        }
    }
}

/// One member of the live fleet: the backend, its counters and its drain
/// flag. Entries are cheap to clone (everything shared), which is what
/// makes each membership snapshot an immutable value.
#[derive(Clone)]
struct MemberEntry {
    backend: Arc<Backend>,
    metrics: BackendMetrics,
    /// A draining member stays ranked (last resort under failover) but is
    /// excluded from the preferred partition, so new work steers away.
    draining: bool,
}

/// An immutable snapshot of the fleet at one epoch. Every routed operation
/// takes one `Arc<Membership>` snapshot up front and works entirely within
/// it — indices are snapshot-relative, so a concurrent join/leave can never
/// shift a backend out from under a forward in flight.
struct Membership {
    /// Bumped on every join/leave/drain; starts at 1. Surfaced in `DSHR`
    /// health reports, the `DSAQ` roster and the `router.membership_epoch`
    /// gauge.
    epoch: u64,
    entries: Vec<MemberEntry>,
}

impl Membership {
    /// Member indices in rendezvous order for a fingerprint: owner first.
    /// Draining members still rank — exclusion from new work happens in the
    /// forward partition, not here, so the ranking (and therefore replica
    /// placement) stays a pure function of the member ids.
    fn rank(&self, key: u64) -> Vec<usize> {
        let ids: Vec<u64> = self.entries.iter().map(|entry| entry.backend.id()).collect();
        rank_backends(key, &ids)
    }

    fn index_of(&self, label: &str) -> Option<usize> {
        self.entries.iter().position(|entry| entry.backend.label() == label)
    }
}

/// The routing state shared by every front (TCP listener, in-process
/// handles): the live membership, the authoritative golden store and the
/// config.
pub(crate) struct RouterCore {
    /// The live fleet. Reads are one `Arc` clone under a read lock; writes
    /// (join/leave/drain) install a whole new snapshot with a bumped epoch.
    membership: RwLock<Arc<Membership>>,
    /// Serializes membership changes end to end (snapshot → migrate →
    /// install), so two concurrent joins cannot interleave their golden
    /// migrations or lose each other's epoch bump.
    admin: Mutex<()>,
    store: RouterStore,
    config: RouterConfig,
    registry: Registry,
    tracer: Tracer,
    metrics: RouterMetrics,
}

impl RouterCore {
    /// Builds a core over a non-empty backend set with unique rendezvous
    /// ids, registering its metrics in the process-wide [`Registry::global`].
    pub(crate) fn new(backends: Vec<Backend>, store: RouterStore, config: RouterConfig) -> Result<Self> {
        Self::new_in(backends, store, config, Registry::global())
    }

    /// Like [`RouterCore::new`] with an explicit metrics registry.
    pub(crate) fn new_in(
        backends: Vec<Backend>,
        store: RouterStore,
        config: RouterConfig,
        registry: Registry,
    ) -> Result<Self> {
        if backends.is_empty() {
            return Err(RouterError::NoBackends);
        }
        let mut ids: Vec<u64> = backends.iter().map(Backend::id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(RouterError::Dsig(DsigError::InvalidConfig(
                "router backends must have unique rendezvous ids".into(),
            )));
        }
        let entries: Vec<MemberEntry> = backends
            .into_iter()
            .map(|backend| MemberEntry {
                metrics: BackendMetrics::new(&registry, backend.label()),
                backend: Arc::new(backend),
                draining: false,
            })
            .collect();
        let metrics = RouterMetrics {
            backoff: registry.gauge("router.backoff_backends"),
            fanout_us: registry.histogram("router.fanout_us"),
            refresh_on_miss: registry.counter("router.refresh_on_miss"),
            epoch: registry.gauge("router.membership_epoch"),
        };
        metrics.epoch.set(1.0);
        let tracer = registry.tracer().clone();
        Ok(RouterCore {
            membership: RwLock::new(Arc::new(Membership { epoch: 1, entries })),
            admin: Mutex::new(()),
            store,
            config,
            registry,
            tracer,
            metrics,
        })
    }

    pub(crate) fn store(&self) -> &RouterStore {
        &self.store
    }

    /// One consistent view of the fleet: the snapshot every operation works
    /// within.
    fn snapshot(&self) -> Arc<Membership> {
        Arc::clone(&self.membership.read().expect("membership lock poisoned"))
    }

    /// The live membership epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Number of members (active, draining or backed off) in the live fleet.
    pub(crate) fn backend_count(&self) -> usize {
        self.snapshot().entries.len()
    }

    /// Member labels in membership order.
    pub(crate) fn backend_labels(&self) -> Vec<String> {
        self.snapshot()
            .entries
            .iter()
            .map(|entry| entry.backend.label().to_string())
            .collect()
    }

    /// Member labels in rendezvous order for a fingerprint: owner first,
    /// then its replicas.
    pub(crate) fn rank_labels(&self, key: u64) -> Vec<String> {
        let m = self.snapshot();
        m.rank(key)
            .into_iter()
            .map(|i| m.entries[i].backend.label().to_string())
            .collect()
    }

    /// Resolves a member by label.
    fn find(&self, label: &str) -> Result<Arc<Backend>> {
        let m = self.snapshot();
        m.index_of(label)
            .map(|i| Arc::clone(&m.entries[i].backend))
            .ok_or_else(|| RouterError::Dsig(DsigError::InvalidConfig(format!("unknown backend {label:?}"))))
    }

    /// Kills the member at `label` (see [`Backend::kill`]).
    pub(crate) fn kill_by_label(&self, label: &str) -> Result<()> {
        self.find(label)?.kill();
        Ok(())
    }

    /// Whether the member at `label` is currently marked down.
    pub(crate) fn down_by_label(&self, label: &str) -> Result<bool> {
        Ok(self.find(label)?.is_down())
    }

    /// Revives the member at `label` (see [`Backend::revive`]), logging the
    /// recovery event when this ended a failure streak.
    pub(crate) fn revive_by_label(&self, label: &str) -> Result<()> {
        if self.find(label)?.revive() {
            self.registry.events().emit(
                EventLevel::Info,
                "router",
                "backend.recovered",
                "backend revived by the operator; failure record cleared",
                &[("backend", label)],
            );
        }
        Ok(())
    }

    /// Snapshots the registry this core reports into — the routing tier's
    /// `DSMX` scrape body.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Drains the spans buffered by this core's tracer — the routing tier's
    /// `DSTX` scrape body.
    pub(crate) fn traces(&self) -> TraceLog {
        TraceLog {
            spans: self.registry.tracer().drain(),
        }
    }

    /// Drains the routing tier's events — the `DSEX` scrape body. Like the
    /// other fleet scrapes this aggregates: every reachable backend's
    /// drained events plus the router's own (backend backoff/recovery and
    /// membership transitions, refresh-on-miss records), in the sink's
    /// canonical `(at_us, trace_id, name)` order. In-process fleets share
    /// one global sink with the router; the drain's take-semantics keep
    /// each record exported exactly once either way.
    pub(crate) fn events(&self) -> EventLog {
        let m = self.snapshot();
        let drained: Vec<Option<EventLog>> = std::thread::scope(|scope| {
            let handles: Vec<_> = m
                .entries
                .iter()
                .map(|entry| scope.spawn(move || entry.backend.events().ok()))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("fleet event thread panicked"))
                .collect()
        });
        let mut events: Vec<dsig_obs::EventRecord> = drained.into_iter().flatten().flat_map(|log| log.events).collect();
        events.extend(self.registry.events().drain());
        events.sort_by(|a, b| (a.at_us, a.trace_id, &a.name).cmp(&(b.at_us, b.trace_id, &b.name)));
        EventLog { events }
    }

    /// Scrapes every member's own metrics concurrently (one thread per
    /// member). A dead member yields `None` — the fleet scrape skips it and
    /// [`RouterCore::health`] counts it as down.
    fn scrape_backends(&self, m: &Membership) -> Vec<Option<MetricsSnapshot>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = m
                .entries
                .iter()
                .map(|entry| scope.spawn(move || entry.backend.metrics().ok()))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("fleet scrape thread panicked"))
                .collect()
        })
    }

    /// Answers a `DSFM` fleet-metrics scrape: every member's snapshot under
    /// `backend.<label>.`, the cross-backend rollup under `fleet.`, and the
    /// router's own registry unprefixed. Unreachable members are skipped —
    /// a fleet scrape is an observation, never a failure.
    pub(crate) fn fleet_metrics(&self) -> MetricsSnapshot {
        let m = self.snapshot();
        let scraped = self.scrape_backends(&m);
        let parts: Vec<(String, MetricsSnapshot)> = m
            .entries
            .iter()
            .zip(scraped)
            .filter_map(|(entry, snapshot)| snapshot.map(|s| (entry.backend.label().to_string(), s)))
            .collect();
        MetricsSnapshot::merge_fleet(&parts, &self.registry.snapshot())
    }

    /// Answers a `DSFT` fleet-trace drain: every reachable member's spans
    /// plus the router's own, in the tracer's canonical
    /// `(trace_id, start_us, span_id)` order. Consuming, like every drain.
    pub(crate) fn fleet_traces(&self) -> TraceLog {
        let m = self.snapshot();
        let drained: Vec<Option<TraceLog>> = std::thread::scope(|scope| {
            let handles: Vec<_> = m
                .entries
                .iter()
                .map(|entry| scope.spawn(move || entry.backend.traces().ok()))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("fleet trace thread panicked"))
                .collect()
        });
        let mut spans: Vec<dsig_obs::SpanRecord> = drained.into_iter().flatten().flat_map(|log| log.spans).collect();
        spans.extend(self.registry.tracer().drain());
        spans.sort_by_key(|span| (span.trace_id, span.start_us, span.span_id));
        TraceLog { spans }
    }

    /// Answers a `DSHC` health check: scrapes the fleet, counts a member
    /// down when its health record backs it off *or* its scrape fails
    /// (a killed backend is down right now even before any forward has
    /// armed the backoff), and verdicts the `fleet.` rollup against the
    /// configured [`SloPolicy`]. The report carries the live membership
    /// epoch, so an operator watching health sees churn as it lands.
    pub(crate) fn health(&self) -> HealthReport {
        let now = Instant::now();
        let m = self.snapshot();
        let scraped = self.scrape_backends(&m);
        let down = m
            .entries
            .iter()
            .zip(&scraped)
            .filter(|(entry, snapshot)| snapshot.is_none() || !entry.backend.is_available(now))
            .count();
        let parts: Vec<(String, MetricsSnapshot)> = m
            .entries
            .iter()
            .zip(scraped)
            .filter_map(|(entry, snapshot)| snapshot.map(|s| (entry.backend.label().to_string(), s)))
            .collect();
        let merged = MetricsSnapshot::merge_fleet(&parts, &self.registry.snapshot());
        let mut report =
            self.config
                .slo
                .evaluate(health_sample(&merged, "fleet.", down as u32, m.entries.len() as u32));
        report.epoch = m.epoch;
        report
    }

    /// The live roster: epoch plus every member's label, id and state — the
    /// `DSAQ` list body, also returned by every admin verb so the caller
    /// sees the fleet it just changed.
    pub(crate) fn roster(&self) -> FleetRoster {
        let m = self.snapshot();
        let now = Instant::now();
        FleetRoster {
            epoch: m.epoch,
            entries: m
                .entries
                .iter()
                .map(|entry| RosterEntry {
                    label: entry.backend.label().to_string(),
                    id: entry.backend.id(),
                    state: if entry.draining {
                        BackendState::Draining
                    } else if !entry.backend.is_available(now) {
                        BackendState::BackedOff
                    } else {
                        BackendState::Active
                    },
                })
                .collect(),
        }
    }

    /// Dispatches one decoded `DSAQ` admin verb.
    pub(crate) fn admin(&self, request: &AdminRequest) -> Result<FleetRoster> {
        match request {
            AdminRequest::Join { label } => self.join_by_label(label),
            AdminRequest::Leave { label } => self.leave_backend(label),
            AdminRequest::Drain { label } => self.drain_backend(label),
            AdminRequest::List => Ok(self.roster()),
        }
    }

    /// The wire join: an existing member (any transport) is reactivated by
    /// label; a new one must be a dialable `host:port`, joined as a TCP
    /// backend.
    pub(crate) fn join_by_label(&self, label: &str) -> Result<FleetRoster> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        let m = self.snapshot();
        if let Some(index) = m.index_of(label) {
            return self.reactivate_locked(&m, index);
        }
        let addr: SocketAddr = label.parse().map_err(|_| {
            RouterError::Dsig(DsigError::InvalidConfig(format!(
                "cannot join {label:?}: not a member and not a dialable host:port address"
            )))
        })?;
        self.join_new_locked(&m, Backend::tcp(addr))
    }

    /// Admits an explicit [`Backend`] (TCP or in-process) into the live
    /// fleet, migrating the goldens it now owns onto it **before** the
    /// membership flips — a joining backend warms up without operator
    /// action and never sees a request it cannot answer. Idempotent by
    /// label: joining an active member is a no-op, joining a draining one
    /// reactivates it.
    pub(crate) fn join_backend(&self, backend: Backend) -> Result<FleetRoster> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        let m = self.snapshot();
        if let Some(index) = m.index_of(backend.label()) {
            return self.reactivate_locked(&m, index);
        }
        self.join_new_locked(&m, backend)
    }

    /// Reactivates an existing member (caller holds the admin lock): a
    /// draining member returns to active duty (with its owned goldens
    /// re-warmed), an active member is an acknowledged no-op.
    fn reactivate_locked(&self, m: &Membership, index: usize) -> Result<FleetRoster> {
        if !m.entries[index].draining {
            return Ok(self.roster());
        }
        let mut entries = m.entries.clone();
        entries[index].draining = false;
        let next = Arc::new(Membership {
            epoch: m.epoch + 1,
            entries,
        });
        self.warm_up(&next, index)?;
        let label = next.entries[index].backend.label().to_string();
        self.install(
            next,
            "backend.joined",
            "draining member reactivated and re-warmed",
            &label,
        );
        Ok(self.roster())
    }

    /// Admits a brand-new member (caller holds the admin lock): goldens
    /// migrate first, the membership flips second.
    fn join_new_locked(&self, m: &Membership, backend: Backend) -> Result<FleetRoster> {
        if m.entries.iter().any(|entry| entry.backend.id() == backend.id()) {
            return Err(RouterError::Dsig(DsigError::InvalidConfig(format!(
                "backend {} collides with an existing rendezvous id",
                backend.label()
            ))));
        }
        let label = backend.label().to_string();
        let mut entries = m.entries.clone();
        entries.push(MemberEntry {
            metrics: BackendMetrics::new(&self.registry, &label),
            backend: Arc::new(backend),
            draining: false,
        });
        let index = entries.len() - 1;
        let next = Arc::new(Membership {
            epoch: m.epoch + 1,
            entries,
        });
        self.warm_up(&next, index)?;
        self.install(
            next,
            "backend.joined",
            "new member admitted; owned goldens migrated",
            &label,
        );
        Ok(self.roster())
    }

    /// Pushes every golden whose replica set (under `next`'s ranking)
    /// includes member `index` onto that member — the join-time migration.
    /// Any push failure rejects the whole join: an unreachable backend must
    /// not enter the rotation cold.
    fn warm_up(&self, next: &Membership, index: usize) -> Result<usize> {
        let replicas = self.config.replicas.max(1);
        let mut migrated = 0usize;
        for key in self.store.keys() {
            let rank = next.rank(key);
            if !rank.iter().take(replicas).any(|&i| i == index) {
                continue;
            }
            let Some(record) = self.store.get(key) else { continue };
            next.entries[index].backend.push(key, &record)?;
            migrated += 1;
        }
        Ok(migrated)
    }

    /// Removes the member at `label` from the fleet, re-replicating its
    /// goldens to the surviving owners **before** it goes. Idempotent by
    /// label: leaving an unknown member is an acknowledged no-op. The last
    /// member cannot leave — a router with no backends can answer nothing.
    pub(crate) fn leave_backend(&self, label: &str) -> Result<FleetRoster> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        let m = self.snapshot();
        let Some(index) = m.index_of(label) else {
            return Ok(self.roster());
        };
        if m.entries.len() == 1 {
            return Err(RouterError::Dsig(DsigError::InvalidConfig(format!(
                "cannot remove {label:?}: it is the last backend of the fleet"
            ))));
        }
        self.rereplicate_from(&m, index);
        let mut entries = m.entries.clone();
        entries.remove(index);
        let next = Arc::new(Membership {
            epoch: m.epoch + 1,
            entries,
        });
        self.install(
            next,
            "backend.left",
            "member removed; its golden replicas re-homed to survivors",
            label,
        );
        Ok(self.roster())
    }

    /// Marks the member at `label` draining: new work steers away (it stays
    /// ranked as a failover last resort) and its goldens are re-replicated
    /// to the non-draining members so the replica count survives its
    /// eventual removal. Idempotent by label; draining an unknown member is
    /// an error (a drain never removes, so resubmission converges).
    pub(crate) fn drain_backend(&self, label: &str) -> Result<FleetRoster> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        let m = self.snapshot();
        let Some(index) = m.index_of(label) else {
            return Err(RouterError::Dsig(DsigError::InvalidConfig(format!(
                "cannot drain unknown backend {label:?}"
            ))));
        };
        if m.entries[index].draining {
            return Ok(self.roster());
        }
        let mut entries = m.entries.clone();
        entries[index].draining = true;
        let next = Arc::new(Membership {
            epoch: m.epoch + 1,
            entries,
        });
        self.install(
            Arc::clone(&next),
            "backend.draining",
            "member draining: new work steers away; goldens re-replicating",
            label,
        );
        self.rereplicate_from(&next, index);
        Ok(self.roster())
    }

    /// Installs a new membership snapshot and logs the transition.
    fn install(&self, next: Arc<Membership>, event: &str, detail: &str, label: &str) {
        let epoch = next.epoch;
        self.metrics.epoch.set(epoch as f64);
        *self.membership.write().expect("membership lock poisoned") = next;
        self.registry.events().emit(
            EventLevel::Info,
            "router",
            event,
            detail,
            &[("backend", label), ("epoch", &epoch.to_string())],
        );
    }

    /// Re-replicates every golden whose replica set includes member `index`
    /// onto the first `replicas` other, non-draining members — the shared
    /// engine behind leave, drain and replica healing. Best-effort: a
    /// failing target is marked down and skipped (refresh-on-miss covers
    /// any copy this pass could not place). Returns the goldens re-homed.
    fn rereplicate_from(&self, m: &Membership, index: usize) -> usize {
        let now = Instant::now();
        let replicas = self.config.replicas.max(1);
        let mut rehomed = 0usize;
        for key in self.store.keys() {
            let rank = m.rank(key);
            if !rank.iter().take(replicas).any(|&i| i == index) {
                continue;
            }
            let Some(record) = self.store.get(key) else { continue };
            let mut placed = false;
            for &target in rank
                .iter()
                .filter(|&&i| i != index && !m.entries[i].draining)
                .take(replicas)
            {
                match m.entries[target].backend.push(key, &record) {
                    Ok(()) => {
                        self.mark_success(&m.entries[target]);
                        placed = true;
                    }
                    // A plain failure note (no healing re-entry): healing a
                    // second dead member will be triggered by its own
                    // forward-path failures, not recursively from here.
                    Err(_) => self.note_failure_plain(&m.entries[target], now),
                }
            }
            if placed {
                rehomed += 1;
            }
        }
        rehomed
    }

    /// Clears a member's failure record, logging the recovery event when
    /// this ends a failure streak.
    fn mark_success(&self, entry: &MemberEntry) {
        if entry.backend.note_success() {
            self.registry.events().emit(
                EventLevel::Info,
                "router",
                "backend.recovered",
                "backend answered again after a failure streak; failure record cleared",
                &[("backend", entry.backend.label())],
            );
        }
    }

    /// Records a failure without the healing check — used inside the
    /// healing pass itself.
    fn note_failure_plain(&self, entry: &MemberEntry, now: Instant) {
        if entry.backend.note_failure(now, &self.config.health) {
            self.registry.events().emit(
                EventLevel::Warn,
                "router",
                "backend.backed_off",
                "backend failed; marked down with exponential backoff (deprioritized, not abandoned)",
                &[("backend", entry.backend.label())],
            );
        }
    }

    /// Records a failure against member `index`, logging the backed-off
    /// event when this starts a failure streak — and, when the streak's
    /// backoff saturates at the configured cap (the backend has stayed
    /// dead past every doubling), **heals the replicas**: every golden the
    /// dead member held a copy of is re-replicated to the surviving
    /// owners, once per death.
    fn mark_failure(&self, m: &Membership, index: usize, now: Instant) {
        let entry = &m.entries[index];
        self.note_failure_plain(entry, now);
        if entry.backend.arm_heal(&self.config.health) {
            let healed = self.rereplicate_from(m, index);
            self.registry.events().emit(
                EventLevel::Warn,
                "router",
                "replica.healed",
                "backend stayed dead past its backoff cap; its golden replicas were re-replicated to surviving owners",
                &[
                    ("backend", entry.backend.label()),
                    ("goldens", &healed.to_string()),
                    ("epoch", &m.epoch.to_string()),
                ],
            );
        }
    }

    /// The member a key is dispatched to right now: the highest-ranked
    /// non-draining member outside a failure backoff, or the owner if every
    /// ranked member is backed off or draining (it will be retried —
    /// backoff deprioritizes, never abandons).
    fn preferred(&self, m: &Membership, key: u64, now: Instant) -> usize {
        let rank = m.rank(key);
        rank.iter()
            .copied()
            .find(|&i| !m.entries[i].draining && m.entries[i].backend.is_available(now))
            .unwrap_or(rank[0])
    }

    /// One attempt of an arbitrary golden-addressed operation against one
    /// member, refreshing the golden from the router store when the backend
    /// misses it (the replication path's "refresh on miss").
    fn try_backend<T>(
        &self,
        backend: &Backend,
        key: u64,
        attempt: &impl Fn(&Backend) -> std::result::Result<T, ServeError>,
    ) -> std::result::Result<T, ServeError> {
        match attempt(backend) {
            Err(ServeError::UnknownGolden(_)) => match self.store.get(key) {
                Some(record) => {
                    backend.push(key, &record)?;
                    self.metrics.refresh_on_miss.inc();
                    self.registry.events().emit(
                        EventLevel::Info,
                        "router",
                        "golden.refresh_on_miss",
                        "backend missed a golden mid-request; re-pushed from the router store",
                        &[("golden_key", &format!("{key:#x}")), ("backend", backend.label())],
                    );
                    attempt(backend)
                }
                None => Err(ServeError::UnknownGolden(key)),
            },
            other => other,
        }
    }

    /// Forwards one golden-addressed operation through the failover chain:
    /// every member in rendezvous order — available non-draining ones
    /// first, then backed-off and draining ones as a last resort. The first
    /// success wins; both operations routed this way (plain screening and
    /// adaptive retest) are pure functions of `(golden, observed,
    /// band/policy)`, so *which* member answers can never change a verdict.
    fn forward_with_failover<T>(
        &self,
        key: u64,
        attempt: impl Fn(&Backend) -> std::result::Result<T, ServeError>,
    ) -> Result<T> {
        let _fanout = Span::enter(&self.metrics.fanout_us);
        // One membership snapshot and one clock sample per forward: the
        // partitioning and any failure bookkeeping below see the same fleet
        // and the same instant, so a member can never be judged available
        // and then shifted or back-dated past its own check.
        let now = Instant::now();
        let m = self.snapshot();
        let rank = m.rank(key);
        let (preferred, last_resort): (Vec<usize>, Vec<usize>) = rank
            .iter()
            .copied()
            .partition(|&i| !m.entries[i].draining && m.entries[i].backend.is_available(now));
        self.metrics.backoff.set(last_resort.len() as f64);

        let inbound = trace::current_context();
        let mut failures: Vec<String> = Vec::new();
        let mut misses = 0usize;
        for (position, &index) in preferred.iter().chain(&last_resort).enumerate() {
            let entry = &m.entries[index];
            let backend = entry.backend.as_ref();
            let mut forward_span = self.tracer.span("router.forward", "router", inbound);
            forward_span.annotate("backend", backend.label());
            if position > 0 {
                forward_span.annotate("failover", position);
            }
            // The backend call runs under the forward span's context, so a
            // serving backend parents its spans beneath this forward.
            let outcome = {
                let _ctx = trace::with_context(forward_span.context());
                self.try_backend(backend, key, &attempt)
            };
            match outcome {
                Ok(scores) => {
                    self.mark_success(entry);
                    entry.metrics.forwards.inc();
                    if position > 0 {
                        entry.metrics.failovers.inc();
                    }
                    return Ok(scores);
                }
                Err(ServeError::UnknownGolden(_)) => {
                    // The backend answered (it is healthy) — neither it nor
                    // the router store holds the golden.
                    misses += 1;
                    forward_span.annotate("outcome", "unknown_golden");
                    failures.push(format!("{}: unknown golden", backend.label()));
                }
                Err(err) => {
                    self.mark_failure(&m, index, now);
                    entry.metrics.retries.inc();
                    forward_span.annotate("outcome", "failed");
                    failures.push(format!("{}: {err}", backend.label()));
                }
            }
        }
        if misses == rank.len() {
            return Err(RouterError::UnknownGolden(key));
        }
        Err(RouterError::AllBackendsFailed {
            key,
            detail: failures.join("; "),
        })
    }

    /// Forwards one screening sub-batch through the failover chain.
    fn forward_chunk(&self, key: u64, chunk: &[Signature]) -> Result<Vec<ScoreResult>> {
        self.forward_with_failover(key, |backend| backend.screen(key, chunk))
    }

    /// Scores a batch against one golden: the batch is split at the
    /// configured sub-batch boundary and each piece is forwarded through the
    /// failover chain, so a backend dying mid-batch only re-routes the
    /// not-yet-scored remainder.
    pub(crate) fn screen(&self, key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
        let sub_batch = self.config.sub_batch.max(1);
        let mut screen_span = self.tracer.span("router.screen", "router", trace::current_context());
        screen_span.annotate("batch", signatures.len());
        if signatures.is_empty() {
            // Forward the empty batch anyway so an unknown fingerprint is
            // reported exactly like the serving tier reports it.
            let _ctx = trace::with_context(screen_span.context());
            return self.forward_chunk(key, signatures);
        }
        let mut results = Vec::with_capacity(signatures.len());
        for (piece, chunk) in signatures.chunks(sub_batch).enumerate() {
            let mut sub_span = self.tracer.span("router.sub_batch", "router", screen_span.context());
            sub_span.annotate("piece", piece);
            sub_span.annotate("items", chunk.len());
            let _ctx = trace::with_context(sub_span.context());
            results.extend(self.forward_chunk(key, chunk)?);
        }
        Ok(results)
    }

    /// Screens an adaptive-retest batch: the request is split at the
    /// configured sub-batch boundary (counted in devices) and each piece is
    /// forwarded to the golden's owner along the same failover chain plain
    /// screening uses — the owning backend reruns marginal devices with
    /// averaged repeats before verdicting, and a backend dying mid-batch
    /// only re-routes the not-yet-decided remainder.
    pub(crate) fn screen_retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
        let key = request.golden_key;
        let mut retest_span = self.tracer.span("router.retest", "router", trace::current_context());
        retest_span.annotate("devices", request.items.len());
        if request.items.is_empty() {
            // Forward the empty batch anyway so an unknown fingerprint is
            // reported exactly like the serving tier reports it.
            let _ctx = trace::with_context(retest_span.context());
            return self.forward_with_failover(key, |backend| backend.retest(request));
        }
        let sub_batch = self.config.sub_batch.max(1);
        let mut results = Vec::with_capacity(request.items.len());
        for (piece_index, chunk) in request.items.chunks(sub_batch).enumerate() {
            let mut sub_span = self.tracer.span("router.sub_batch", "router", retest_span.context());
            sub_span.annotate("piece", piece_index);
            sub_span.annotate("items", chunk.len());
            let _ctx = trace::with_context(sub_span.context());
            let piece = RetestRequest {
                golden_key: key,
                policy: request.policy.clone(),
                items: chunk.to_vec(),
            };
            results.extend(self.forward_with_failover(key, |backend| backend.retest(&piece))?);
        }
        Ok(results)
    }

    /// Scores a multi-golden batch: items are grouped by fingerprint, the
    /// groups are bucketed by the member that currently owns them, buckets
    /// are forwarded **concurrently** (one thread per member bucket), and
    /// results are reassembled in request order. Each group still goes
    /// through the full failover chain, so a dead owner degrades to its
    /// replica instead of failing the batch.
    pub(crate) fn screen_multi(&self, items: &[(u64, Signature)]) -> Result<Vec<ScoreResult>> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let now = Instant::now();
        let m = self.snapshot();
        // Group item indices by fingerprint (first-appearance order — the
        // same grouping the serving tier uses), then bucket the groups by
        // their currently preferred member.
        let groups = group_by_fingerprint(items);
        let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (group, (key, _)) in groups.iter().enumerate() {
            buckets.entry(self.preferred(&m, *key, now)).or_default().push(group);
        }

        let results: Mutex<Vec<Option<ScoreResult>>> = Mutex::new(vec![None; items.len()]);
        let errors: Mutex<Vec<(usize, RouterError)>> = Mutex::new(Vec::new());
        // The ambient trace context is thread-local; capture it here so the
        // bucket threads re-establish it before forwarding.
        let inbound = trace::current_context();
        std::thread::scope(|scope| {
            for (bucket_order, group_ids) in buckets.values().enumerate() {
                let results = &results;
                let errors = &errors;
                let groups = &groups;
                scope.spawn(move || {
                    let _ctx = trace::with_context(inbound);
                    for &group in group_ids {
                        let (key, indices) = &groups[group];
                        let key = *key;
                        let batch: Vec<Signature> = indices.iter().map(|&i| items[i].1.clone()).collect();
                        match self.screen(key, &batch) {
                            Ok(scores) => {
                                let mut slots = results.lock().expect("router results lock poisoned");
                                for (&index, score) in indices.iter().zip(scores) {
                                    slots[index] = Some(score);
                                }
                            }
                            Err(err) => {
                                errors
                                    .lock()
                                    .expect("router errors lock poisoned")
                                    .push((bucket_order, err));
                                return;
                            }
                        }
                    }
                });
            }
        });
        let mut errors = errors.into_inner().expect("router errors lock poisoned");
        if !errors.is_empty() {
            // Deterministic error selection: the first failing bucket wins.
            errors.sort_by_key(|&(bucket_order, _)| bucket_order);
            return Err(errors.remove(0).1);
        }
        Ok(results
            .into_inner()
            .expect("router results lock poisoned")
            .into_iter()
            .map(|slot| slot.expect("every item scored"))
            .collect())
    }

    /// Pushes a record to the first `replicas` non-draining members of the
    /// key's rendezvous ranking. Succeeds when at least one copy lands;
    /// members that refuse are marked down and reported in the error
    /// otherwise.
    fn replicate(&self, key: u64, record: &GoldenRecord) -> Result<usize> {
        let now = Instant::now();
        let m = self.snapshot();
        let rank = m.rank(key);
        let eligible: Vec<usize> = rank.iter().copied().filter(|&i| !m.entries[i].draining).collect();
        let targets: &[usize] = if eligible.is_empty() { &rank } else { &eligible };
        let copies = self.config.replicas.max(1).min(targets.len());
        let mut pushed = 0usize;
        let mut failures: Vec<String> = Vec::new();
        for &index in targets {
            if pushed == copies {
                break;
            }
            let entry = &m.entries[index];
            match entry.backend.push(key, record) {
                Ok(()) => {
                    self.mark_success(entry);
                    pushed += 1;
                }
                Err(err) => {
                    self.mark_failure(&m, index, now);
                    failures.push(format!("{}: {err}", entry.backend.label()));
                }
            }
        }
        if pushed == 0 {
            return Err(RouterError::AllBackendsFailed {
                key,
                detail: failures.join("; "),
            });
        }
        Ok(pushed)
    }

    /// Characterizes `(setup, reference)` into the router store and
    /// replicates the record to its owning members; returns the fingerprint
    /// clients screen with.
    pub(crate) fn characterize(
        &self,
        setup: &TestSetup,
        reference: &BiquadParams,
        band: AcceptanceBand,
    ) -> Result<u64> {
        let key = self.store.characterize(setup, reference, band)?;
        let record = self.store.get(key).expect("characterize stores the record");
        self.replicate(key, &record)?;
        Ok(key)
    }

    /// Stores an already-characterized golden and replicates it — the
    /// routing-tier form of the `DSGP` push.
    pub(crate) fn push_golden(&self, key: u64, golden: Signature, band: AcceptanceBand) -> Result<()> {
        self.store.insert(key, golden, band);
        let record = self.store.get(key).expect("insert stores the record");
        self.replicate(key, &record)?;
        Ok(())
    }

    /// Resolves a golden record: the router store first, then readback from
    /// the members in rendezvous order (caching the record locally) — the
    /// `DSGF` path a freshly restarted router uses to repopulate its store.
    pub(crate) fn golden(&self, key: u64) -> Result<std::sync::Arc<GoldenRecord>> {
        if let Some(record) = self.store.get(key) {
            return Ok(record);
        }
        let now = Instant::now();
        let m = self.snapshot();
        for index in m.rank(key) {
            let entry = &m.entries[index];
            match entry.backend.fetch(key) {
                Ok((band, golden)) => {
                    self.mark_success(entry);
                    self.store.insert(key, golden, band);
                    return Ok(self.store.get(key).expect("record just cached"));
                }
                Err(ServeError::UnknownGolden(_)) => {}
                Err(_) => self.mark_failure(&m, index, now),
            }
        }
        Err(RouterError::UnknownGolden(key))
    }
}
