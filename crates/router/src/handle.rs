//! The router, [`RouterHandle`]: rendezvous ranking, whole-request
//! forwarding, golden replication/refresh/readback, health-aware
//! deterministic failover, and **live membership** — join/leave/drain with
//! golden migration, epoch-versioned so every observer can tell which fleet
//! shape answered.
//!
//! A handle works in-process, without any socket, and is a [`Service`]: the
//! TCP [`crate::Router`] holds one and answers every frame through it.
//! [`RouterHandle::spawn`] builds a whole backend fleet in-process (via
//! [`ServeHandle::spawn`]) for tests, benchmarks and single-process
//! deployments.
//!
//! Backends are addressed **by label** (`local-<id>` for in-process
//! backends, `host:port` for TCP ones). Labels stay valid across
//! membership changes.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use cut_filters::BiquadParams;
use dsig_core::{recover, AcceptanceBand, DsigError, Signature, TestSetup};
use dsig_engine::RemoteScorer;
use dsig_obs::trace::{self, Tracer};
use dsig_obs::{EventLevel, EventLog, HealthReport, MetricsSnapshot, Registry, SloPolicy, Span, TraceLog};
use dsig_serve::server::health_sample;
use dsig_serve::{
    AdminReply, AdminRequest, BackendState, FleetRoster, GoldenRecord, GoldenStore, Request, Response, Result,
    RetestRequest, RetestScore, RosterEntry, ScoreResult, ServeConfig, ServeError, ServeHandle, Service,
};

use crate::backend::Backend;
use crate::router::{MemberEntry, Membership, RouterConfig, RouterMetrics};
use crate::RouterStore;

/// The routing state every clone of a [`RouterHandle`] shares.
struct RouterInner {
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

/// The router: the live membership, the authoritative golden store and the
/// config, with every routed operation. Cloning is cheap (the state is
/// shared); each clone can be used from its own thread, and a
/// [`crate::Router`] serves TCP clients through one.
#[derive(Clone)]
pub struct RouterHandle {
    inner: Arc<RouterInner>,
}

impl RouterHandle {
    /// Builds `backends` in-process scoring backends — each its own
    /// [`GoldenStore`] behind a [`ServeHandle`] that scores on the calling
    /// thread, no TCP anywhere — and fronts them with a router. This is the
    /// fixture the loopback tests build their fleets with.
    ///
    /// # Errors
    /// Returns an invalid-config error for a zero backend count.
    pub fn spawn(backends: usize, store: RouterStore, config: RouterConfig) -> Result<Self> {
        let fleet: Vec<Backend> = (0..backends)
            .map(|id| {
                Backend::local(
                    id as u64,
                    ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(1)),
                )
            })
            .collect();
        Self::with_backends(fleet, store, config)
    }

    /// Fronts an explicit backend set (mix TCP and in-process freely) with a
    /// router reporting into the process-wide [`Registry::global`].
    ///
    /// # Errors
    /// Returns an invalid-config error for an empty set or duplicate
    /// rendezvous ids.
    pub fn with_backends(backends: Vec<Backend>, store: RouterStore, config: RouterConfig) -> Result<Self> {
        Self::new_in(backends, store, config, Registry::global())
    }

    /// Like [`RouterHandle::with_backends`] with an explicit metrics
    /// registry.
    pub(crate) fn new_in(
        backends: Vec<Backend>,
        store: RouterStore,
        config: RouterConfig,
        registry: Registry,
    ) -> Result<Self> {
        if backends.is_empty() {
            return Err(DsigError::InvalidConfig("the router has no backends".into()).into());
        }
        let mut ids: Vec<u64> = backends.iter().map(Backend::id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(DsigError::InvalidConfig("router backends must have unique rendezvous ids".into()).into());
        }
        let entries: Vec<MemberEntry> = backends
            .into_iter()
            .map(|backend| MemberEntry::new(&registry, backend))
            .collect();
        let metrics = RouterMetrics::new(&registry);
        metrics.epoch.set(1.0);
        let tracer = registry.tracer().clone();
        Ok(RouterHandle {
            inner: Arc::new(RouterInner {
                membership: RwLock::new(Arc::new(Membership { epoch: 1, entries })),
                admin: Mutex::new(()),
                store,
                config,
                registry,
                tracer,
                metrics,
            }),
        })
    }

    /// The registry this router reports into.
    pub(crate) fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// One consistent view of the fleet: the snapshot every operation works
    /// within.
    fn snapshot(&self) -> Arc<Membership> {
        Arc::clone(&*recover(self.inner.membership.read()))
    }

    /// Number of members (active, draining or backed off) in the live fleet.
    pub fn backend_count(&self) -> usize {
        self.snapshot().entries.len()
    }

    /// The live membership epoch: starts at 1, bumped on every
    /// join/leave/drain. The same value rides in `DSHR` health reports and
    /// the `DSAQ` roster.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Member labels in membership order (`local-<id>` for in-process
    /// backends, `host:port` for TCP ones) — the stable addressing
    /// vocabulary of the fleet.
    pub fn backend_labels(&self) -> Vec<String> {
        self.snapshot()
            .entries
            .iter()
            .map(|entry| entry.backend.label().to_string())
            .collect()
    }

    /// The rendezvous ranking of a fingerprint as member labels: owner
    /// first, then its replicas.
    pub fn rank_labels(&self, key: u64) -> Vec<String> {
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
            .ok_or_else(|| DsigError::InvalidConfig(format!("unknown backend {label:?}")).into())
    }

    /// Kills the member at `label` (see [`Backend::kill`]): until a
    /// [`RouterHandle::revive`], requests routed to it are refused and fail
    /// over to its replicas, whatever its transport.
    ///
    /// # Errors
    /// Rejects an unknown label.
    pub fn kill(&self, label: &str) -> Result<()> {
        self.find(label)?.kill();
        Ok(())
    }

    /// Revives the member at `label` (see [`Backend::revive`]): undoes a
    /// kill and clears its failure record, so the next forward (and the
    /// next health check) sees it up immediately. Logs the recovery event
    /// when this ended a failure streak.
    ///
    /// # Errors
    /// Rejects an unknown label.
    pub fn revive(&self, label: &str) -> Result<()> {
        if self.find(label)?.revive() {
            self.inner.registry.events().emit(
                EventLevel::Info,
                "router",
                "backend.recovered",
                "backend revived by the operator; failure record cleared",
                &[("backend", label)],
            );
        }
        Ok(())
    }

    /// Whether the member at `label`'s health record currently marks it
    /// down.
    ///
    /// # Errors
    /// Rejects an unknown label.
    pub fn backend_is_down(&self, label: &str) -> Result<bool> {
        Ok(self.find(label)?.is_down())
    }

    /// Admits an explicit [`Backend`] (TCP or in-process) into the live
    /// fleet, migrating the goldens it now owns onto it **before** the
    /// membership flips — a joining backend warms up without operator
    /// action and never sees a request it cannot answer. Idempotent by
    /// label: joining an active member is a no-op, joining a draining one
    /// reactivates it.
    ///
    /// # Errors
    /// Rejects a rendezvous-id collision and an unreachable backend (the
    /// migration must land).
    pub fn join(&self, backend: Backend) -> Result<FleetRoster> {
        let _admin = recover(self.inner.admin.lock());
        let m = self.snapshot();
        if let Some(index) = m.index_of(backend.label()) {
            return self.reactivate_locked(&m, index);
        }
        self.join_new_locked(&m, backend)
    }

    /// The wire form of [`RouterHandle::join`]: an existing member (any
    /// transport) is reactivated by label, a new one must be a dialable
    /// `host:port` (joined as a TCP backend).
    ///
    /// # Errors
    /// As for [`RouterHandle::join`], plus unparseable labels.
    pub fn fleet_join(&self, label: &str) -> Result<FleetRoster> {
        let _admin = recover(self.inner.admin.lock());
        let m = self.snapshot();
        if let Some(index) = m.index_of(label) {
            return self.reactivate_locked(&m, index);
        }
        let addr: SocketAddr = label.parse().map_err(|_| {
            DsigError::InvalidConfig(format!(
                "cannot join {label:?}: not a member and not a dialable host:port address"
            ))
        })?;
        self.join_new_locked(&m, Backend::tcp(addr))
    }

    /// Reactivates an existing member (caller holds the admin lock): a
    /// draining member returns to active duty (with its owned goldens
    /// re-warmed), an active member is an acknowledged no-op.
    fn reactivate_locked(&self, m: &Membership, index: usize) -> Result<FleetRoster> {
        if !m.entries[index].draining {
            return Ok(self.fleet_roster());
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
        Ok(self.fleet_roster())
    }

    /// Admits a brand-new member (caller holds the admin lock): goldens
    /// migrate first, the membership flips second.
    fn join_new_locked(&self, m: &Membership, backend: Backend) -> Result<FleetRoster> {
        if m.entries.iter().any(|entry| entry.backend.id() == backend.id()) {
            return Err(DsigError::InvalidConfig(format!(
                "backend {} collides with an existing rendezvous id",
                backend.label()
            ))
            .into());
        }
        let label = backend.label().to_string();
        let mut entries = m.entries.clone();
        entries.push(MemberEntry::new(&self.inner.registry, backend));
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
        Ok(self.fleet_roster())
    }

    /// Pushes every golden whose replica set (under `next`'s ranking)
    /// includes member `index` onto that member — the join-time migration.
    /// Any push failure rejects the whole join: an unreachable backend must
    /// not enter the rotation cold.
    fn warm_up(&self, next: &Membership, index: usize) -> Result<usize> {
        let replicas = self.inner.config.replicas.max(1);
        let mut migrated = 0usize;
        for key in self.inner.store.keys() {
            let rank = next.rank(key);
            if !rank.iter().take(replicas).any(|&i| i == index) {
                continue;
            }
            let Some(record) = self.inner.store.get(key) else {
                continue;
            };
            next.entries[index]
                .backend
                .call(Request::push(key, record.band, &record.golden))?;
            migrated += 1;
        }
        Ok(migrated)
    }

    /// Removes the member at `label` from the fleet, re-replicating its
    /// goldens to the surviving owners **before** it goes. Idempotent by
    /// label: leaving an unknown member is an acknowledged no-op.
    ///
    /// # Errors
    /// Rejects removing the last member — a router with no backends can
    /// answer nothing.
    pub fn fleet_leave(&self, label: &str) -> Result<FleetRoster> {
        let _admin = recover(self.inner.admin.lock());
        let m = self.snapshot();
        let Some(index) = m.index_of(label) else {
            return Ok(self.fleet_roster());
        };
        if m.entries.len() == 1 {
            return Err(DsigError::InvalidConfig(format!(
                "cannot remove {label:?}: it is the last backend of the fleet"
            ))
            .into());
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
        Ok(self.fleet_roster())
    }

    /// Marks the member at `label` draining: new work steers away (it stays
    /// ranked as a failover last resort) and its goldens are re-replicated
    /// to the non-draining members so the replica count survives its
    /// eventual removal. Idempotent on a draining member.
    ///
    /// # Errors
    /// Rejects an unknown label (a drain never removes, so resubmission
    /// converges).
    pub fn fleet_drain(&self, label: &str) -> Result<FleetRoster> {
        let _admin = recover(self.inner.admin.lock());
        let m = self.snapshot();
        let Some(index) = m.index_of(label) else {
            return Err(DsigError::InvalidConfig(format!("cannot drain unknown backend {label:?}")).into());
        };
        if m.entries[index].draining {
            return Ok(self.fleet_roster());
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
        Ok(self.fleet_roster())
    }

    /// The live roster: epoch plus every member's label, id and state — the
    /// `DSAQ` list body, also returned by every admin verb so the caller
    /// sees the fleet it just changed.
    pub fn fleet_roster(&self) -> FleetRoster {
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

    /// Installs a new membership snapshot and logs the transition.
    fn install(&self, next: Arc<Membership>, event: &str, detail: &str, label: &str) {
        let epoch = next.epoch;
        self.inner.metrics.epoch.set(epoch as f64);
        *recover(self.inner.membership.write()) = next;
        self.inner.registry.events().emit(
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
        let replicas = self.inner.config.replicas.max(1);
        let mut rehomed = 0usize;
        for key in self.inner.store.keys() {
            let rank = m.rank(key);
            if !rank.iter().take(replicas).any(|&i| i == index) {
                continue;
            }
            let Some(record) = self.inner.store.get(key) else {
                continue;
            };
            let mut placed = false;
            for &target in rank
                .iter()
                .filter(|&&i| i != index && !m.entries[i].draining)
                .take(replicas)
            {
                match m.entries[target]
                    .backend
                    .call(Request::push(key, record.band, &record.golden))
                {
                    Ok(_) => {
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

    /// Snapshots the routing tier's metrics (per-backend forward/failover/
    /// retry counters, backoff gauge, fan-out latency, refresh-on-miss,
    /// membership epoch) — the in-process equivalent of a `DSMX` scrape.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }

    /// Drains the routing tier's buffered trace spans — the in-process
    /// equivalent of a `DSTX` scrape. Each span is exported at most once.
    pub fn traces(&self) -> TraceLog {
        TraceLog {
            spans: self.inner.registry.tracer().drain(),
        }
    }

    /// Scrapes every member of `m` concurrently and merges the answers:
    /// every member's snapshot under a `backend.<label>.` prefix, the
    /// cross-backend rollup under `fleet.`, and the router's own registry
    /// unprefixed. Also returns, per member, whether it answered.
    fn scrape_fleet(&self, m: &Membership) -> (MetricsSnapshot, Vec<bool>) {
        let scraped = m.fan_out::<MetricsSnapshot>(Request::Metrics);
        let answered = scraped.iter().map(Option::is_some).collect();
        let parts: Vec<(String, MetricsSnapshot)> = m
            .entries
            .iter()
            .zip(scraped)
            .filter_map(|(entry, snapshot)| snapshot.map(|s| (entry.backend.label().to_string(), s)))
            .collect();
        (
            MetricsSnapshot::merge_fleet(&parts, &self.inner.registry.snapshot()),
            answered,
        )
    }

    /// Aggregated fleet metrics — the in-process equivalent of a `DSFM`
    /// scrape: every backend's snapshot under a `backend.<label>.` prefix,
    /// the cross-backend rollup under `fleet.`, and the router's own
    /// registry unprefixed. Unreachable backends are skipped — a fleet
    /// scrape is an observation, never a failure.
    pub fn fleet_metrics(&self) -> MetricsSnapshot {
        self.scrape_fleet(&self.snapshot()).0
    }

    /// Drains the fleet's buffered events — the in-process equivalent of a
    /// `DSEX` scrape at the router: every reachable backend's drained events
    /// plus the router's own (backend backoff/recovery and membership
    /// transitions, refresh-on-miss records), in the sink's canonical
    /// `(at_us, trace_id, name)` order. In-process fleets share one global
    /// sink with the router; the drain's take-semantics keep each record
    /// exported exactly once either way.
    pub fn events(&self) -> EventLog {
        let drained = self.snapshot().fan_out::<EventLog>(Request::Events);
        let mut events: Vec<dsig_obs::EventRecord> = drained.into_iter().flatten().flat_map(|log| log.events).collect();
        events.extend(self.inner.registry.events().drain());
        events.sort_by(|a, b| (a.at_us, a.trace_id, &a.name).cmp(&(b.at_us, b.trace_id, &b.name)));
        EventLog { events }
    }

    /// Scrapes the fleet and verdicts it against the configured
    /// [`dsig_obs::SloPolicy`] — the in-process equivalent of a `DSHC`
    /// health check. A member counts as down when its health record backs
    /// it off *or* its scrape fails (a killed backend is down right now even
    /// before any forward has armed the backoff); the `fleet.` rollup is
    /// what gets verdicted. The report carries the live membership epoch,
    /// so an operator watching health sees churn as it lands.
    pub fn health(&self) -> HealthReport {
        let now = Instant::now();
        let m = self.snapshot();
        let (merged, answered) = self.scrape_fleet(&m);
        let down = m
            .entries
            .iter()
            .zip(answered)
            .filter(|(entry, answered)| !answered || !entry.backend.is_available(now))
            .count();
        let mut report =
            SloPolicy::default().evaluate(health_sample(&merged, "fleet.", down as u32, m.entries.len() as u32));
        report.epoch = m.epoch;
        report
    }

    /// Characterizes `(setup, reference)` into the router store and pushes
    /// the golden to its owning backends; returns the fingerprint clients
    /// screen with.
    ///
    /// # Errors
    /// Propagates capture errors; fails if no backend accepts the push.
    pub fn characterize(&self, setup: &TestSetup, reference: &BiquadParams, band: AcceptanceBand) -> Result<u64> {
        let key = self.inner.store.characterize(setup, reference, band)?;
        let record = self.inner.store.get(key).expect("characterize stores the record");
        self.replicate(key, &record)?;
        Ok(key)
    }

    /// Stores an already-characterized golden and replicates it to its
    /// owning backends — the routing-tier form of the `DSGP` push.
    ///
    /// # Errors
    /// Fails if no backend accepts the push.
    pub fn push_golden(&self, key: u64, golden: Signature, band: AcceptanceBand) -> Result<()> {
        self.inner.store.insert(key, golden, band);
        let record = self.inner.store.get(key).expect("insert stores the record");
        self.replicate(key, &record)?;
        Ok(())
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
        let copies = self.inner.config.replicas.max(1).min(targets.len());
        let mut pushed = 0usize;
        let mut failures: Vec<String> = Vec::new();
        for &index in targets {
            if pushed == copies {
                break;
            }
            let entry = &m.entries[index];
            match entry.backend.call(Request::push(key, record.band, &record.golden)) {
                Ok(_) => {
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
            return Err(ServeError::AllBackendsFailed {
                key,
                detail: failures.join("; "),
            });
        }
        Ok(pushed)
    }

    /// Resolves a golden record: the router store first, then readback from
    /// the members in rendezvous order (caching the record locally) — the
    /// `DSGF` path a freshly restarted router uses to repopulate its store.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownGolden`] when nobody holds it.
    pub fn golden(&self, key: u64) -> Result<Arc<GoldenRecord>> {
        if let Some(record) = self.inner.store.get(key) {
            return Ok(record);
        }
        let now = Instant::now();
        let m = self.snapshot();
        for index in m.rank(key) {
            let entry = &m.entries[index];
            match entry
                .backend
                .call(Request::FetchGolden { key })
                .and_then(Response::into_body::<AdminReply>)
            {
                Ok(AdminReply::Record(record)) => {
                    self.mark_success(entry);
                    self.inner.store.insert(key, record.golden, record.band);
                    return Ok(self.inner.store.get(key).expect("record just cached"));
                }
                Err(ServeError::UnknownGolden(_)) => {}
                _ => self.mark_failure(&m, index, now),
            }
        }
        Err(ServeError::UnknownGolden(key))
    }

    /// Scores a batch against the golden under `golden_key`: the whole batch
    /// is forwarded to the owning backend through the failover chain.
    /// Bit-identical to direct [`dsig_core::TestFlow`] scoring for every
    /// backend count.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownGolden`] for an unknown fingerprint (also
    /// for an empty batch) and [`ServeError::AllBackendsFailed`] when the
    /// whole failover chain is down.
    pub fn screen(&self, golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
        let mut screen_span = self
            .inner
            .tracer
            .span("router.screen", "router", trace::current_context());
        screen_span.annotate("batch", signatures.len());
        let _ctx = trace::with_context(screen_span.context());
        self.forward_with_failover(golden_key, |backend| {
            backend.call(Request::screen(golden_key, signatures))?.into_body()
        })
    }

    /// Scores a single signature (a one-element [`RouterHandle::screen`]).
    ///
    /// # Errors
    /// As for [`RouterHandle::screen`].
    pub fn screen_one(&self, golden_key: u64, signature: &Signature) -> Result<ScoreResult> {
        Ok(self.screen(golden_key, std::slice::from_ref(signature))?[0])
    }

    /// Screens an adaptive-retest batch (`DSRT`): the whole request is
    /// forwarded to the golden's owner along the same failover chain as
    /// [`RouterHandle::screen`], and the owning backend reruns marginal
    /// devices with averaged repeats before verdicting.
    ///
    /// # Errors
    /// As for [`RouterHandle::screen`].
    pub fn screen_retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
        let key = request.golden_key;
        let mut retest_span = self
            .inner
            .tracer
            .span("router.retest", "router", trace::current_context());
        retest_span.annotate("devices", request.items.len());
        let _ctx = trace::with_context(retest_span.context());
        self.forward_with_failover(key, |backend| backend.call(Request::retest(request))?.into_body())
    }

    /// Forwards one golden-addressed operation through the failover chain:
    /// every member in rendezvous order — available non-draining ones
    /// first, then backed-off and draining ones as a last resort. The first
    /// success wins; both operations routed this way (plain screening and
    /// adaptive retest) are pure functions of `(golden, observed,
    /// band/policy)`, so *which* member answers can never change a verdict.
    fn forward_with_failover<T>(&self, key: u64, attempt: impl Fn(&Backend) -> Result<T>) -> Result<T> {
        let _fanout = Span::enter(&self.inner.metrics.fanout_us);
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
        self.inner.metrics.backoff.set(last_resort.len() as f64);

        let inbound = trace::current_context();
        let mut failures: Vec<String> = Vec::new();
        let mut misses = 0usize;
        for (position, &index) in preferred.iter().chain(&last_resort).enumerate() {
            let entry = &m.entries[index];
            let backend = entry.backend.as_ref();
            let mut forward_span = self.inner.tracer.span("router.forward", "router", inbound);
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
            return Err(ServeError::UnknownGolden(key));
        }
        Err(ServeError::AllBackendsFailed {
            key,
            detail: failures.join("; "),
        })
    }

    /// One attempt of an arbitrary golden-addressed operation against one
    /// member, refreshing the golden from the router store when the backend
    /// misses it (the replication path's "refresh on miss").
    fn try_backend<T>(&self, backend: &Backend, key: u64, attempt: &impl Fn(&Backend) -> Result<T>) -> Result<T> {
        match attempt(backend) {
            Err(ServeError::UnknownGolden(_)) => match self.inner.store.get(key) {
                Some(record) => {
                    backend.call(Request::push(key, record.band, &record.golden))?;
                    self.inner.metrics.refresh_on_miss.inc();
                    self.inner.registry.events().emit(
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

    /// Clears a member's failure record, logging the recovery event when
    /// this ends a failure streak.
    fn mark_success(&self, entry: &MemberEntry) {
        if entry.backend.note_success() {
            self.inner.registry.events().emit(
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
        if entry.backend.note_failure(now, &self.inner.config.health) {
            self.inner.registry.events().emit(
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
        if entry.backend.arm_heal(&self.inner.config.health) {
            let healed = self.rereplicate_from(m, index);
            self.inner.registry.events().emit(
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
}

impl Service for RouterHandle {
    fn call(&self, request: Request<'_>) -> Result<Response> {
        Ok(match request {
            Request::Screen(request) => Response::Screen(self.screen(request.golden_key, &request.signatures)?),
            Request::Retest(request) => Response::Retest(self.screen_retest(&request)?),
            Request::PushGolden { key, band, golden } => {
                self.push_golden(key, golden.into_owned(), band)?;
                Response::Admin(AdminReply::Ack)
            }
            Request::FetchGolden { key } => Response::Admin(AdminReply::Record((*self.golden(key)?).clone())),
            // The plain scrapes answer with the router's own registry; the
            // fleet scrapes fan out to every backend and merge.
            Request::Metrics => Response::Metrics(self.metrics()),
            Request::Traces => Response::Traces(self.traces()),
            Request::FleetMetrics => Response::Metrics(self.fleet_metrics()),
            Request::Events => Response::Events(self.events()),
            Request::Health => Response::Health(self.health()),
            // The admin family: live membership over the same tagged mux the
            // work frames ride. Every verb answers the post-change roster.
            Request::Admin(verb) => Response::Admin(AdminReply::Roster(match &verb {
                AdminRequest::Join { label } => self.fleet_join(label)?,
                AdminRequest::Leave { label } => self.fleet_leave(label)?,
                AdminRequest::Drain { label } => self.fleet_drain(label)?,
                AdminRequest::List => self.fleet_roster(),
            })),
        })
    }
}

impl RemoteScorer for RouterHandle {
    fn screen_remote(&self, golden_key: u64, signatures: &[Signature]) -> dsig_core::Result<Vec<ScoreResult>> {
        self.screen(golden_key, signatures).map_err(ServeError::into_dsig)
    }

    fn retest_remote(&self, request: &RetestRequest) -> dsig_core::Result<Vec<RetestScore>> {
        self.screen_retest(request).map_err(ServeError::into_dsig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsig_core::{SignatureEntry, TestOutcome, ZoneCode};
    use dsig_serve::BackendState;

    /// A signature of 1 µs counts.
    fn sig(codes: &[(u32, u32)]) -> Signature {
        Signature::new(
            1e-6,
            codes
                .iter()
                .map(|&(c, n)| SignatureEntry {
                    code: ZoneCode(c),
                    count: n,
                })
                .collect(),
        )
        .unwrap()
    }

    fn band(threshold: f64) -> AcceptanceBand {
        AcceptanceBand::new(threshold).unwrap()
    }

    fn fleet(backends: usize, replicas: usize) -> RouterHandle {
        fleet_with(
            backends,
            RouterConfig {
                replicas,
                ..RouterConfig::default()
            },
        )
    }

    /// An in-process fleet whose backends and router report into one
    /// registry of their own.
    fn fleet_with(backends: usize, config: RouterConfig) -> RouterHandle {
        let registry = dsig_obs::Registry::new();
        let members = (0..backends as u64)
            .map(|id| {
                Backend::local(
                    id,
                    ServeHandle::spawn_in(
                        Arc::new(GoldenStore::new()),
                        ServeConfig::with_shards(1),
                        registry.clone(),
                    ),
                )
            })
            .collect();
        routed(members, config, registry)
    }

    /// A router over `members` reporting into `registry`. Tests keep
    /// off the process-wide registry because events are drained from its
    /// ring: tests running in parallel would drain each other's events.
    fn routed(members: Vec<Backend>, config: RouterConfig, registry: dsig_obs::Registry) -> RouterHandle {
        RouterHandle::new_in(members, RouterStore::new(), config, registry).unwrap()
    }

    fn local_backend(id: u64) -> Backend {
        Backend::local(
            id,
            ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(1)),
        )
    }

    /// A member whose service panics on every golden push.
    struct PanicsOnPush;

    impl Service for PanicsOnPush {
        fn call(&self, request: Request<'_>) -> Result<Response> {
            match request {
                Request::PushGolden { .. } => panic!("injected panic on DSGP"),
                _ => Err(ServeError::Remote("unsupported".into())),
            }
        }
    }

    #[test]
    fn a_join_that_panicked_during_warm_up_does_not_block_the_next_join() {
        let router = fleet(2, 2);
        let golden = sig(&[(1, 100), (3, 100)]);
        router.push_golden(0xC0FFEE, golden.clone(), band(0.05)).unwrap();
        // With two members and two replicas, a third member owns a copy of
        // every golden under some rendezvous id; warming it up pushes one.
        let id = (100..)
            .find(|&id| {
                let mut entries = router.snapshot().entries.clone();
                entries.push(MemberEntry::new(
                    &Registry::new(),
                    Backend::new(id, "probe", Arc::new(PanicsOnPush)),
                ));
                Membership { epoch: 0, entries }.rank(0xC0FFEE)[..2].contains(&2)
            })
            .unwrap();
        let joining = Backend::new(id, "panics-on-push", Arc::new(PanicsOnPush));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router.join(joining)));
        assert!(panicked.is_err(), "the warm-up push must reach the panicking member");
        assert_eq!(
            router.backend_count(),
            2,
            "a failed join leaves the membership as it was"
        );
        // The admin lock was held across the panic; the next join still runs.
        let roster = router.join(local_backend(7)).unwrap();
        assert_eq!(roster.entries.len(), 3);
        assert_eq!(router.screen(0xC0FFEE, &[golden]).unwrap()[0].ndf, 0.0);
    }

    #[test]
    fn a_routed_screen_counts_as_a_request_on_its_in_process_owner() {
        let registries: Vec<Registry> = (0..3).map(|_| Registry::new()).collect();
        let members = registries
            .iter()
            .enumerate()
            .map(|(id, registry)| {
                let store = Arc::new(GoldenStore::new());
                Backend::local(
                    id as u64,
                    ServeHandle::spawn_in(store, ServeConfig::with_shards(1), registry.clone()),
                )
            })
            .collect();
        let config = RouterConfig {
            replicas: 1,
            ..RouterConfig::default()
        };
        let router = RouterHandle::new_in(members, RouterStore::new(), config, Registry::new()).unwrap();
        let golden = sig(&[(1, 100), (3, 100)]);
        router.push_golden(0xC0FFEE, golden.clone(), band(0.05)).unwrap();
        let owner = router.snapshot().rank(0xC0FFEE)[0];
        let screens = |i: usize| registries[i].snapshot().counter("serve.requests.dsrq").unwrap_or(0);
        let before: Vec<u64> = (0..3).map(screens).collect();
        router.screen(0xC0FFEE, &[golden]).unwrap();
        for (i, before) in before.into_iter().enumerate() {
            assert_eq!(
                screens(i) - before,
                u64::from(i == owner),
                "backend {i} (owner {owner})"
            );
        }
    }

    #[test]
    fn empty_fleets_and_duplicate_ids_are_rejected() {
        assert!(matches!(
            RouterHandle::spawn(0, RouterStore::new(), RouterConfig::default()),
            Err(ServeError::Dsig(DsigError::InvalidConfig(_)))
        ));
        let dup = vec![local_backend(1), local_backend(1)];
        assert!(RouterHandle::with_backends(dup, RouterStore::new(), RouterConfig::default()).is_err());
    }

    #[test]
    fn pushed_goldens_land_on_the_owner_and_screen_correctly() {
        let router = fleet(4, 2);
        let golden = sig(&[(1, 100), (3, 100)]);
        router.push_golden(0xC0FFEE, golden.clone(), band(0.05)).unwrap();
        // Screening the golden itself through the router is a clean pass.
        let results = router
            .screen(0xC0FFEE, &[golden.clone(), sig(&[(1, 100), (7, 100)])])
            .unwrap();
        assert_eq!(results[0].ndf, 0.0);
        assert_eq!(results[0].outcome, TestOutcome::Pass);
        assert!(results[1].ndf > 0.0);
        // Readback resolves from the store; unknown keys are reported as such.
        assert_eq!(router.golden(0xC0FFEE).unwrap().golden, golden);
        assert!(matches!(router.golden(0xBAD), Err(ServeError::UnknownGolden(0xBAD))));
        assert!(matches!(
            router.screen(0xBAD, &[golden]),
            Err(ServeError::UnknownGolden(0xBAD))
        ));
    }

    #[test]
    fn failover_refreshes_the_golden_and_keeps_verdicts_identical() {
        let router = fleet(3, 1); // a single copy: failover must refresh
        let golden = sig(&[(1, 100), (3, 100)]);
        router.push_golden(7, golden.clone(), band(0.05)).unwrap();
        let observed = vec![golden.clone(), sig(&[(1, 100), (3, 90), (7, 10)]), sig(&[(5, 200)])];
        let before = router.screen(7, &observed).unwrap();
        // Kill the owner: the next screen fails over to the replica, which
        // misses the golden and is refreshed from the router store mid-call.
        let owner = router.rank_labels(7)[0].clone();
        router.kill(&owner).unwrap();
        let after = router.screen(7, &observed).unwrap();
        assert_eq!(after, before, "failover must not change a single verdict");
        assert!(
            router.backend_is_down(&owner).unwrap(),
            "the dead owner must be marked down"
        );
        // The router survives repeated screens with the owner gone.
        assert_eq!(router.screen(7, &observed).unwrap(), before);
    }

    #[test]
    fn retest_requests_route_with_failover_and_match_direct_serving() {
        use dsig_core::RetestPolicy;
        use dsig_serve::RetestItem;

        let router = fleet(3, 1); // one copy: failover must refresh
        let golden = sig(&[(1, 100), (3, 100)]);
        router.push_golden(0xAB, golden.clone(), band(0.05)).unwrap();
        // A marginal device (one short zone rewrite) plus a clean one; the
        // repeats confirm the rewrite, so the marginal device fails.
        let marginal = sig(&[(1, 100), (3, 90), (7, 10)]);
        let request = RetestRequest {
            golden_key: 0xAB,
            policy: RetestPolicy::new(0.03, vec![2]).unwrap(),
            items: vec![
                RetestItem {
                    initial: golden.clone(),
                    repeats: vec![],
                },
                RetestItem {
                    initial: marginal.clone(),
                    repeats: vec![marginal.clone(), marginal.clone()],
                },
            ],
        };
        // Reference: a standalone serve handle holding the same golden.
        let direct = ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(2));
        direct.push_golden(0xAB, golden.clone(), band(0.05));
        let expected = direct.screen_retest(&request).unwrap();

        let routed = router.screen_retest(&request).unwrap();
        assert_eq!(routed, expected, "routed retest must equal direct serving");
        assert!(!routed[0].marginal);
        assert!(routed[1].marginal);
        assert_eq!(routed[1].repeats_used, 2);

        // Unknown fingerprints are reported as such (every live backend must
        // answer "unknown"), and an empty batch still routes — the error
        // surface matches plain screening.
        let unknown = RetestRequest {
            golden_key: 0xBAD,
            ..request.clone()
        };
        assert!(matches!(
            router.screen_retest(&unknown),
            Err(ServeError::UnknownGolden(0xBAD))
        ));
        let empty = RetestRequest {
            golden_key: 0xAB,
            policy: request.policy.clone(),
            items: vec![],
        };
        assert!(router.screen_retest(&empty).unwrap().is_empty());

        // Kill the owner: the retest fails over (refreshing the golden from
        // the router store) without changing a single verdict.
        let owner = router.rank_labels(0xAB)[0].clone();
        router.kill(&owner).unwrap();
        assert_eq!(router.screen_retest(&request).unwrap(), expected);
        assert!(router.backend_is_down(&owner).unwrap());
    }

    #[test]
    fn metrics_scrape_tracks_forwards_failovers_and_refreshes() {
        let router = fleet(3, 1); // one copy: failover must refresh
        let golden = sig(&[(1, 100), (3, 100)]);
        router.push_golden(0x0B5, golden.clone(), band(0.05)).unwrap();
        // Everything is asserted as before/after deltas with >= — counters
        // are monotonic.
        let sum = |snapshot: &MetricsSnapshot, what: &str| -> u64 {
            (0..3)
                .map(|i| {
                    snapshot
                        .counter(&format!("router.backend.local-{i}.{what}"))
                        .unwrap_or(0)
                })
                .sum()
        };
        let fanout = |snapshot: &MetricsSnapshot| snapshot.histogram("router.fanout_us").map_or(0, |h| h.count);
        let before = router.metrics();

        router.screen(0x0B5, std::slice::from_ref(&golden)).unwrap();
        // Kill the owner: the next screen retries it, fails over to the next
        // ranked backend and refreshes the golden there mid-request.
        router.kill(&router.rank_labels(0x0B5)[0]).unwrap();
        router.screen(0x0B5, std::slice::from_ref(&golden)).unwrap();

        let after = router.metrics();
        assert!(sum(&after, "forwards") >= sum(&before, "forwards") + 2);
        assert!(sum(&after, "retries") > sum(&before, "retries"));
        assert!(sum(&after, "failovers") > sum(&before, "failovers"));
        assert!(
            after.counter("router.refresh_on_miss").unwrap() > before.counter("router.refresh_on_miss").unwrap_or(0)
        );
        assert!(fanout(&after) >= fanout(&before) + 2);
        assert!(after.gauge("router.backoff_backends").is_some());
        assert_eq!(after.gauge("router.membership_epoch"), Some(1.0));
    }

    #[test]
    fn fleet_scrape_prefixes_backends_rolls_up_and_health_tracks_kills() {
        // Isolated per-backend registries make the health verdict
        // deterministic (the health sample only reads the `fleet.` rollup,
        // which is built from the backend snapshots).
        let fleet: Vec<Backend> = (0..3)
            .map(|id| {
                Backend::local(
                    id,
                    ServeHandle::spawn_in(
                        Arc::new(GoldenStore::new()),
                        ServeConfig::with_shards(1),
                        dsig_obs::Registry::new(),
                    ),
                )
            })
            .collect();
        let router = routed(fleet, RouterConfig::default(), dsig_obs::Registry::new());
        let golden = sig(&[(1, 100), (3, 100)]);
        router.push_golden(0xF7EE7, golden.clone(), band(0.05)).unwrap();
        router.screen(0xF7EE7, std::slice::from_ref(&golden)).unwrap();

        // Every backend appears under its own prefix, and the rollup sums
        // the per-backend counters exactly.
        let snapshot = router.fleet_metrics();
        let scored: Vec<u64> = (0..3)
            .map(|i| {
                snapshot
                    .counter(&format!("backend.local-{i}.serve.signatures_scored"))
                    .unwrap_or_else(|| panic!("backend local-{i} missing from the fleet scrape"))
            })
            .collect();
        assert_eq!(
            snapshot.counter("fleet.serve.signatures_scored").unwrap(),
            scored.iter().sum::<u64>(),
            "the fleet rollup must sum the per-backend counters"
        );
        assert!(
            scored.iter().sum::<u64>() >= 1,
            "the routed screen was scored somewhere"
        );
        // The router's own registry rides along unprefixed.
        assert!(snapshot.counter("router.refresh_on_miss").is_some());

        // PASS with everyone up; DEGRADED after one kill; FAIL when the
        // whole fleet is gone; PASS again once everyone is revived. The
        // health report carries the membership epoch throughout.
        let healthy = router.health();
        assert_eq!(healthy.status, dsig_obs::HealthStatus::Pass);
        assert_eq!(healthy.epoch, router.epoch());
        router.kill("local-0").unwrap();
        let degraded = router.health();
        assert_eq!(degraded.status, dsig_obs::HealthStatus::Degraded);
        assert_eq!((degraded.backed_off, degraded.backends), (1, 3));
        assert!(!degraded.findings.is_empty());
        router.kill("local-1").unwrap();
        router.kill("local-2").unwrap();
        assert_eq!(router.health().status, dsig_obs::HealthStatus::Fail);
        for label in router.backend_labels() {
            router.revive(&label).unwrap();
        }
        let recovered = router.health();
        assert_eq!(
            recovered.status,
            dsig_obs::HealthStatus::Pass,
            "{:?}",
            recovered.findings
        );

        // A dead backend is skipped by the scrape, not fatal.
        router.kill("local-2").unwrap();
        let partial = router.fleet_metrics();
        assert!(partial.counter("backend.local-2.serve.signatures_scored").is_none());
        assert!(partial.counter("backend.local-0.serve.signatures_scored").is_some());
    }

    #[test]
    fn backend_transitions_and_refreshes_surface_as_events() {
        let router = fleet(3, 1); // one copy: failover must refresh
        let golden = sig(&[(1, 100), (3, 100)]);
        router.push_golden(0xE7E47, golden.clone(), band(0.05)).unwrap();
        router.screen(0xE7E47, std::slice::from_ref(&golden)).unwrap();
        // Kill the owner: the next screen starts its failure streak and
        // refreshes the golden on the failover target.
        let owner = router.rank_labels(0xE7E47)[0].clone();
        router.kill(&owner).unwrap();
        router.screen(0xE7E47, std::slice::from_ref(&golden)).unwrap();
        router.revive(&owner).unwrap();

        // Assert only that this test's transitions are present.
        let names: Vec<String> = router.events().events.into_iter().map(|event| event.name).collect();
        for expected in ["backend.backed_off", "backend.recovered", "golden.refresh_on_miss"] {
            assert!(
                names.iter().any(|name| name == expected),
                "missing {expected} in {names:?}"
            );
        }
    }

    #[test]
    fn all_backends_dead_is_reported_with_detail() {
        let router = fleet(2, 2);
        let golden = sig(&[(1, 100)]);
        router.push_golden(1, golden.clone(), band(0.05)).unwrap();
        router.kill("local-0").unwrap();
        router.kill("local-1").unwrap();
        match router.screen(1, &[golden]) {
            Err(ServeError::AllBackendsFailed { key, detail }) => {
                assert_eq!(key, 1);
                assert!(detail.contains("local-0") && detail.contains("local-1"), "{detail}");
            }
            other => panic!("expected AllBackendsFailed, got {other:?}"),
        }
    }

    #[test]
    fn characterize_replicates_and_matches_the_engine_fingerprint() {
        let setup = TestSetup::paper_default().unwrap().with_sample_rate(1e6).unwrap();
        let reference = BiquadParams::paper_default();
        let router = fleet(3, 2);
        let key = router.characterize(&setup, &reference, band(0.03)).unwrap();
        assert_eq!(key, dsig_engine::golden_fingerprint(&setup, &reference));
        // The golden scores its own noiseless capture cleanly through TCP-free
        // routing, and survives the owner dying thanks to the replica.
        let observed = setup.signature_of(&reference, 5).unwrap();
        assert_eq!(router.screen_one(key, &observed).unwrap().ndf, 0.0);
        router.kill(&router.rank_labels(key)[0]).unwrap();
        assert_eq!(router.screen_one(key, &observed).unwrap().ndf, 0.0);
    }

    #[test]
    fn unknown_labels_are_rejected_and_labels_resolve() {
        let router = fleet(2, 2);
        assert!(router.kill("no-such-backend").is_err());
        assert!(router.revive("no-such-backend").is_err());
        assert!(router.backend_is_down("no-such-backend").is_err());
        let golden = sig(&[(1, 100)]);
        router.push_golden(0x51, golden.clone(), band(0.05)).unwrap();
        let (mut ranked, mut members) = (router.rank_labels(0x51), router.backend_labels());
        ranked.sort();
        members.sort();
        assert_eq!(ranked, members);
        // Kill both members; a failed screen arms the health records the
        // label lookups then read (a bare kill alone does not).
        for label in router.backend_labels() {
            router.kill(&label).unwrap();
        }
        assert!(router.screen(0x51, std::slice::from_ref(&golden)).is_err());
        for label in router.backend_labels() {
            assert!(router.backend_is_down(&label).unwrap());
            router.revive(&label).unwrap();
            assert!(!router.backend_is_down(&label).unwrap());
        }
    }

    #[test]
    fn join_migrates_goldens_and_bumps_the_epoch() {
        let router = fleet(2, 1); // single copy: migration is observable
        let setup_keys: Vec<u64> = (0..24).collect();
        for &key in &setup_keys {
            router
                .push_golden(key, sig(&[(1, 100), (key as u32 + 2, 50)]), band(0.05))
                .unwrap();
        }
        assert_eq!(router.epoch(), 1);

        let roster = router.join(local_backend(7)).unwrap();
        assert_eq!(roster.epoch, 2);
        assert_eq!(router.epoch(), 2);
        assert_eq!(router.backend_count(), 3);
        assert_eq!(roster.entries.len(), 3);
        assert!(roster.entries.iter().all(|entry| entry.state == BackendState::Active));

        // The mover set is exactly the keys the newcomer now owns a copy of:
        // every one must have been migrated, so killing BOTH old members
        // still screens the newcomer's keys without a store refresh (the
        // newcomer answers them from its own migrated store).
        let moved: Vec<u64> = setup_keys
            .iter()
            .copied()
            .filter(|&key| router.rank_labels(key)[0] == "local-7")
            .collect();
        assert!(!moved.is_empty(), "with 24 keys some must re-home onto the joiner");
        for &key in &moved {
            let observed = sig(&[(1, 100), (key as u32 + 2, 50)]);
            assert_eq!(router.screen_one(key, &observed).unwrap().ndf, 0.0);
        }

        // Idempotent: joining the same label again is a no-op, same epoch.
        let again = router.join(local_backend(7)).unwrap();
        assert_eq!(again.epoch, 2);
        assert_eq!(router.backend_count(), 3);

        // A label that is neither a member nor a dialable address is
        // rejected by the wire-form join.
        assert!(router.fleet_join("not-an-address").is_err());

        // The joined/epoch transitions surface as events.
        let names: Vec<String> = router.events().events.into_iter().map(|event| event.name).collect();
        assert!(names.iter().any(|name| name == "backend.joined"), "{names:?}");
    }

    #[test]
    fn leave_rehomes_goldens_and_rejects_the_last_member() {
        let router = fleet(3, 1); // single copy: the leaver's keys must re-home
        let keys: Vec<u64> = (100..130).collect();
        for &key in &keys {
            router
                .push_golden(key, sig(&[(1, 100), ((key % 31) as u32 + 2, 50)]), band(0.05))
                .unwrap();
        }
        let leaver = "local-1";
        let owned: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&key| router.rank_labels(key)[0] == leaver)
            .collect();
        assert!(!owned.is_empty(), "with 30 keys some must live on the leaver");

        let roster = router.fleet_leave(leaver).unwrap();
        assert_eq!(roster.epoch, 2);
        assert_eq!(router.backend_count(), 2);
        assert!(roster.entries.iter().all(|entry| entry.label != leaver));

        // The leaver's keys were re-homed before removal: screening them
        // works without any refresh-on-miss (assert via a clean screen).
        for &key in &owned {
            let observed = sig(&[(1, 100), ((key % 31) as u32 + 2, 50)]);
            assert_eq!(router.screen_one(key, &observed).unwrap().ndf, 0.0);
        }

        // Idempotent: leaving again is an acknowledged no-op, same epoch.
        assert_eq!(router.fleet_leave(leaver).unwrap().epoch, 2);

        // The last member can never leave.
        router.fleet_leave("local-0").unwrap();
        assert!(router.fleet_leave("local-2").is_err());
        assert_eq!(router.backend_count(), 1);

        let names: Vec<String> = router.events().events.into_iter().map(|event| event.name).collect();
        assert!(names.iter().any(|name| name == "backend.left"), "{names:?}");
    }

    #[test]
    fn drain_steers_work_away_and_join_reactivates() {
        let router = fleet(3, 2);
        let keys: Vec<u64> = (200..220).collect();
        for &key in &keys {
            router
                .push_golden(key, sig(&[(1, 100), ((key % 17) as u32 + 2, 50)]), band(0.05))
                .unwrap();
        }
        let drained = "local-2";
        let roster = router.fleet_drain(drained).unwrap();
        assert_eq!(roster.epoch, 2);
        let state_of = |roster: &FleetRoster, label: &str| {
            roster
                .entries
                .iter()
                .find(|entry| entry.label == label)
                .map(|entry| entry.state)
                .unwrap()
        };
        assert_eq!(state_of(&roster, drained), BackendState::Draining);

        // New work steers away from the draining member: with it killed
        // outright, every key still screens cleanly off the non-draining
        // members (the drain re-replicated its copies to them).
        router.kill(drained).unwrap();
        for &key in &keys {
            let observed = sig(&[(1, 100), ((key % 17) as u32 + 2, 50)]);
            assert_eq!(router.screen_one(key, &observed).unwrap().ndf, 0.0);
        }
        router.revive(drained).unwrap();

        // Draining a draining member is a no-op; draining a stranger is an
        // error.
        assert_eq!(router.fleet_drain(drained).unwrap().epoch, 2);
        assert!(router.fleet_drain("no-such-backend").is_err());

        // A join by label reactivates the draining member.
        let rejoined = router.fleet_join(drained).unwrap();
        assert_eq!(rejoined.epoch, 3);
        assert_eq!(state_of(&rejoined, drained), BackendState::Active);

        let names: Vec<String> = router.events().events.into_iter().map(|event| event.name).collect();
        assert!(names.iter().any(|name| name == "backend.draining"), "{names:?}");
        assert!(names.iter().any(|name| name == "backend.joined"), "{names:?}");
    }

    #[test]
    fn saturated_failure_streak_heals_replicas_once() {
        use crate::backend::HealthConfig;
        use std::time::Duration;

        // A tiny backoff cap so the very first failure saturates the streak
        // and arms the healing latch.
        let config = RouterConfig {
            replicas: 1, // a single copy: healing must create the second one
            health: HealthConfig {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
            },
        };
        let router = fleet_with(3, config);
        let keys: Vec<u64> = (300..324).collect();
        for &key in &keys {
            router
                .push_golden(key, sig(&[(1, 100), ((key % 13) as u32 + 2, 50)]), band(0.05))
                .unwrap();
        }
        let victim = router.rank_labels(keys[0])[0].clone();
        router.kill(&victim).unwrap();

        // The first screen against the dead owner fails over AND (backoff
        // saturated on the first failure) heals: every golden the victim
        // owned re-replicates to the survivors.
        let observed = sig(&[(1, 100), ((keys[0] % 13) as u32 + 2, 50)]);
        assert_eq!(router.screen_one(keys[0], &observed).unwrap().ndf, 0.0);

        let names: Vec<String> = router.events().events.into_iter().map(|event| event.name).collect();
        assert_eq!(
            names.iter().filter(|name| *name == "replica.healed").count(),
            1,
            "healing fires exactly once per death: {names:?}"
        );

        // After healing, every key the victim owned screens cleanly even
        // though the victim is still dead.
        for &key in &keys {
            let observed = sig(&[(1, 100), ((key % 13) as u32 + 2, 50)]);
            assert_eq!(router.screen_one(key, &observed).unwrap().ndf, 0.0);
        }
    }
}
