//! The in-process router front: the same routing core the TCP listener
//! serves, without any socket — and a constructor that spawns a whole
//! backend fleet in-process (via [`ServeHandle::spawn`]) for tests,
//! benchmarks and single-process deployments.
//!
//! Backends are addressed **by label** (`local-<id>` for in-process
//! backends, `host:port` for TCP ones). Labels stay valid across
//! membership changes.

use std::sync::Arc;

use cut_filters::BiquadParams;
use dsig_core::{AcceptanceBand, Signature, TestSetup};
use dsig_engine::RemoteScorer;
use dsig_obs::{EventLog, HealthReport, MetricsSnapshot, TraceLog};
use dsig_serve::{
    FleetRoster, GoldenRecord, GoldenStore, RetestItem, RetestRequest, RetestScore, ScoreResult, ServeConfig,
    ServeHandle,
};

use crate::backend::Backend;
use crate::error::Result;
use crate::router::{RouterConfig, RouterCore};
use crate::store::RouterStore;

/// An in-process client of a routing core. Cloning is cheap; each clone can
/// be used from its own thread.
#[derive(Clone)]
pub struct RouterHandle {
    core: Arc<RouterCore>,
}

impl RouterHandle {
    pub(crate) fn from_core(core: Arc<RouterCore>) -> Self {
        RouterHandle { core }
    }

    /// Builds `backends` in-process scoring backends — each its own
    /// [`GoldenStore`] behind a [`ServeHandle`] that scores on the calling
    /// thread, no TCP anywhere — and fronts them with a router. This is the
    /// fixture the loopback tests build their fleets with.
    ///
    /// # Errors
    /// Returns [`crate::RouterError::NoBackends`] for a zero backend count.
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
    /// routing core.
    ///
    /// # Errors
    /// Returns [`crate::RouterError::NoBackends`] for an empty set and an
    /// invalid-config error for duplicate rendezvous ids.
    pub fn with_backends(backends: Vec<Backend>, store: RouterStore, config: RouterConfig) -> Result<Self> {
        Ok(RouterHandle {
            core: Arc::new(RouterCore::new(backends, store, config)?),
        })
    }

    /// The router's authoritative golden store.
    pub fn store(&self) -> &RouterStore {
        self.core.store()
    }

    /// Number of members (active, draining or backed off) in the live fleet.
    pub fn backend_count(&self) -> usize {
        self.core.backend_count()
    }

    /// The live membership epoch: starts at 1, bumped on every
    /// join/leave/drain. The same value rides in `DSHR` health reports and
    /// the `DSAQ` roster.
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// Member labels in membership order (`local-<id>` for in-process
    /// backends, `host:port` for TCP ones) — the stable addressing
    /// vocabulary of the fleet.
    pub fn backend_labels(&self) -> Vec<String> {
        self.core.backend_labels()
    }

    /// The rendezvous ranking of a fingerprint as member labels, owner
    /// first.
    pub fn rank_labels(&self, key: u64) -> Vec<String> {
        self.core.rank_labels(key)
    }

    /// Kills the member at `label` (see [`Backend::kill`]): subsequent
    /// requests routed to it fail and fail over to its replicas.
    ///
    /// # Errors
    /// Rejects an unknown label.
    pub fn kill(&self, label: &str) -> Result<()> {
        self.core.kill_by_label(label)
    }

    /// Revives the member at `label` (see [`Backend::revive`]): undoes a
    /// kill and clears its failure record, so the next forward (and the
    /// next health check) sees it up immediately.
    ///
    /// # Errors
    /// Rejects an unknown label.
    pub fn revive(&self, label: &str) -> Result<()> {
        self.core.revive_by_label(label)
    }

    /// Whether the member at `label`'s health record currently marks it
    /// down.
    ///
    /// # Errors
    /// Rejects an unknown label.
    pub fn backend_is_down(&self, label: &str) -> Result<bool> {
        self.core.down_by_label(label)
    }

    /// Admits an explicit [`Backend`] (TCP or in-process) into the live
    /// fleet: the goldens it now owns are migrated onto it **before** the
    /// membership flips, so it never sees a request it cannot answer.
    /// Idempotent by label; joining a draining member reactivates it.
    ///
    /// # Errors
    /// Rejects a rendezvous-id collision and an unreachable backend (the
    /// migration must land).
    pub fn join(&self, backend: Backend) -> Result<FleetRoster> {
        self.core.join_backend(backend)
    }

    /// The wire form of [`RouterHandle::join`]: an existing member is
    /// reactivated by label, a new one must be a dialable `host:port`
    /// (joined as a TCP backend).
    ///
    /// # Errors
    /// As for [`RouterHandle::join`], plus unparseable labels.
    pub fn fleet_join(&self, label: &str) -> Result<FleetRoster> {
        self.core.join_by_label(label)
    }

    /// Removes the member at `label`, re-replicating its goldens to the
    /// surviving owners first. Idempotent: leaving an unknown member is an
    /// acknowledged no-op.
    ///
    /// # Errors
    /// Rejects removing the last member.
    pub fn fleet_leave(&self, label: &str) -> Result<FleetRoster> {
        self.core.leave_backend(label)
    }

    /// Marks the member at `label` draining: new work steers away, its
    /// goldens re-replicate, and it stays ranked as a failover last resort.
    /// Idempotent on a draining member.
    ///
    /// # Errors
    /// Rejects an unknown label.
    pub fn fleet_drain(&self, label: &str) -> Result<FleetRoster> {
        self.core.drain_backend(label)
    }

    /// The live roster: epoch plus every member's label, id and state.
    pub fn fleet_roster(&self) -> FleetRoster {
        self.core.roster()
    }

    /// Snapshots the routing tier's metrics (per-backend forward/failover/
    /// retry counters, backoff gauge, fan-out latency, refresh-on-miss,
    /// membership epoch) — the in-process equivalent of a `DSMX` scrape.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics()
    }

    /// Drains the routing tier's buffered trace spans — the in-process
    /// equivalent of a `DSTX` scrape. Each span is exported at most once.
    pub fn traces(&self) -> TraceLog {
        self.core.traces()
    }

    /// Aggregated fleet metrics — the in-process equivalent of a `DSFM`
    /// scrape: every backend's snapshot under a `backend.<label>.` prefix,
    /// the cross-backend rollup under `fleet.`, and the router's own
    /// registry unprefixed. Unreachable backends are skipped, never fatal.
    pub fn fleet_metrics(&self) -> MetricsSnapshot {
        self.core.fleet_metrics()
    }

    /// Aggregated fleet trace drain — the in-process equivalent of a `DSFT`
    /// scrape: every reachable backend's spans plus the router's own.
    /// Consuming: each span is exported at most once fleet-wide.
    pub fn fleet_traces(&self) -> TraceLog {
        self.core.fleet_traces()
    }

    /// Drains the fleet's buffered events — the in-process equivalent of a
    /// `DSEX` scrape at the router: every reachable backend's events plus
    /// the router's own (backend backoff/recovery and membership
    /// transitions, refresh-on-miss records). Consuming: each record is
    /// exported at most once fleet-wide.
    pub fn events(&self) -> EventLog {
        self.core.events()
    }

    /// Scrapes the fleet and verdicts it against the configured
    /// [`dsig_obs::SloPolicy`] — the in-process equivalent of a `DSHC` health
    /// check. A backend counts as down when its health record backs it off
    /// or its scrape fails; the report carries the live membership epoch.
    pub fn health(&self) -> HealthReport {
        self.core.health()
    }

    /// Characterizes `(setup, reference)` into the router store and pushes
    /// the golden to its owning backends; returns the fingerprint clients
    /// screen with.
    ///
    /// # Errors
    /// Propagates capture errors; fails if no backend accepts the push.
    pub fn characterize(&self, setup: &TestSetup, reference: &BiquadParams, band: AcceptanceBand) -> Result<u64> {
        self.core.characterize(setup, reference, band)
    }

    /// Stores an already-characterized golden and replicates it to its
    /// owning backends.
    ///
    /// # Errors
    /// Fails if no backend accepts the push.
    pub fn push_golden(&self, key: u64, golden: Signature, band: AcceptanceBand) -> Result<()> {
        self.core.push_golden(key, golden, band)
    }

    /// Resolves a golden record: the router store first, then readback from
    /// the owning backends (caching it locally).
    ///
    /// # Errors
    /// Returns [`crate::RouterError::UnknownGolden`] when nobody holds it.
    pub fn golden(&self, key: u64) -> Result<Arc<GoldenRecord>> {
        self.core.golden(key)
    }

    /// Scores a batch against the golden under `golden_key`, routed to the
    /// owning backend (with deterministic failover) and split at the
    /// configured sub-batch boundary — bit-identical to direct
    /// [`dsig_core::TestFlow`] scoring for every backend count and split.
    ///
    /// # Errors
    /// Returns [`crate::RouterError::UnknownGolden`] for an unknown
    /// fingerprint and [`crate::RouterError::AllBackendsFailed`] when the
    /// whole failover chain is down.
    pub fn screen(&self, golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
        self.core.screen(golden_key, signatures)
    }

    /// Scores a single signature (a one-element [`RouterHandle::screen`]).
    ///
    /// # Errors
    /// As for [`RouterHandle::screen`].
    pub fn screen_one(&self, golden_key: u64, signature: &Signature) -> Result<ScoreResult> {
        Ok(self.screen(golden_key, std::slice::from_ref(signature))?[0])
    }

    /// Scores a multi-golden batch: split into per-backend sub-batches by
    /// rendezvous ownership, forwarded concurrently, reassembled in request
    /// order.
    ///
    /// # Errors
    /// As for [`RouterHandle::screen`].
    pub fn screen_multi(&self, items: &[(u64, Signature)]) -> Result<Vec<ScoreResult>> {
        self.core.screen_multi(items)
    }

    /// Screens an adaptive-retest batch (`DSRT`): routed to the golden's
    /// owning backend (with the same deterministic failover chain as
    /// [`RouterHandle::screen`]), which reruns marginal devices with
    /// averaged repeats before verdicting.
    ///
    /// # Errors
    /// As for [`RouterHandle::screen`].
    pub fn screen_retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
        self.core.screen_retest(request)
    }
}

impl RemoteScorer for RouterHandle {
    fn screen_remote(&self, golden_key: u64, signatures: &[Signature]) -> dsig_core::Result<Vec<ScoreResult>> {
        RouterHandle::screen(self, golden_key, signatures).map_err(crate::RouterError::into_dsig)
    }

    fn retest_remote(
        &self,
        golden_key: u64,
        policy: &dsig_core::RetestPolicy,
        devices: &[RetestItem],
    ) -> dsig_core::Result<Vec<RetestScore>> {
        let request = RetestRequest {
            golden_key,
            policy: policy.clone(),
            items: devices.to_vec(),
        };
        RouterHandle::screen_retest(self, &request).map_err(crate::RouterError::into_dsig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouterError;
    use dsig_core::{SignatureEntry, TestOutcome, ZoneCode};
    use dsig_serve::BackendState;

    fn sig(codes: &[(u32, f64)]) -> Signature {
        Signature::new(
            codes
                .iter()
                .map(|&(c, d)| SignatureEntry {
                    code: ZoneCode(c),
                    duration: d,
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
                sub_batch: 3, // force sub-batch splits in tests
                ..RouterConfig::default()
            },
        )
    }

    /// An in-process fleet whose backends and routing core report into one
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

    /// A routing core over `members` reporting into `registry`. Tests keep
    /// off the process-wide registry because events are drained from its
    /// ring: tests running in parallel would drain each other's events.
    fn routed(members: Vec<Backend>, config: RouterConfig, registry: dsig_obs::Registry) -> RouterHandle {
        RouterHandle::from_core(Arc::new(
            RouterCore::new_in(members, RouterStore::new(), config, registry).unwrap(),
        ))
    }

    fn local_backend(id: u64) -> Backend {
        Backend::local(
            id,
            ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(1)),
        )
    }

    #[test]
    fn empty_fleets_and_duplicate_ids_are_rejected() {
        assert!(matches!(
            RouterHandle::spawn(0, RouterStore::new(), RouterConfig::default()),
            Err(RouterError::NoBackends)
        ));
        let dup = vec![local_backend(1), local_backend(1)];
        assert!(RouterHandle::with_backends(dup, RouterStore::new(), RouterConfig::default()).is_err());
    }

    #[test]
    fn pushed_goldens_land_on_the_owner_and_screen_correctly() {
        let router = fleet(4, 2);
        let golden = sig(&[(1, 100e-6), (3, 100e-6)]);
        router.push_golden(0xC0FFEE, golden.clone(), band(0.05)).unwrap();
        assert_eq!(router.store().len(), 1);
        // Screening the golden itself through the router is a clean pass.
        let results = router
            .screen(0xC0FFEE, &[golden.clone(), sig(&[(1, 100e-6), (7, 100e-6)])])
            .unwrap();
        assert_eq!(results[0].ndf, 0.0);
        assert_eq!(results[0].outcome, TestOutcome::Pass);
        assert!(results[1].ndf > 0.0);
        // Readback resolves from the store; unknown keys are reported as such.
        assert_eq!(router.golden(0xC0FFEE).unwrap().golden, golden);
        assert!(matches!(router.golden(0xBAD), Err(RouterError::UnknownGolden(0xBAD))));
        assert!(matches!(
            router.screen(0xBAD, &[golden]),
            Err(RouterError::UnknownGolden(0xBAD))
        ));
    }

    #[test]
    fn failover_refreshes_the_golden_and_keeps_verdicts_identical() {
        let router = fleet(3, 1); // a single copy: failover must refresh
        let golden = sig(&[(1, 100e-6), (3, 100e-6)]);
        router.push_golden(7, golden.clone(), band(0.05)).unwrap();
        let observed = vec![
            golden.clone(),
            sig(&[(1, 100e-6), (3, 90e-6), (7, 10e-6)]),
            sig(&[(5, 200e-6)]),
        ];
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
    fn multi_screen_reassembles_across_backends_in_request_order() {
        let router = fleet(4, 2);
        // Several goldens with distinguishable signatures.
        let keys: Vec<u64> = (0..5).map(|k| 0x1000 + k).collect();
        for (i, &key) in keys.iter().enumerate() {
            router
                .push_golden(key, sig(&[(1, 100e-6), (i as u32 + 2, 100e-6)]), band(0.05))
                .unwrap();
        }
        // Interleaved items: each scores its own golden cleanly, a shifted
        // variant of the next one dirtily.
        let items: Vec<(u64, Signature)> = (0..30)
            .map(|n| {
                let key = keys[n % keys.len()];
                (key, sig(&[(1, 100e-6), ((n % keys.len()) as u32 + 2, 100e-6)]))
            })
            .collect();
        let results = router.screen_multi(&items).unwrap();
        assert_eq!(results.len(), items.len());
        for (n, result) in results.iter().enumerate() {
            assert_eq!(result.ndf, 0.0, "item {n} must match its own golden");
        }
        // Bit-identical to screening each key separately.
        for (item, result) in items.iter().zip(&results) {
            let single = router.screen_one(item.0, &item.1).unwrap();
            assert_eq!(single, *result);
        }
        // Unknown key anywhere fails the whole multi-batch deterministically.
        let mut bad = items;
        bad[4].0 = 0xFFFF;
        assert!(matches!(
            router.screen_multi(&bad),
            Err(RouterError::UnknownGolden(0xFFFF))
        ));
        assert!(router.screen_multi(&[]).unwrap().is_empty());
    }

    #[test]
    fn retest_requests_route_with_failover_and_match_direct_serving() {
        use dsig_core::RetestPolicy;
        use dsig_serve::RetestItem;

        let router = fleet(3, 1); // one copy: failover must refresh
        let golden = sig(&[(1, 100e-6), (3, 100e-6)]);
        router.push_golden(0xAB, golden.clone(), band(0.05)).unwrap();
        // A marginal device (one short zone rewrite) plus a clean one; the
        // repeats confirm the rewrite, so the marginal device fails.
        let marginal = sig(&[(1, 100e-6), (3, 90e-6), (7, 10e-6)]);
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
            Err(RouterError::UnknownGolden(0xBAD))
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
        let golden = sig(&[(1, 100e-6), (3, 100e-6)]);
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
        let golden = sig(&[(1, 100e-6), (3, 100e-6)]);
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
        let golden = sig(&[(1, 100e-6), (3, 100e-6)]);
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
        // Fleet traces drain without error even with spans buffered by other
        // tests; a second drain of a quiet fleet yields nothing new for the
        // spans this test produced.
        let _ = router.fleet_traces();
    }

    #[test]
    fn all_backends_dead_is_reported_with_detail() {
        let router = fleet(2, 2);
        let golden = sig(&[(1, 100e-6)]);
        router.push_golden(1, golden.clone(), band(0.05)).unwrap();
        router.kill("local-0").unwrap();
        router.kill("local-1").unwrap();
        match router.screen(1, &[golden]) {
            Err(RouterError::AllBackendsFailed { key, detail }) => {
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
        let golden = sig(&[(1, 100e-6)]);
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
                .push_golden(key, sig(&[(1, 100e-6), (key as u32 + 2, 50e-6)]), band(0.05))
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
            let observed = sig(&[(1, 100e-6), (key as u32 + 2, 50e-6)]);
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
                .push_golden(key, sig(&[(1, 100e-6), ((key % 31) as u32 + 2, 50e-6)]), band(0.05))
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
            let observed = sig(&[(1, 100e-6), ((key % 31) as u32 + 2, 50e-6)]);
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
                .push_golden(key, sig(&[(1, 100e-6), ((key % 17) as u32 + 2, 50e-6)]), band(0.05))
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
            let observed = sig(&[(1, 100e-6), ((key % 17) as u32 + 2, 50e-6)]);
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
            sub_batch: 3,
            health: HealthConfig {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
            },
            ..RouterConfig::default()
        };
        let router = fleet_with(3, config);
        let keys: Vec<u64> = (300..324).collect();
        for &key in &keys {
            router
                .push_golden(key, sig(&[(1, 100e-6), ((key % 13) as u32 + 2, 50e-6)]), band(0.05))
                .unwrap();
        }
        let victim = router.rank_labels(keys[0])[0].clone();
        router.kill(&victim).unwrap();

        // The first screen against the dead owner fails over AND (backoff
        // saturated on the first failure) heals: every golden the victim
        // owned re-replicates to the survivors.
        let observed = sig(&[(1, 100e-6), ((keys[0] % 13) as u32 + 2, 50e-6)]);
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
            let observed = sig(&[(1, 100e-6), ((key % 13) as u32 + 2, 50e-6)]);
            assert_eq!(router.screen_one(key, &observed).unwrap().ndf, 0.0);
        }
    }
}
