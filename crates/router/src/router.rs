//! The routing tier's data model: the [`RouterConfig`] knobs, the
//! epoch-versioned membership snapshot every routed operation works within,
//! and the metric handles [`crate::RouterHandle`] routes with. The routing
//! itself (ranking, replication, failover, membership changes)
//! lives on [`crate::RouterHandle`].

use std::sync::Arc;

use dsig_obs::{Counter, Gauge, Histogram, Registry};
use dsig_serve::proto::ReplyBody;
use dsig_serve::{Request, Response};

use crate::backend::{Backend, HealthConfig};
use crate::hash::rank_backends;

/// Tuning knobs of a router.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Copies of each golden pushed across the rendezvous ranking (the owner
    /// plus `replicas - 1` followers). At least one; more copies let a
    /// failover backend answer without a mid-request refresh.
    pub replicas: usize,
    /// Health/backoff policy of the backend set.
    pub health: HealthConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: 2,
            health: HealthConfig::default(),
        }
    }
}

/// The routing tier's fleet-wide metric handles, resolved once per router
/// so the forwarding hot path never touches the registry lock.
pub(crate) struct RouterMetrics {
    /// `router.backoff_backends` — ranked backends in failure backoff at the
    /// last forward (a state gauge, refreshed per forwarded operation).
    pub(crate) backoff: Arc<Gauge>,
    /// `router.fanout_us` — latency of one forwarded request, failover walk
    /// included.
    pub(crate) fanout_us: Arc<Histogram>,
    /// `router.refresh_on_miss` — goldens re-pushed to a backend that
    /// answered "unknown golden" mid-request.
    pub(crate) refresh_on_miss: Arc<Counter>,
    /// `router.membership_epoch` — the live epoch, mirrored as a gauge so a
    /// plain metrics scrape shows membership churn.
    pub(crate) epoch: Arc<Gauge>,
}

impl RouterMetrics {
    pub(crate) fn new(registry: &Registry) -> RouterMetrics {
        RouterMetrics {
            backoff: registry.gauge("router.backoff_backends"),
            fanout_us: registry.histogram("router.fanout_us"),
            refresh_on_miss: registry.counter("router.refresh_on_miss"),
            epoch: registry.gauge("router.membership_epoch"),
        }
    }
}

/// Per-backend forward/failover/retry counters, embedded in the member
/// entry so they travel with the backend through membership changes.
/// Cloning shares the counters (they are registry handles).
#[derive(Clone)]
pub(crate) struct BackendMetrics {
    /// `router.backend.<label>.forwards` — operations this backend answered.
    pub(crate) forwards: Arc<Counter>,
    /// `router.backend.<label>.failovers` — operations this backend answered
    /// after at least one higher-ranked backend was skipped or had failed.
    pub(crate) failovers: Arc<Counter>,
    /// `router.backend.<label>.retries` — failed attempts against this
    /// backend that sent the operation onward down the chain.
    pub(crate) retries: Arc<Counter>,
}

/// One member of the live fleet: the backend, its counters and its drain
/// flag. Entries are cheap to clone (everything shared), which is what
/// makes each membership snapshot an immutable value.
#[derive(Clone)]
pub(crate) struct MemberEntry {
    pub(crate) backend: Arc<Backend>,
    pub(crate) metrics: BackendMetrics,
    /// A draining member stays ranked (last resort under failover) but is
    /// excluded from the preferred partition, so new work steers away.
    pub(crate) draining: bool,
}

impl MemberEntry {
    /// An active member whose counters report into `registry` under its
    /// label.
    pub(crate) fn new(registry: &Registry, backend: Backend) -> MemberEntry {
        let name = |what: &str| format!("router.backend.{}.{what}", backend.label());
        MemberEntry {
            metrics: BackendMetrics {
                forwards: registry.counter(&name("forwards")),
                failovers: registry.counter(&name("failovers")),
                retries: registry.counter(&name("retries")),
            },
            backend: Arc::new(backend),
            draining: false,
        }
    }
}

/// An immutable snapshot of the fleet at one epoch. Every routed operation
/// takes one `Arc<Membership>` snapshot up front and works entirely within
/// it — indices are snapshot-relative, so a concurrent join/leave can never
/// shift a backend out from under a forward in flight.
pub(crate) struct Membership {
    /// Bumped on every join/leave/drain; starts at 1. Surfaced in `DSHR`
    /// health reports, the `DSAQ` roster and the `router.membership_epoch`
    /// gauge.
    pub(crate) epoch: u64,
    pub(crate) entries: Vec<MemberEntry>,
}

impl Membership {
    /// Member indices in rendezvous order for a fingerprint: owner first.
    /// Draining members still rank — exclusion from new work happens in the
    /// forward partition, not here, so the ranking (and therefore replica
    /// placement) stays a pure function of the member ids.
    pub(crate) fn rank(&self, key: u64) -> Vec<usize> {
        let ids: Vec<u64> = self.entries.iter().map(|entry| entry.backend.id()).collect();
        rank_backends(key, &ids)
    }

    pub(crate) fn index_of(&self, label: &str) -> Option<usize> {
        self.entries.iter().position(|entry| entry.backend.label() == label)
    }

    /// Sends `request` to every member concurrently (one scoped thread per
    /// member), answering in membership order. A member whose call fails
    /// yields `None`: the fleet scrapes skip it, never fail on it.
    pub(crate) fn fan_out<T: ReplyBody + Send>(&self, request: Request<'static>) -> Vec<Option<T>> {
        let request = &request;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .entries
                .iter()
                .map(|entry| {
                    scope.spawn(move || entry.backend.call(request.clone()).and_then(Response::into_body).ok())
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("fleet fan-out thread panicked"))
                .collect()
        })
    }
}
