//! The TCP router front: the serving tier's accept loop and its one frame
//! handler ([`dsig_serve::service::respond`]), answering every request of
//! the `dsig-serve` wire protocol through the [`RouterHandle`] it holds —
//! a [`dsig_serve::Service`] that fans the work out across the backend
//! fleet. The fleet-observability frames (the `DSFM` aggregated scrape, the
//! `DSEX` event drain, the `DSHC` health check) are answered the same way —
//! the router is the natural aggregation point for a fleet.
//!
//! # Architecture
//!
//! ```text
//!  tester ──DSRQ/DSRT──▶ ┌─────────────────────┐ ──DSRQ──▶ backend A (dsig-serve)
//!  tester ──DSRQ/DSRT──▶ │  Router             │ ──DSRQ──▶ backend B
//!                        │  HRW(golden_key)    │ ──DSGP──▶ backend C  (replication)
//!  RouterHandle ───────▶ │  + health/failover  │ ◀─DSGF──  readback on miss
//!                        └─────────────────────┘
//! ```
//!
//! A request's `golden_fingerprint` picks its owner backend by rendezvous
//! hashing. Scoring stays bit-identical to a direct
//! `TestFlow` loop at every backend count, because the router never touches
//! a score — it only decides *where* the pure scoring function runs.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use dsig_serve::mux::{Listener, WorkPool};
use dsig_serve::service::respond;
use dsig_serve::Result;

use crate::backend::Backend;
use crate::handle::RouterHandle;
use crate::router::RouterConfig;
use crate::RouterStore;

/// The routing tier's TCP front: the accept loop answers every connection
/// through one [`RouterHandle`], whose clones route in-process alongside.
///
/// Dropping (or [`Router::shutdown`]-ing) the router stops accepting new
/// connections; in-flight connections finish serving their streams.
pub struct Router {
    listener: Listener,
    handle: RouterHandle,
}

impl Router {
    /// Binds a listener (use port 0 for an ephemeral port) in front of a
    /// backend fleet and starts routing.
    ///
    /// # Errors
    /// Returns [`dsig_serve::ServeError::Io`] if the listener cannot be
    /// bound, and an invalid-config error for an empty fleet or duplicate
    /// rendezvous ids.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Vec<Backend>,
        store: RouterStore,
        config: RouterConfig,
    ) -> Result<Router> {
        let handle = RouterHandle::with_backends(backends, store, config)?;
        // One request-processing pool shared by every downstream connection:
        // thousands of pipelined testers fan in over it, while each backend
        // is reached through one multiplexed upstream connection. On one
        // thread there is no pool: each connection answers on its own.
        let workers = dsig_engine::available_threads();
        let pool = (workers > 1).then(|| Arc::new(WorkPool::new(workers)));
        let service = handle.clone();
        let decode_errors = handle.registry().counter("serve.errors.decode");
        let listener = Listener::bind(
            addr,
            pool,
            Arc::new(move |payload: Vec<u8>| respond(&service, &payload, Some(&decode_errors))),
        )?;
        Ok(Router { listener, handle })
    }

    /// The address the router is listening on (with the real port when bound
    /// to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A clone of the router's handle: the same fleet and store, in-process
    /// (no TCP round-trip).
    pub fn handle(&self) -> RouterHandle {
        self.handle.clone()
    }

    /// Stops accepting connections and joins the accept loop. Idempotent;
    /// also invoked on drop.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsig_core::{AcceptanceBand, Signature, SignatureEntry, TestOutcome, ZoneCode};
    use dsig_serve::{GoldenStore, ServeClient, ServeConfig, ServeError, ServeHandle};

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

    fn local_fleet(count: usize) -> Vec<Backend> {
        (0..count)
            .map(|id| {
                Backend::local(
                    id as u64,
                    ServeHandle::spawn(std::sync::Arc::new(GoldenStore::new()), ServeConfig::with_shards(1)),
                )
            })
            .collect()
    }

    #[test]
    fn tcp_router_round_trips_all_request_kinds() {
        let router = Router::bind(
            "127.0.0.1:0",
            local_fleet(3),
            RouterStore::new(),
            RouterConfig::default(),
        )
        .unwrap();
        let client = ServeClient::connect(router.local_addr()).unwrap();
        let band = AcceptanceBand::new(0.05).unwrap();
        let golden_a = sig(&[(1, 100), (3, 100)]);
        let golden_b = sig(&[(2, 100), (4, 100)]);
        client.push_golden(0xA, band, &golden_a).unwrap();
        client.push_golden(0xB, band, &golden_b).unwrap();

        // Single-golden screening, routed.
        let results = client
            .screen(0xA, &[golden_a.clone(), sig(&[(1, 100), (7, 100)])])
            .unwrap();
        assert_eq!(results[0].ndf, 0.0);
        assert_eq!(results[0].outcome, TestOutcome::Pass);
        assert!(results[1].ndf > 0.0);
        // The TCP path equals the in-process path bit-for-bit.
        let direct = router
            .handle()
            .screen(0xA, &[golden_a.clone(), sig(&[(1, 100), (7, 100)])])
            .unwrap();
        assert_eq!(results, direct);

        // Adaptive retest over TCP: identical to the in-process route.
        let retest = dsig_serve::RetestRequest {
            golden_key: 0xA,
            policy: dsig_core::RetestPolicy::new(0.03, vec![2]).unwrap(),
            items: vec![dsig_serve::RetestItem {
                initial: sig(&[(1, 100), (3, 92), (7, 8)]),
                repeats: vec![sig(&[(1, 100), (3, 88), (7, 12)]); 2],
            }],
        };
        let retested = client.screen_retest(&retest).unwrap();
        assert_eq!(retested, router.handle().screen_retest(&retest).unwrap());
        assert_eq!(retested.len(), 1);
        assert!(retested[0].marginal);

        // Readback over TCP.
        let (fetched_band, fetched) = client.fetch_golden(0xB).unwrap();
        assert_eq!(fetched_band, band);
        assert_eq!(fetched, golden_b);
        assert!(client.fetch_golden(0xDEAD).is_err());
        // Unknown goldens carry the code through the router.
        assert!(matches!(
            client.screen(0xDEAD, &[golden_a]),
            Err(ServeError::UnknownGolden(0xDEAD))
        ));
    }

    #[test]
    fn empty_batches_refuse_unknown_goldens_and_answer_known_ones_empty() {
        let router = Router::bind(
            "127.0.0.1:0",
            local_fleet(2),
            RouterStore::new(),
            RouterConfig::default(),
        )
        .unwrap();
        let handle = router.handle();
        let client = ServeClient::connect(router.local_addr()).unwrap();
        handle
            .push_golden(0xE, sig(&[(1, 100)]), AcceptanceBand::new(0.05).unwrap())
            .unwrap();
        let empty_retest = |golden_key| dsig_serve::RetestRequest {
            golden_key,
            policy: dsig_core::RetestPolicy::new(0.03, vec![2]).unwrap(),
            items: vec![],
        };

        // An empty batch still routes, so an unknown fingerprint is refused
        // exactly as the serving tier refuses it: in process and over TCP.
        assert!(matches!(
            handle.screen(0xBAD, &[]),
            Err(ServeError::UnknownGolden(0xBAD))
        ));
        assert!(matches!(
            handle.screen_retest(&empty_retest(0xBAD)),
            Err(ServeError::UnknownGolden(0xBAD))
        ));
        assert!(matches!(
            client.screen(0xBAD, &[]),
            Err(ServeError::UnknownGolden(0xBAD))
        ));
        assert!(matches!(
            client.screen_retest(&empty_retest(0xBAD)),
            Err(ServeError::UnknownGolden(0xBAD))
        ));
        // A known fingerprint answers the same batches with empty lists.
        assert!(handle.screen(0xE, &[]).unwrap().is_empty());
        assert!(handle.screen_retest(&empty_retest(0xE)).unwrap().is_empty());
        assert!(client.screen(0xE, &[]).unwrap().is_empty());
        assert!(client.screen_retest(&empty_retest(0xE)).unwrap().is_empty());
    }

    #[test]
    fn tcp_metrics_scrape_reports_live_router_counters() {
        let router = Router::bind(
            "127.0.0.1:0",
            local_fleet(2),
            RouterStore::new(),
            RouterConfig::default(),
        )
        .unwrap();
        let client = ServeClient::connect(router.local_addr()).unwrap();
        let golden = sig(&[(1, 100), (3, 100)]);
        client
            .push_golden(0x11, AcceptanceBand::new(0.05).unwrap(), &golden)
            .unwrap();

        let before = client.metrics().unwrap();
        client.screen(0x11, &[golden.clone(), golden.clone()]).unwrap();
        let after = client.metrics().unwrap();

        // The registry is process-global, so assert monotonic deltas only.
        let forwards = |snapshot: &dsig_obs::MetricsSnapshot| -> u64 {
            (0..2)
                .map(|i| {
                    snapshot
                        .counter(&format!("router.backend.local-{i}.forwards"))
                        .unwrap_or(0)
                })
                .sum()
        };
        assert!(forwards(&after) > forwards(&before));
        assert!(after.histogram("router.fanout_us").is_some());
        // The TCP scrape decodes to the same shape the in-process scrape has.
        // Only this fleet's labels are compared: sibling tests register
        // other backends' counters in the shared registry between the two
        // scrapes.
        let backend_metrics = |snapshot: &dsig_obs::MetricsSnapshot| {
            snapshot
                .metrics
                .iter()
                .filter(|(name, _)| {
                    name.starts_with("router.backend.local-0.") || name.starts_with("router.backend.local-1.")
                })
                .count()
        };
        assert_eq!(backend_metrics(&after), backend_metrics(&router.handle().metrics()));
    }

    #[test]
    fn shutdown_is_idempotent_and_handles_survive() {
        let mut router = Router::bind(
            "127.0.0.1:0",
            local_fleet(2),
            RouterStore::new(),
            RouterConfig::default(),
        )
        .unwrap();
        let handle = router.handle();
        router.shutdown();
        router.shutdown();
        // The in-process path still works after the listener is gone.
        let band = AcceptanceBand::new(0.05).unwrap();
        let golden = sig(&[(1, 100)]);
        handle.push_golden(5, golden.clone(), band).unwrap();
        assert_eq!(handle.screen_one(5, &golden).unwrap().ndf, 0.0);
    }
}
