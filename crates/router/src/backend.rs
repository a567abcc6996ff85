//! A scoring backend as the router sees it: a [`Service`] (an in-process
//! [`ServeHandle`] or a `dsig-serve` process over TCP), a stable rendezvous
//! identity, a kill switch and a health record with exponential backoff.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsig_core::recover;
use dsig_serve::{PipelinedClient, Request, Response, Result, ServeError, ServeHandle, Service};

/// Backoff policy of the per-backend health record: the `n`-th consecutive
/// failure marks the backend down for `base_backoff * 2^(n-1)`, capped at
/// `max_backoff`. A marked-down backend is deprioritized, never abandoned —
/// requests fall back to it when every ranked-higher backend also fails, and
/// any success clears the record.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Backoff after the first consecutive failure.
    pub base_backoff: Duration,
    /// Upper bound on the backoff, however many failures accumulate.
    pub max_backoff: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            base_backoff: Duration::from_millis(250),
            max_backoff: Duration::from_secs(5),
        }
    }
}

impl HealthConfig {
    /// The backoff applied after `consecutive_failures` failures.
    fn backoff(&self, consecutive_failures: u32) -> Duration {
        let doublings = consecutive_failures.saturating_sub(1).min(16);
        self.max_backoff.min(self.base_backoff.saturating_mul(1 << doublings))
    }
}

/// Mutable health state of one backend.
#[derive(Debug, Default)]
struct Health {
    consecutive_failures: u32,
    down_until: Option<Instant>,
    /// Set once per failure streak when the backoff saturates at the
    /// configured cap — the latch behind once-per-death replica healing.
    heal_armed: bool,
}

/// A `dsig-serve` process reached over **one multiplexed connection**: every
/// forwarding router thread pipelines onto the same [`PipelinedClient`], so
/// thousands of downstream testers fan in over one upstream stream. The
/// connection is dialed on first use. Any error but a remote-side one
/// (`UnknownGolden`, `Remote`) drops it — a dead or poisoned client is
/// replaced by a fresh dial on the next call.
struct Tcp {
    addr: SocketAddr,
    mux: Mutex<Option<PipelinedClient>>,
}

impl Service for Tcp {
    fn call(&self, request: Request<'_>) -> Result<Response> {
        let client = {
            let mut slot = recover(self.mux.lock());
            match &*slot {
                Some(client) => client.clone(),
                None => slot.insert(PipelinedClient::connect(self.addr)?).clone(),
            }
        };
        // The pipelined client already retried once internally, so a
        // transport error here means the backend is unreachable right now.
        let response = client.call(request);
        if let Err(err) = &response {
            if !matches!(err, ServeError::UnknownGolden(_) | ServeError::Remote(_)) {
                *recover(self.mux.lock()) = None;
            }
        }
        response
    }
}

/// One backend of a router: the service it answers through, its identity,
/// its kill switch and its health.
pub struct Backend {
    id: u64,
    label: String,
    service: Arc<dyn Service>,
    killed: AtomicBool,
    health: Mutex<Health>,
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backend")
            .field("id", &self.id)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl Backend {
    /// A backend answering through `service`, addressed by `label` and
    /// ranked by the rendezvous id `id` — the constructor every transport
    /// goes through. A test or a simulation can put any [`Service`] here,
    /// for example one that injects faults.
    pub fn new(id: u64, label: impl Into<String>, service: Arc<dyn Service>) -> Backend {
        Backend {
            id,
            label: label.into(),
            service,
            killed: AtomicBool::new(false),
            health: Mutex::new(Health::default()),
        }
    }

    /// A TCP backend addressing a `dsig-serve` process over one multiplexed
    /// connection, dialed on first use. The rendezvous id is a hash of the
    /// address, so every router instance fronting the same backend set ranks
    /// keys identically.
    pub fn tcp(addr: SocketAddr) -> Backend {
        let label = addr.to_string();
        let id = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3)
        });
        let service = Tcp {
            addr,
            mux: Mutex::new(None),
        };
        Backend::new(id, label, Arc::new(service))
    }

    /// An in-process backend over an existing [`ServeHandle`] (the no-TCP
    /// path tests and single-process deployments use), with an explicit
    /// rendezvous id (in-process routers number their backends `0, 1, 2,
    /// …`).
    pub fn local(id: u64, handle: ServeHandle) -> Backend {
        Backend::new(id, format!("local-{id}"), Arc::new(handle))
    }

    /// The stable rendezvous identity of this backend.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A human-readable name (the address for TCP backends).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Simulates (or forces) a dead backend: until [`Backend::revive`],
    /// every operation fails with [`ServeError::Closed`] as a torn-down
    /// connection would, whatever the transport. A TCP backend keeps its
    /// connection; the remote process is not touched.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    /// Undoes a [`Backend::kill`]: the backend accepts operations again, and
    /// the health record is cleared so the next forward reaches the backend
    /// without waiting out a backoff window. Whether operations then succeed
    /// depends on the service behind it (a TCP backend's remote process must
    /// be up). Returns `true` when this ended a failure streak.
    pub fn revive(&self) -> bool {
        self.killed.store(false, Ordering::SeqCst);
        self.note_success()
    }

    /// Runs one request on this backend's service, unless the backend is
    /// killed.
    ///
    /// # Errors
    /// Returns [`ServeError::Closed`] while killed, otherwise the service's
    /// error.
    pub(crate) fn call(&self, request: Request<'_>) -> Result<Response> {
        if self.killed.load(Ordering::SeqCst) {
            return Err(ServeError::Closed);
        }
        self.service.call(request)
    }

    /// Whether the backend's health record currently marks it down.
    pub fn is_down(&self) -> bool {
        !self.is_available(Instant::now())
    }

    /// Whether the backend is outside any failure backoff window at `now`.
    pub(crate) fn is_available(&self, now: Instant) -> bool {
        match recover(self.health.lock()).down_until {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// Clears the failure record after a successful operation. Returns
    /// `true` when this ended a failure streak — the backed-off → recovered
    /// transition the router logs an event for.
    pub(crate) fn note_success(&self) -> bool {
        let mut health = recover(self.health.lock());
        let recovered = health.consecutive_failures > 0;
        health.consecutive_failures = 0;
        health.down_until = None;
        health.heal_armed = false;
        recovered
    }

    /// The replica-healing latch: returns `true` exactly once per failure
    /// streak, the first time the streak's backoff has saturated at
    /// [`HealthConfig::max_backoff`] — i.e. the backend has stayed dead past
    /// every doubling and is now presumed gone for good. Any success (or a
    /// [`Backend::revive`]) disarms the latch, so a backend that comes back
    /// and dies again heals again.
    pub(crate) fn arm_heal(&self, config: &HealthConfig) -> bool {
        let mut health = recover(self.health.lock());
        if health.heal_armed
            || health.consecutive_failures == 0
            || config.backoff(health.consecutive_failures) < config.max_backoff
        {
            return false;
        }
        health.heal_armed = true;
        true
    }

    /// Records a failed operation and arms the exponential backoff. Returns
    /// `true` when this started a failure streak (the backend just went from
    /// healthy to backed-off).
    pub(crate) fn note_failure(&self, now: Instant, config: &HealthConfig) -> bool {
        let mut health = recover(self.health.lock());
        // Both fields are computed before either is assigned, so a panic
        // leaves the record as it was.
        let failures = health.consecutive_failures.saturating_add(1);
        health.down_until = Some(now + config.backoff(failures));
        health.consecutive_failures = failures;
        failures == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dsig_core::{AcceptanceBand, Signature, SignatureEntry, ZoneCode};
    use dsig_serve::{AdminReply, GoldenStore, ScoreResult, ServeConfig, Server};

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

    fn local_backend(id: u64) -> Backend {
        Backend::local(
            id,
            ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(1)),
        )
    }

    /// Screens `observed` against `key` on `backend`.
    fn screen(backend: &Backend, key: u64, observed: &[Signature]) -> Result<Vec<ScoreResult>> {
        backend.call(Request::screen(key, observed))?.into_body()
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let config = HealthConfig {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(450),
        };
        assert_eq!(config.backoff(1), Duration::from_millis(100));
        assert_eq!(config.backoff(2), Duration::from_millis(200));
        assert_eq!(config.backoff(3), Duration::from_millis(400));
        assert_eq!(config.backoff(4), Duration::from_millis(450), "capped");
        assert_eq!(config.backoff(40), Duration::from_millis(450), "shift-safe");
    }

    #[test]
    fn health_marks_down_and_recovers_on_success() {
        let backend = local_backend(0);
        let config = HealthConfig::default();
        let now = Instant::now();
        assert!(backend.is_available(now));
        assert!(backend.note_failure(now, &config), "first failure starts a streak");
        assert!(!backend.is_available(now));
        assert!(backend.is_down());
        // ...but availability returns once the backoff elapses...
        assert!(backend.is_available(now + config.base_backoff));
        // ...and a success clears the record instantly.
        assert!(
            !backend.note_failure(now, &config),
            "a running streak is not a transition"
        );
        assert!(backend.note_success(), "clearing a streak is the recovery transition");
        assert!(backend.is_available(now));
        assert!(!backend.is_down());
        assert!(
            !backend.note_success(),
            "a success with a clean record is not a transition"
        );
    }

    #[test]
    fn heal_latch_arms_once_at_backoff_saturation_and_rearms_after_recovery() {
        let backend = local_backend(1);
        let config = HealthConfig {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
        };
        let now = Instant::now();
        backend.note_failure(now, &config);
        assert!(!backend.arm_heal(&config), "one failure is a blip, not a death");
        backend.note_failure(now, &config);
        assert!(!backend.arm_heal(&config), "still doubling");
        backend.note_failure(now, &config);
        assert!(backend.arm_heal(&config), "backoff saturated: heal once");
        backend.note_failure(now, &config);
        assert!(!backend.arm_heal(&config), "the latch holds for the rest of the streak");
        backend.note_success();
        assert!(!backend.arm_heal(&config), "a healthy backend never heals");
        for _ in 0..3 {
            backend.note_failure(now, &config);
        }
        assert!(backend.arm_heal(&config), "a second death heals again");
    }

    #[test]
    fn revive_undoes_a_kill_and_clears_the_health_record() {
        let backend = local_backend(7);
        let band = AcceptanceBand::new(0.05).unwrap();
        let golden = sig(&[(1, 100)]);
        backend.call(Request::push(4, band, &golden)).unwrap();
        backend.kill();
        backend.note_failure(Instant::now(), &HealthConfig::default());
        assert!(matches!(backend.call(Request::Metrics), Err(ServeError::Closed)));
        assert!(matches!(backend.call(Request::Events), Err(ServeError::Closed)));
        assert!(matches!(backend.call(Request::Traces), Err(ServeError::Closed)));
        assert!(backend.is_down());
        backend.revive();
        assert!(!backend.is_down(), "revive clears the backoff immediately");
        assert_eq!(screen(&backend, 4, std::slice::from_ref(&golden)).unwrap()[0].ndf, 0.0);
        assert!(backend.call(Request::Metrics).is_ok());
    }

    #[test]
    fn killed_local_backend_fails_like_a_dead_process() {
        let backend = local_backend(3);
        let band = AcceptanceBand::new(0.05).unwrap();
        let golden = sig(&[(1, 100)]);
        backend.call(Request::push(9, band, &golden)).unwrap();
        match backend.call(Request::FetchGolden { key: 9 }).unwrap() {
            Response::Admin(AdminReply::Record(record)) => assert_eq!(record.golden, golden),
            other => panic!("expected the record, got {other:?}"),
        }
        assert_eq!(screen(&backend, 9, std::slice::from_ref(&golden)).unwrap()[0].ndf, 0.0);
        backend.kill();
        assert!(matches!(
            screen(&backend, 9, std::slice::from_ref(&golden)),
            Err(ServeError::Closed)
        ));
        assert!(matches!(
            backend.call(Request::push(9, band, &golden)),
            Err(ServeError::Closed)
        ));
        assert!(matches!(
            backend.call(Request::FetchGolden { key: 9 }),
            Err(ServeError::Closed)
        ));
    }

    /// A TCP backend whose service the test can inspect: whether it
    /// currently holds its shared connection.
    fn tcp_backend(addr: SocketAddr) -> (Backend, Arc<Tcp>) {
        let tcp = Arc::new(Tcp {
            addr,
            mux: Mutex::new(None),
        });
        let backend = Backend::new(7, addr.to_string(), Arc::clone(&tcp) as Arc<dyn Service>);
        (backend, tcp)
    }

    fn connected(tcp: &Tcp) -> bool {
        tcp.mux.lock().unwrap().is_some()
    }

    #[test]
    fn tcp_backend_keeps_its_connection_on_answers_and_refuses_work_when_killed() {
        let mut server =
            Server::bind("127.0.0.1:0", Arc::new(GoldenStore::new()), ServeConfig::with_shards(1)).unwrap();
        let band = AcceptanceBand::new(0.05).unwrap();
        let golden = sig(&[(1, 100)]);
        let observed = std::slice::from_ref(&golden);
        let (backend, tcp) = tcp_backend(server.local_addr());
        assert!(!connected(&tcp), "the connection is dialed on first use");
        backend.call(Request::push(4, band, &golden)).unwrap();
        assert!(connected(&tcp));

        // An unknown golden is the server's answer, not a transport failure:
        // the connection stays, and a router does not mark the backend down.
        assert!(matches!(
            screen(&backend, 0xBAD, observed),
            Err(ServeError::UnknownGolden(0xBAD))
        ));
        assert!(connected(&tcp), "a remote-side error keeps the connection");
        let router = crate::RouterHandle::with_backends(
            vec![Backend::tcp(server.local_addr())],
            crate::RouterStore::new(),
            crate::RouterConfig::default(),
        )
        .unwrap();
        let label = server.local_addr().to_string();
        router.push_golden(4, golden.clone(), band).unwrap();
        assert!(matches!(
            router.screen(0xBAD, observed),
            Err(ServeError::UnknownGolden(0xBAD))
        ));
        assert!(!router.backend_is_down(&label).unwrap());

        // A kill refuses work without touching the connection, on every
        // transport, until a revive; the still-running server then answers
        // on the same connection.
        backend.kill();
        assert!(matches!(screen(&backend, 4, observed), Err(ServeError::Closed)));
        assert!(connected(&tcp), "a kill leaves the connection alone");
        backend.revive();
        assert_eq!(screen(&backend, 4, observed).unwrap()[0].ndf, 0.0);
        router.kill(&label).unwrap();
        match router.screen(4, observed) {
            Err(ServeError::AllBackendsFailed { detail, .. }) => assert!(detail.contains("shut down"), "{detail}"),
            other => panic!("expected AllBackendsFailed, got {other:?}"),
        }
        assert!(router.backend_is_down(&label).unwrap());
        router.revive(&label).unwrap();
        assert_eq!(router.screen(4, observed).unwrap()[0].ndf, 0.0);
        assert!(!router.backend_is_down(&label).unwrap());

        // Once the server is gone, a fresh dial fails with the connection
        // error, leaves the slot empty, and the router marks the backend
        // down.
        server.shutdown();
        let (backend, tcp) = tcp_backend(server.local_addr());
        assert!(matches!(screen(&backend, 4, observed), Err(ServeError::Io(_))));
        assert!(!connected(&tcp), "a transport failure leaves the slot empty");
        let router = crate::RouterHandle::with_backends(
            vec![Backend::tcp(server.local_addr())],
            crate::RouterStore::new(),
            crate::RouterConfig::default(),
        )
        .unwrap();
        match router.screen(4, observed) {
            Err(ServeError::AllBackendsFailed { detail, .. }) => {
                assert!(detail.contains("i/o failed"), "{detail}")
            }
            other => panic!("expected AllBackendsFailed, got {other:?}"),
        }
        assert!(router.backend_is_down(&label).unwrap());
    }

    #[test]
    fn tcp_ids_hash_the_address_and_local_ids_are_explicit() {
        let a = Backend::tcp("127.0.0.1:7001".parse().unwrap());
        let b = Backend::tcp("127.0.0.1:7002".parse().unwrap());
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id(), Backend::tcp("127.0.0.1:7001".parse().unwrap()).id());
        assert_eq!(a.label(), "127.0.0.1:7001");
        assert_eq!(local_backend(5).id(), 5);
        assert!(format!("{:?}", local_backend(5)).contains("local-5"));
    }
}
