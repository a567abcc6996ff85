//! A scoring backend as the router sees it: a transport (TCP `dsig-serve`
//! process or in-process [`ServeHandle`]), a stable rendezvous identity and
//! a health record with exponential backoff.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dsig_core::{AcceptanceBand, Signature};
use dsig_obs::{EventLog, MetricsSnapshot, TraceLog};
use dsig_serve::{GoldenRecord, PipelinedClient, RetestRequest, RetestScore, ScoreResult, ServeError, ServeHandle};

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

/// How the router reaches a backend.
enum Transport {
    /// A `dsig-serve` process reached over **one multiplexed connection**:
    /// every concurrently forwarding router thread pipelines onto the same
    /// [`PipelinedClient`], so the fan-in from thousands of downstream
    /// testers rides a single upstream stream per backend. The slot is
    /// `None` until first use and after a transport failure (the next
    /// operation redials).
    Tcp {
        addr: SocketAddr,
        mux: Mutex<Option<PipelinedClient>>,
    },
    /// An in-process scoring handle (built by [`ServeHandle::spawn`]) — the
    /// no-TCP path tests and single-process deployments use. The `killed`
    /// flag simulates a dead process: once set, every operation fails like a
    /// torn-down connection would.
    Local { handle: ServeHandle, killed: AtomicBool },
}

/// One backend of a router: transport + identity + health.
pub struct Backend {
    id: u64,
    label: String,
    transport: Transport,
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
    /// A TCP backend addressing a `dsig-serve` process. The rendezvous id is
    /// a hash of the address, so every router instance fronting the same
    /// backend set ranks keys identically.
    pub fn tcp(addr: SocketAddr) -> Backend {
        let label = addr.to_string();
        let id = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3)
        });
        Backend {
            id,
            label,
            transport: Transport::Tcp {
                addr,
                mux: Mutex::new(None),
            },
            health: Mutex::new(Health::default()),
        }
    }

    /// An in-process backend over an existing [`ServeHandle`], with an
    /// explicit rendezvous id (in-process routers number their backends
    /// `0, 1, 2, …`).
    pub fn local(id: u64, handle: ServeHandle) -> Backend {
        Backend {
            id,
            label: format!("local-{id}"),
            transport: Transport::Local {
                handle,
                killed: AtomicBool::new(false),
            },
            health: Mutex::new(Health::default()),
        }
    }

    /// The stable rendezvous identity of this backend.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A human-readable name (the address for TCP backends).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Simulates (or forces) a dead backend: every subsequent operation on an
    /// in-process backend fails as a torn-down connection would. TCP
    /// backends drop their multiplexed connection; whether later operations
    /// fail depends on whether the remote process is actually gone.
    pub fn kill(&self) {
        match &self.transport {
            Transport::Local { killed, .. } => killed.store(true, Ordering::SeqCst),
            Transport::Tcp { mux, .. } => *mux.lock().expect("backend mux lock poisoned") = None,
        }
    }

    /// Undoes a [`Backend::kill`]: in-process backends accept operations
    /// again, and the health record is cleared so the next forward reaches
    /// the backend without waiting out a backoff window. TCP backends only
    /// clear their record — whether operations succeed depends on the remote
    /// process being back. Returns `true` when this ended a failure streak.
    pub fn revive(&self) -> bool {
        if let Transport::Local { killed, .. } = &self.transport {
            killed.store(false, Ordering::SeqCst);
        }
        self.note_success()
    }

    /// Whether the backend's health record currently marks it down.
    pub fn is_down(&self) -> bool {
        !self.is_available(Instant::now())
    }

    /// Whether the backend is outside any failure backoff window at `now`.
    pub(crate) fn is_available(&self, now: Instant) -> bool {
        match self.health.lock().expect("backend health lock poisoned").down_until {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// Clears the failure record after a successful operation. Returns
    /// `true` when this ended a failure streak — the backed-off → recovered
    /// transition the router logs an event for.
    pub(crate) fn note_success(&self) -> bool {
        let mut health = self.health.lock().expect("backend health lock poisoned");
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
        let mut health = self.health.lock().expect("backend health lock poisoned");
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
        let mut health = self.health.lock().expect("backend health lock poisoned");
        health.consecutive_failures = health.consecutive_failures.saturating_add(1);
        health.down_until = Some(now + config.backoff(health.consecutive_failures));
        health.consecutive_failures == 1
    }

    /// Runs one operation on this backend — the only place the transport is
    /// matched. Over TCP, `tcp` runs on the shared multiplexed connection,
    /// dialed on first use (or after a transport failure cleared it); a
    /// transport error clears the connection again, while remote-side
    /// errors keep it (the stream itself is fine). The pipelined client
    /// already retried once internally, so a transport error here means the
    /// backend is genuinely unreachable right now. In process, `local` runs
    /// on the handle unless the backend is killed, which fails every
    /// operation with [`ServeError::Closed`] as a torn-down connection would.
    fn dispatch<T>(
        &self,
        tcp: impl FnOnce(&PipelinedClient) -> Result<T, ServeError>,
        local: impl FnOnce(&ServeHandle) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        match &self.transport {
            Transport::Tcp { addr, mux } => {
                let client = {
                    let mut slot = mux.lock().expect("backend mux lock poisoned");
                    match &*slot {
                        Some(client) => client.clone(),
                        None => slot.insert(PipelinedClient::connect(*addr)?).clone(),
                    }
                };
                let result = tcp(&client);
                if let Err(err) = &result {
                    if !matches!(err, ServeError::UnknownGolden(_) | ServeError::Remote(_)) {
                        *mux.lock().expect("backend mux lock poisoned") = None;
                    }
                }
                result
            }
            Transport::Local { handle, killed } => {
                if killed.load(Ordering::SeqCst) {
                    return Err(ServeError::Closed);
                }
                local(handle)
            }
        }
    }

    /// Scores a batch against this backend.
    pub(crate) fn screen(&self, key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>, ServeError> {
        self.dispatch(
            |client| client.screen(key, signatures),
            |handle| handle.screen(key, signatures),
        )
    }

    /// Screens an adaptive-retest batch against this backend (`DSRT`).
    pub(crate) fn retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>, ServeError> {
        self.dispatch(
            |client| client.screen_retest(request),
            |handle| handle.screen_retest(request),
        )
    }

    /// Pushes a golden record to this backend (replication).
    pub(crate) fn push(&self, key: u64, record: &GoldenRecord) -> Result<(), ServeError> {
        self.dispatch(
            |client| client.push_golden(key, record.band, &record.golden),
            |handle| {
                handle.push_golden(key, record.golden.clone(), record.band);
                Ok(())
            },
        )
    }

    /// Scrapes this backend's own metrics snapshot (`DSMX`) — one leg of the
    /// router's fleet-metrics fan-out.
    pub(crate) fn metrics(&self) -> Result<MetricsSnapshot, ServeError> {
        self.dispatch(PipelinedClient::metrics, |handle| Ok(handle.metrics()))
    }

    /// Drains this backend's buffered trace spans (`DSTX`) — one leg of the
    /// router's fleet-trace fan-out. A drain is consuming: spans move to the
    /// caller and are gone from the backend.
    pub(crate) fn traces(&self) -> Result<TraceLog, ServeError> {
        self.dispatch(PipelinedClient::traces, |handle| Ok(handle.traces()))
    }

    /// Drains this backend's buffered events (`DSEX`). Consuming, like
    /// [`Backend::traces`].
    pub(crate) fn events(&self) -> Result<EventLog, ServeError> {
        self.dispatch(PipelinedClient::events, |handle| Ok(handle.events()))
    }

    /// Reads a golden record back from this backend.
    pub(crate) fn fetch(&self, key: u64) -> Result<(AcceptanceBand, Signature), ServeError> {
        self.dispatch(
            |client| client.fetch_golden(key),
            |handle| {
                let record = handle.fetch_golden(key)?;
                Ok((record.band, record.golden.clone()))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use dsig_core::{SignatureEntry, ZoneCode};
    use dsig_serve::{GoldenStore, ServeConfig, Server};

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

    fn local_backend(id: u64) -> Backend {
        Backend::local(
            id,
            ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(1)),
        )
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
        let golden = sig(&[(1, 100e-6)]);
        backend
            .push(
                4,
                &GoldenRecord {
                    golden: golden.clone(),
                    band,
                },
            )
            .unwrap();
        backend.kill();
        backend.note_failure(Instant::now(), &HealthConfig::default());
        assert!(matches!(backend.metrics(), Err(ServeError::Closed)));
        assert!(matches!(backend.events(), Err(ServeError::Closed)));
        assert!(matches!(backend.traces(), Err(ServeError::Closed)));
        assert!(backend.is_down());
        backend.revive();
        assert!(!backend.is_down(), "revive clears the backoff immediately");
        assert_eq!(backend.screen(4, std::slice::from_ref(&golden)).unwrap()[0].ndf, 0.0);
        assert!(backend.metrics().is_ok());
    }

    #[test]
    fn killed_local_backend_fails_like_a_dead_process() {
        let backend = local_backend(3);
        let band = AcceptanceBand::new(0.05).unwrap();
        let golden = sig(&[(1, 100e-6)]);
        backend
            .push(
                9,
                &GoldenRecord {
                    golden: golden.clone(),
                    band,
                },
            )
            .unwrap();
        assert_eq!(backend.fetch(9).unwrap().1, golden);
        assert_eq!(backend.screen(9, std::slice::from_ref(&golden)).unwrap()[0].ndf, 0.0);
        backend.kill();
        assert!(matches!(
            backend.screen(9, std::slice::from_ref(&golden)),
            Err(ServeError::Closed)
        ));
        assert!(matches!(
            backend.push(9, &GoldenRecord { golden, band }),
            Err(ServeError::Closed)
        ));
        assert!(matches!(backend.fetch(9), Err(ServeError::Closed)));
    }

    /// Whether a TCP backend currently holds its shared connection.
    fn connected(backend: &Backend) -> bool {
        match &backend.transport {
            Transport::Tcp { mux, .. } => mux.lock().unwrap().is_some(),
            Transport::Local { .. } => panic!("not a TCP backend"),
        }
    }

    #[test]
    fn tcp_backend_keeps_its_connection_on_answers_and_redials_after_a_kill() {
        let mut server =
            Server::bind("127.0.0.1:0", Arc::new(GoldenStore::new()), ServeConfig::with_shards(1)).unwrap();
        let record = GoldenRecord {
            golden: sig(&[(1, 100e-6)]),
            band: AcceptanceBand::new(0.05).unwrap(),
        };
        let observed = std::slice::from_ref(&record.golden);
        let backend = Backend::tcp(server.local_addr());
        assert!(!connected(&backend), "the connection is dialed on first use");
        backend.push(4, &record).unwrap();
        assert!(connected(&backend));

        // An unknown golden is the server's answer, not a transport failure:
        // the connection stays, and a router does not mark the backend down.
        assert!(matches!(
            backend.screen(0xBAD, observed),
            Err(ServeError::UnknownGolden(0xBAD))
        ));
        assert!(connected(&backend), "a remote-side error keeps the connection");
        let router = crate::RouterHandle::with_backends(
            vec![Backend::tcp(server.local_addr())],
            crate::RouterStore::new(),
            crate::RouterConfig::default(),
        )
        .unwrap();
        let label = server.local_addr().to_string();
        router.push_golden(4, record.golden.clone(), record.band).unwrap();
        assert!(matches!(
            router.screen(0xBAD, observed),
            Err(crate::RouterError::UnknownGolden(0xBAD))
        ));
        assert!(!router.backend_is_down(&label).unwrap());

        // A kill only drops the connection: the next call redials the
        // still-running server and succeeds without a revive.
        backend.kill();
        assert!(!connected(&backend), "a TCP kill drops the shared connection");
        assert_eq!(backend.screen(4, observed).unwrap()[0].ndf, 0.0);
        assert!(connected(&backend), "the next call redials");
        router.kill(&label).unwrap();
        assert_eq!(router.screen(4, observed).unwrap()[0].ndf, 0.0);
        assert!(!router.backend_is_down(&label).unwrap());

        // Once the server is gone, a kill followed by a call fails with the
        // connection error, leaves the slot empty, and the router marks the
        // backend down.
        server.shutdown();
        backend.kill();
        assert!(matches!(backend.screen(4, observed), Err(ServeError::Io(_))));
        assert!(!connected(&backend), "a transport failure leaves the slot empty");
        router.kill(&label).unwrap();
        match router.screen(4, observed) {
            Err(crate::RouterError::AllBackendsFailed { detail, .. }) => {
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
