//! The multiplexed connection core: the [`Listener`] accept loop both
//! serving tiers front their TCP port with, a thread pool shared by every
//! connection of a multi-worker serving process, and the per-connection
//! loops that let one TCP stream carry hundreds of pipelined requests.
//!
//! # Architecture
//!
//! ```text
//!  one worker, no pool: one thread per connection, answers in request order
//!
//!  conn A: read_frame ─▶ respond ─▶ write_frame + flush ─▶ read_frame ...
//!  conn B: read_frame ─▶ respond ─▶ write_frame + flush ─▶ read_frame ...
//!
//!  a pool of workers: a reader/writer pair per connection, answers out of order
//!
//!                       ┌──────────── WorkPool ────────────┐
//!  conn A reader ─┐     │              ┌─▶ worker 0        │
//!  conn B reader ─┼──▶  │ [job queue] ─┼─▶ worker 1        │
//!  conn C reader ─┘     │              └─▶ worker N        │
//!                       └──────┬──────────────┬────────────┘
//!                              ▼              ▼
//!                       conn A writer   conn B writer   (mpsc per conn)
//! ```
//!
//! Without a pool (a listener with one worker builds none), each accepted
//! connection runs **one** thread: it reads a frame, answers it, writes and
//! flushes the answer, and reads the next. Only that thread ever blocks on
//! its peer, so a stalled peer stalls its own connection and nothing else.
//!
//! With a pool, each connection runs two threads: the **reader**
//! decodes frames and submits each request to the shared pool, and the
//! **writer** drains the response channel, so a stalled peer blocks only
//! its own reader/writer pair, never a pool worker and never another
//! connection. Responses outstanding per connection are capped at
//! [`MAX_QUEUED_RESPONSES`] permits: the reader sends one into a bounded
//! channel before each request and the writer takes one back after each
//! written frame, so past the cap the reader stops pulling new requests
//! until the peer drains some responses, and a peer that pipelines requests
//! without ever reading answers holds a bounded amount of server memory.
//! Pool workers stamp the request's id into the response
//! ([`crate::proto::stamp_request_id`]) and hand it to the owning
//! connection's writer; completion order is whatever the pool finishes
//! first, which is the whole point.
//!
//! On either path a responder that panics is reported as a `serve`
//! `conn.respond_panic` error event and closes its own connection, after the
//! answers written before it, so its peer reads end of stream instead of
//! waiting for an answer that never comes; every other connection keeps
//! serving.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dsig_core::recover;

use crate::proto::{peek_request_id, read_frame, stamp_request_id, write_frame};

/// One unit of connection work: decode, serve and encode one request.
type Job = Box<dyn FnOnce() + Send>;

/// The request handler a connection loop serves frames with: one request
/// payload in, one encoded response frame out. Implementations do their own
/// metric/trace bookkeeping — the loop only moves bytes and ids.
pub type Responder = dyn Fn(Vec<u8>) -> Vec<u8> + Send + Sync;

/// A bound TCP port and its accept loop: every accepted stream is served on
/// its own detached thread by [`drive_connection`], with one responder and
/// at most one [`WorkPool`] shared by all of them. The serving tier's
/// `Server` and the routing tier's `Router` each hold one.
///
/// Dropping (or [`Listener::shutdown`]-ing) the listener stops accepting new
/// connections; open connections keep serving until their peers close.
pub struct Listener {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts accepting.
    /// Without a `pool`, every connection answers on its own thread.
    ///
    /// # Errors
    /// Returns the I/O error of a failed bind.
    pub fn bind(
        addr: impl ToSocketAddrs,
        pool: Option<Arc<WorkPool>>,
        respond: Arc<Responder>,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let pool = pool.clone();
                        let respond = Arc::clone(&respond);
                        // Connection threads are detached; they exit when the
                        // peer closes its end of the stream.
                        std::thread::spawn(move || drive_connection(stream, pool.as_deref(), respond));
                    }
                    // Back off briefly on accept errors (e.g. EMFILE under
                    // fd exhaustion) instead of busy-spinning the core.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
        Ok(Listener {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections and joins the accept loop. Idempotent;
    /// also invoked on drop. Open connections finish serving their streams.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection. A wildcard
        // bind address (0.0.0.0 / ::) is not dialable everywhere, so dial
        // its loopback equivalent on the bound port.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let woke = TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
        if let Some(thread) = self.accept_thread.take() {
            if woke {
                let _ = thread.join();
            }
            // If the wake connection failed, the accept loop may still be
            // blocked; leave the thread detached rather than hang the caller.
            // It exits at the next (never-served) connection attempt.
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A fixed-size thread pool, shared by every connection of a server so the
/// request concurrency is bounded by core count, not by connection count.
///
/// Workers take jobs in submission order from one queue and sleep on a
/// condvar while it is empty. Every job comes from a connection reader, so
/// there is no worker-local work to keep warm. Dropping the pool drains
/// every queued job before the workers exit.
pub struct WorkPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

struct PoolInner {
    queue: Mutex<Queue>,
    /// Signalled once per submitted job (and broadcast on shutdown).
    available: Condvar,
}

struct Queue {
    /// Jobs no worker has picked up yet.
    jobs: VecDeque<Job>,
    /// Set when the pool drops: workers exit once `jobs` is empty.
    shutdown: bool,
}

impl WorkPool {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkPool {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, index))
            })
            .collect();
        WorkPool { inner, workers }
    }

    /// Jobs submitted but not yet picked up by a worker — the pool's queue
    /// depth, sampled for the `serve.queue_depth` gauge.
    pub fn queued(&self) -> usize {
        recover(self.inner.queue.lock()).jobs.len()
    }

    /// Enqueues one job. Jobs submitted before the pool drops are always
    /// run, even if the drop races the submission.
    pub fn submit(&self, job: Job) {
        recover(self.inner.queue.lock()).jobs.push_back(job);
        self.inner.available.notify_one();
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        // Set under the lock, so a worker between its empty check and its
        // wait cannot miss the wake-up.
        recover(self.inner.queue.lock()).shutdown = true;
        self.inner.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(inner: &PoolInner, index: usize) {
    loop {
        // Take the oldest job, or exit once the pool is shut down *and*
        // drained — queued work always completes. Jobs run outside the
        // lock, so a panicking job cannot poison it.
        let job = {
            let mut queue = recover(inner.queue.lock());
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = recover(inner.available.wait(queue));
            }
        };
        // A panicking job must not kill the worker: the pool is shared by
        // every connection of the process, and each death would silently
        // shrink it until nothing serves. A connection's jobs catch their
        // responder's panics themselves and close their connection; this is
        // the backstop for any other panic, whose job's result is lost.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            dsig_obs::Registry::global().events().emit(
                dsig_obs::EventLevel::Error,
                "serve",
                "pool.job_panic",
                "work-pool job panicked; its response is dropped, the worker survives",
                &[("worker", &index.to_string())],
            );
        }
    }
}

/// Cap on responses outstanding per connection of a pooled listener:
/// requests handed to the pool whose response frames have not yet been
/// written to the peer. Past the cap the reader stops pulling frames off
/// the socket until the writer drains, so a peer that pipelines without
/// reading is flow-controlled instead of growing an unbounded response
/// queue server-side. Generous enough to keep every pool worker busy on one
/// connection; frames can be up to 64 MiB, so the cap is what bounds worst
/// case per-connection memory. A connection without a pool holds at most
/// one response, which its own thread writes before reading on.
pub const MAX_QUEUED_RESPONSES: usize = 64;

/// Serves one TCP connection until the peer closes or the stream errors.
///
/// Without a pool the calling thread answers each request itself
/// (`serve_inline`): with one worker, completion order would be submission
/// order, so handing requests to a pool and responses to a writer thread
/// buys nothing. With a pool it becomes the frame **reader** of a
/// reader/writer pair, and requests run as pool jobs whose responses
/// complete out of order, matched by the echoed request id (`serve_pooled`).
pub fn drive_connection(stream: TcpStream, pool: Option<&WorkPool>, respond: Arc<Responder>) {
    let _ = stream.set_nodelay(true);
    match pool {
        None => serve_inline(&stream, &*respond),
        Some(pool) => serve_pooled(stream, pool, respond),
    }
}

/// The one-thread connection loop: read a frame, answer it, write and
/// flush the answer, then read the next. Each answer is flushed before the
/// next frame is read, even when that frame is already buffered, so a
/// pipelining peer gets every answer as soon as it exists. Only this
/// thread ever blocks on this peer: one that stops reading stalls its own
/// connection against the kernel's buffers, and no other.
///
/// A panicking responder closes the connection, so its peer reads end of
/// stream where the answer would be (see [`answer_caught`]).
fn serve_inline(stream: &TcpStream, respond: &Responder) {
    let mut reader = std::io::BufReader::new(stream);
    let mut writer = std::io::BufWriter::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let Some(response) = answer_caught(respond, payload, || peer_name(stream)) else {
            return;
        };
        if write_frame(&mut writer, &response).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

/// The reader/writer pair over a multi-worker pool: the calling thread
/// becomes the frame **reader**, a spawned thread the frame **writer**, and
/// every request runs as a pool job. A pool worker never blocks on a peer:
/// it hands its response to the writer's channel.
///
/// Returns when the peer closes or the stream errors; in-flight pool jobs
/// finish and their responses are written (or dropped if the peer is gone)
/// before the writer exits. A job whose responder panics sends no response
/// but a close (see [`answer_caught`]): the writer writes the answers queued
/// before it and shuts the socket down, which also ends the read loop.
fn serve_pooled(stream: TcpStream, pool: &WorkPool, respond: Arc<Responder>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let peer: Arc<str> = peer_name(&stream).into();
    let mut reader = std::io::BufReader::new(read_half);
    let (responses, inbox) = mpsc::channel::<Option<Vec<u8>>>();
    // The response budget: one permit per request whose frame is not yet
    // written. The writer owns the receiving end, so its exit fails a
    // reader blocked on a full budget that nobody will ever repay.
    let (permits, repaid) = mpsc::sync_channel::<()>(MAX_QUEUED_RESPONSES);
    let writer = std::thread::spawn(move || writer_loop(stream, &inbox, &repaid));
    // A clean close, unreadable frame or dead socket ends the read loop; so
    // does writer death.
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        // One permit per request, sent *before* the work exists: at the cap
        // the reader pauses here until the peer drains responses.
        if permits.send(()).is_err() {
            break;
        }
        let respond = Arc::clone(&respond);
        let responses = responses.clone();
        let peer = Arc::clone(&peer);
        pool.submit(Box::new(move || {
            let response = answer_caught(&*respond, payload, || peer.to_string());
            // A send failure means the writer died with the peer; the
            // response is dropped like any write to a closed socket.
            let _ = responses.send(response);
        }));
    }
    // Close our sender; the writer exits once every in-flight job's clone
    // is gone and the channel drains.
    drop(responses);
    let _ = writer.join();
}

/// Serves one request frame: its response, with the request's id stamped in.
fn answer(respond: &Responder, payload: Vec<u8>) -> Vec<u8> {
    let request_id = peek_request_id(&payload);
    let mut response = respond(payload);
    stamp_request_id(&mut response, request_id);
    response
}

/// Serves one request frame like [`answer`], catching a responder panic:
/// that yields `None`, which closes the connection, and a `serve`
/// `conn.respond_panic` error event naming the `peer`. Every other
/// connection keeps serving.
fn answer_caught(respond: &Responder, payload: Vec<u8>, peer: impl FnOnce() -> String) -> Option<Vec<u8>> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| answer(respond, payload)));
    if caught.is_err() {
        dsig_obs::Registry::global().events().emit(
            dsig_obs::EventLevel::Error,
            "serve",
            "conn.respond_panic",
            "responder panicked; its connection is closed, others keep serving",
            &[("peer", &peer())],
        );
    }
    caught.ok()
}

/// The peer's address as the `conn.respond_panic` event names it.
fn peer_name(stream: &TcpStream) -> String {
    stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_owned(), |addr| addr.to_string())
}

/// The write half of a pooled connection: drain the response channel,
/// batching every ready frame into one flush. Exits when the channel closes
/// (reader gone, jobs done) or the peer stops accepting bytes, and at a
/// close (`None`, a panicked responder): it flushes the frames written
/// before it and shuts the socket down. It takes one permit back from
/// `repaid` per written frame, repaying the connection's response budget.
fn writer_loop(stream: TcpStream, inbox: &mpsc::Receiver<Option<Vec<u8>>>, repaid: &mpsc::Receiver<()>) {
    let mut writer = std::io::BufWriter::new(&stream);
    while let Ok(first) = inbox.recv() {
        // Greedily coalesce everything already queued before flushing once.
        for frame in std::iter::once(first).chain(std::iter::from_fn(|| inbox.try_recv().ok())) {
            let Some(frame) = frame else {
                let _ = writer.flush();
                let _ = stream.shutdown(Shutdown::Both);
                return;
            };
            if write_frame(&mut writer, &frame).is_err() {
                return;
            }
            // The reader sent this frame's permit before submitting its job.
            let _ = repaid.try_recv();
        }
        if writer.flush().is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::sync::atomic::AtomicU64;

    /// A tagged frame the test responders echo: a header with `id` at bytes
    /// `6..14`, then a body.
    fn tagged(id: u64) -> Vec<u8> {
        let mut frame = b"TEST\x01\x00\0\0\0\0\0\0\0\0body".to_vec();
        stamp_request_id(&mut frame, id);
        frame
    }

    /// Sends one frame on `stream` and reads one back.
    fn exchange(stream: &TcpStream, id: u64) -> crate::Result<Option<Vec<u8>>> {
        write_frame(&mut &*stream, &tagged(id))?;
        read_frame(&mut &*stream)
    }

    #[test]
    fn an_inline_connection_flushes_each_answer_before_answering_the_next() {
        // Both frames arrive in one write, so frame 2 is already buffered
        // when answer 1 exists. Frame 2's responder waits, with a bound,
        // until the client has read answer 1: a loop that held answer 1
        // back until frame 2 was answered would let that wait run out.
        let (read_first, first_read) = mpsc::channel::<()>();
        let first_read = Mutex::new(first_read);
        let (waited, outcome) = mpsc::channel::<bool>();
        let respond: Arc<Responder> = Arc::new(move |payload: Vec<u8>| {
            if peek_request_id(&payload) == 2 {
                let wait = first_read.lock().unwrap().recv_timeout(Duration::from_secs(10));
                waited.send(wait.is_ok()).unwrap();
            }
            payload
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drive_connection(stream, None, respond);
        });

        let client = TcpStream::connect(addr).unwrap();
        let mut both = Vec::new();
        write_frame(&mut both, &tagged(1)).unwrap();
        write_frame(&mut both, &tagged(2)).unwrap();
        (&client).write_all(&both).unwrap();
        let mut reader = BufReader::new(&client);
        let first = read_frame(&mut reader).unwrap().expect("answer 1");
        assert_eq!(first, tagged(1));
        read_first.send(()).unwrap();
        let second = read_frame(&mut reader).unwrap().expect("answer 2");
        assert_eq!(second, tagged(2));
        assert!(
            outcome.recv().unwrap(),
            "answer 1 reached the client only after frame 2 was answered"
        );
        drop(client);
        server.join().unwrap();
    }

    /// Serializes the tests that drain the process-wide event log.
    static GLOBAL_EVENTS: Mutex<()> = Mutex::new(());

    /// Drives a listener whose responder panics on one request id: that
    /// request's connection must close, within the read timeout, with a
    /// `conn.respond_panic` event naming its peer, while another connection
    /// and one accepted after the panic keep getting their answers.
    fn a_panic_closes_only_its_own_connection(pool: Option<Arc<WorkPool>>) {
        const PANICS: u64 = 0xDEAD;
        let _events = GLOBAL_EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let respond: Arc<Responder> = Arc::new(|payload: Vec<u8>| {
            if peek_request_id(&payload) == PANICS {
                panic!("the responder fails on request {PANICS:#x}");
            }
            payload
        });
        let listener = Listener::bind("127.0.0.1:0", pool, respond).unwrap();
        let addr = listener.local_addr();
        let healthy = TcpStream::connect(addr).unwrap();
        let doomed = TcpStream::connect(addr).unwrap();
        // A read that hangs fails the test at the timeout instead.
        for stream in [&healthy, &doomed] {
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        }
        assert_eq!(exchange(&doomed, 1).unwrap(), Some(tagged(1)));

        // The peer of the panicking request reads end of stream, not the
        // read timeout.
        let closed = exchange(&doomed, PANICS);
        assert!(matches!(closed, Ok(None)), "{closed:?}");
        // The other connection, and one accepted after the panic, keep
        // getting their own answers.
        for id in 2..10 {
            assert_eq!(exchange(&healthy, id).unwrap(), Some(tagged(id)));
        }
        let fresh = TcpStream::connect(addr).unwrap();
        fresh.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(exchange(&fresh, 10).unwrap(), Some(tagged(10)));

        let peer = doomed.local_addr().unwrap().to_string();
        let events = dsig_obs::Registry::global().events().drain();
        assert!(
            events.iter().any(|event| event.level == dsig_obs::EventLevel::Error
                && event.tier == "serve"
                && event.name == "conn.respond_panic"
                && event.fields.contains(&("peer".to_owned(), peer.clone()))),
            "no conn.respond_panic event for {peer}: {events:?}"
        );
    }

    #[test]
    fn a_panicking_responder_closes_only_its_own_inline_connection() {
        a_panic_closes_only_its_own_connection(None);
    }

    #[test]
    fn a_panicking_responder_closes_only_its_own_pooled_connection() {
        a_panic_closes_only_its_own_connection(Some(Arc::new(WorkPool::new(2))));
    }

    #[test]
    fn a_peer_that_never_reads_gets_at_most_the_response_budget_answered() {
        // Each answer is 1 MiB, so the kernel's socket buffers take only a
        // few before the writer blocks; every other answered request holds
        // a permit. The peer pipelines three budgets' worth of requests and
        // reads nothing: the reader must stop after one budget plus what the
        // buffers swallowed, not answer all of them into server memory.
        let calls = Arc::new(AtomicU64::new(0));
        let respond: Arc<Responder> = {
            let calls = Arc::clone(&calls);
            Arc::new(move |mut payload: Vec<u8>| {
                calls.fetch_add(1, Ordering::SeqCst);
                payload.resize(1 << 20, 0);
                payload
            })
        };
        let listener = Listener::bind("127.0.0.1:0", Some(Arc::new(WorkPool::new(2))), respond).unwrap();
        let peer = TcpStream::connect(listener.local_addr()).unwrap();
        let mut frames = Vec::new();
        for id in 1..=3 * MAX_QUEUED_RESPONSES as u64 {
            write_frame(&mut frames, &tagged(id)).unwrap();
        }
        (&peer).write_all(&frames).unwrap();
        // Wait, at most 10 s, until the count holds still for half a second.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut settled = calls.load(Ordering::SeqCst);
        while std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(500));
            let now = calls.load(Ordering::SeqCst);
            if now == settled && now > 0 {
                break;
            }
            settled = now;
        }
        let answered = calls.load(Ordering::SeqCst) as usize;
        assert!(
            (MAX_QUEUED_RESPONSES..2 * MAX_QUEUED_RESPONSES).contains(&answered),
            "{answered} requests answered for a peer that reads nothing (budget {MAX_QUEUED_RESPONSES})"
        );
    }

    #[test]
    fn pool_runs_every_job_across_workers() {
        let pool = WorkPool::new(4);
        let sum = Arc::new(AtomicU64::new(0));
        let (done, finished) = mpsc::channel();
        for k in 1..=100u64 {
            let sum = Arc::clone(&sum);
            let done = done.clone();
            pool.submit(Box::new(move || {
                sum.fetch_add(k, Ordering::Relaxed);
                let _ = done.send(());
            }));
        }
        for _ in 0..100 {
            finished.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn dropping_the_pool_drains_queued_jobs() {
        // One worker blocked on the first job forces the rest to queue; the
        // drop must still run them all.
        let pool = WorkPool::new(1);
        let ran = Arc::new(AtomicU64::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            pool.submit(Box::new(move || {
                let (lock, cvar) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        for _ in 0..9 {
            let ran = Arc::clone(&ran);
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        // Open the gate from another thread a moment after drop begins.
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                let (lock, cvar) = &*gate;
                *lock.lock().unwrap() = true;
                cvar.notify_all();
            })
        };
        drop(pool);
        opener.join().unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 10, "every queued job ran before exit");
    }

    #[test]
    fn panicking_jobs_do_not_kill_pool_workers() {
        // Every worker eats several panicking jobs; the pool must still run
        // jobs submitted afterwards — a panic costs one response, never a
        // worker thread.
        let pool = WorkPool::new(2);
        for _ in 0..8 {
            pool.submit(Box::new(|| panic!("job panic must not kill the worker")));
        }
        let (done, finished) = mpsc::channel();
        for k in 1..=10u64 {
            let done = done.clone();
            pool.submit(Box::new(move || {
                let _ = done.send(k);
            }));
        }
        let mut sum = 0;
        for _ in 0..10 {
            sum += finished.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(sum, 55, "jobs after the panics still run on a full-size pool");
    }

    #[test]
    fn idle_workers_steal_from_busy_queues() {
        // Two workers; the first job blocks one of them until every later
        // job has run, so the idle worker must take all of them from the
        // queue — a pool that parked jobs behind the blocked worker would
        // time out here.
        let pool = WorkPool::new(2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (done, finished) = mpsc::channel();
        {
            let gate = Arc::clone(&gate);
            pool.submit(Box::new(move || {
                let (lock, cvar) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
            }));
        }
        for _ in 0..20 {
            let done = done.clone();
            pool.submit(Box::new(move || {
                let _ = done.send(());
            }));
        }
        for _ in 0..20 {
            finished.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
}
