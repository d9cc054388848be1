//! The gateway front door: a hand-rolled non-blocking readiness loop.
//!
//! One reactor thread owns every client socket: it accepts connections,
//! reads complete NDJSON lines into bounded per-connection queues, and
//! dispatches them to a small pool of router workers over a bounded
//! channel. Workers run [`Router::handle_line`] (which blocks on shard
//! I/O) and write the reply back themselves.
//!
//! Two invariants shape the loop:
//!
//! - **Replies stay in request order.** At most one request per
//!   connection is dispatched at a time, and admission-control sheds are
//!   queued as markers in the same per-connection queue rather than
//!   answered immediately — so a shed for request 5 is never written
//!   before the reply for request 4.
//! - **Backlog is bounded everywhere.** Lines beyond
//!   [`max_pending_per_conn`](crate::GatewayConfig::max_pending_per_conn)
//!   become shed markers at read time; when the bounded dispatch queue is
//!   full the line simply stays queued, where the router's deadline check
//!   will shed it if it waits too long. No queue grows without limit, and
//!   a request past its deadline never occupies a shard slot.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;

use hetsched_serve::protocol::{Response, INVALID_UTF8};

use crate::router::Router;
use crate::GatewayConfig;

/// Shortest reactor idle sleep: the latency floor for noticing new bytes
/// right after a burst of activity.
const BACKOFF_FLOOR: Duration = Duration::from_millis(1);
/// Longest reactor idle sleep, reached after sustained quiet. Bounds the
/// wake-up latency for the first request of a new burst.
const BACKOFF_CEILING: Duration = Duration::from_millis(16);
/// Sleep while a blocked reply write waits for the kernel buffer to
/// drain (the peer controls the pace here, not the reactor).
const WRITE_RETRY: Duration = Duration::from_millis(2);
/// Per-connection read chunk.
const CHUNK: usize = 16 * 1024;
/// Cap on a single buffered line; a peer streaming an unbounded line
/// would otherwise grow the read buffer without limit.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Adaptive reactor idle backoff: sleeps start at [`BACKOFF_FLOOR`]
/// right after activity and double toward [`BACKOFF_CEILING`] while the
/// loop stays idle, so a busy gateway polls at the floor and a quiet one
/// burns almost no CPU. Any progress snaps the next sleep back to the
/// floor.
#[derive(Debug)]
pub(crate) struct Backoff {
    next: Duration,
}

impl Backoff {
    pub(crate) fn new() -> Backoff {
        Backoff {
            next: BACKOFF_FLOOR,
        }
    }

    /// Work happened: the next idle sleep restarts at the floor.
    pub(crate) fn reset(&mut self) {
        self.next = BACKOFF_FLOOR;
    }

    /// The duration an idle iteration should sleep now; each call while
    /// idle doubles the following one, up to the ceiling.
    pub(crate) fn idle(&mut self) -> Duration {
        let cur = self.next;
        self.next = (cur * 2).min(BACKOFF_CEILING);
        cur
    }
}

/// One unit of work for a router worker.
struct DispatchJob {
    conn_id: u64,
    line: String,
    arrival: Instant,
    writer: Arc<Mutex<TcpStream>>,
}

/// Worker → reactor completion notice. `write_ok == false` means the
/// reply could not be delivered and the connection should be dropped.
struct Done {
    conn_id: u64,
    write_ok: bool,
}

/// A queued request line, or a shed decision taken at read time that
/// must still be answered in arrival order.
enum PendingLine {
    /// A complete request line and the instant it was read.
    Job(String, Instant),
    /// The connection's pending queue was over depth when this line
    /// arrived: answer `shed` (in order) without routing.
    Shed,
    /// The line's bytes are not valid UTF-8: answer
    /// [`INVALID_UTF8`](hetsched_serve::protocol::INVALID_UTF8) (in order)
    /// without routing.
    InvalidUtf8,
}

/// Per-connection reactor state.
struct ClientConn {
    stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    buf: Vec<u8>,
    pending: VecDeque<PendingLine>,
    /// A job from this connection is currently with a worker.
    busy: bool,
    /// Peer closed its write side; serve out `pending`, then drop.
    eof: bool,
    /// Unrecoverable I/O error; drop as soon as no job is in flight.
    dead: bool,
}

/// The gateway TCP front door. Bind with [`GatewayServer::bind`], then
/// [`run`](GatewayServer::run) the readiness loop.
pub struct GatewayServer {
    listener: TcpListener,
    router: Arc<Router>,
}

impl GatewayServer {
    /// Bind `addr` and construct the router for `config.backends`. Shard
    /// connections are opened lazily, so the shards may come up after the
    /// gateway.
    pub fn bind(addr: &str, config: GatewayConfig) -> io::Result<GatewayServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let router = Arc::new(Router::new(config)?);
        Ok(GatewayServer { listener, router })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared handle to the routing core (metrics, programmatic
    /// shutdown).
    pub fn router(&self) -> Arc<Router> {
        self.router.clone()
    }

    /// Run the readiness loop until a `shutdown` request arrives (or
    /// [`Router::begin_shutdown`] is called), then drain: every queued
    /// and in-flight request is answered before the loop returns.
    pub fn run(self) -> io::Result<()> {
        let config = self.router.config().clone();
        let (jobs_tx, jobs_rx) = bounded::<DispatchJob>(config.queue_capacity.max(1));
        let (done_tx, done_rx) = unbounded::<Done>();
        let workers = spawn_workers(
            config.router_threads.max(1),
            self.router.clone(),
            jobs_rx,
            done_tx,
        );

        let mut conns: HashMap<u64, ClientConn> = HashMap::new();
        let mut next_id: u64 = 0;
        let mut backoff = Backoff::new();
        // Reactor-side write scratch, reused across every shed marker.
        let mut scratch: Vec<u8> = Vec::new();
        loop {
            let mut progressed = false;

            // New connections (until shutdown).
            if !self.router.is_shutting_down() {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            if let Ok(conn) = ClientConn::new(stream) {
                                conns.insert(next_id, conn);
                                next_id += 1;
                                progressed = true;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }

            // Worker completions.
            while let Ok(done) = done_rx.try_recv() {
                if let Some(conn) = conns.get_mut(&done.conn_id) {
                    conn.busy = false;
                    if !done.write_ok {
                        conn.dead = true;
                    }
                }
                progressed = true;
            }

            // Readable bytes → pending lines (reads stop at shutdown so
            // the drain converges).
            if !self.router.is_shutting_down() {
                for conn in conns.values_mut() {
                    if conn.read_some(config.max_pending_per_conn) {
                        progressed = true;
                    }
                }
            }

            // Dispatch: at most one in-flight job per connection keeps
            // replies in request order.
            for (&conn_id, conn) in conns.iter_mut() {
                if conn.busy || conn.dead {
                    continue;
                }
                while let Some(front) = conn.pending.pop_front() {
                    let reply = match front {
                        PendingLine::Shed => {
                            crate::metrics::bump(&self.router.metrics().sheds);
                            Response::shed(format!(
                                "connection backlog over {} pending requests",
                                config.max_pending_per_conn
                            ))
                        }
                        PendingLine::InvalidUtf8 => {
                            crate::metrics::bump(&self.router.metrics().errors);
                            Response::error(INVALID_UTF8)
                        }
                        PendingLine::Job(line, arrival) => {
                            let job = DispatchJob {
                                conn_id,
                                line,
                                arrival,
                                writer: conn.writer.clone(),
                            };
                            match jobs_tx.try_send(job) {
                                Ok(()) => {
                                    conn.busy = true;
                                    progressed = true;
                                }
                                Err(TrySendError::Full(job)) => {
                                    // Queue full: leave the line queued;
                                    // the router sheds it on dispatch if
                                    // its deadline expires while waiting.
                                    conn.pending
                                        .push_front(PendingLine::Job(job.line, job.arrival));
                                }
                                Err(TrySendError::Disconnected(_)) => conn.dead = true,
                            }
                            break;
                        }
                    };
                    // Ordered: every earlier reply has been written (busy
                    // was false).
                    if write_line(&conn.writer, &mut scratch, &reply.to_line()).is_err() {
                        conn.dead = true;
                        break;
                    }
                    progressed = true;
                }
            }

            // Retire finished connections.
            conns.retain(|_, c| !(c.dead || (c.eof && !c.busy && c.pending.is_empty())));

            // Shutdown drain: exit once nothing is queued or in flight.
            if self.router.is_shutting_down()
                && conns.values().all(|c| !c.busy && c.pending.is_empty())
            {
                break;
            }
            if progressed {
                backoff.reset();
            } else {
                thread::sleep(backoff.idle());
            }
        }

        drop(jobs_tx);
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

impl ClientConn {
    fn new(stream: TcpStream) -> io::Result<ClientConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let writer = Arc::new(Mutex::new(stream.try_clone()?));
        Ok(ClientConn {
            stream,
            writer,
            buf: Vec::new(),
            pending: VecDeque::new(),
            busy: false,
            eof: false,
            dead: false,
        })
    }

    /// Pull whatever bytes are ready and split them into pending lines,
    /// shedding (as ordered markers) past the depth bound. Returns
    /// whether anything happened.
    fn read_some(&mut self, max_pending: usize) -> bool {
        if self.eof || self.dead {
            return false;
        }
        let mut chunk = [0u8; CHUNK];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    progressed = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        let arrival = Instant::now();
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            // Slice the line in place; only a queued job owns a String
            // (it must outlive the buffer), so blank lines and shed
            // markers cost no allocation at all.
            match std::str::from_utf8(&self.buf[..pos]).map(str::trim) {
                Ok("") => {}
                Ok(line) => {
                    if self.pending.len() >= max_pending {
                        self.pending.push_back(PendingLine::Shed);
                    } else {
                        self.pending
                            .push_back(PendingLine::Job(line.to_string(), arrival));
                    }
                    progressed = true;
                }
                Err(_) => {
                    self.pending.push_back(PendingLine::InvalidUtf8);
                    progressed = true;
                }
            }
            self.buf.drain(..=pos);
        }
        if self.buf.len() > MAX_LINE_BYTES {
            self.dead = true;
        }
        progressed
    }
}

/// Spawn the router worker pool. Each worker routes one line at a time
/// and writes the reply itself, so slow shard round trips never stall
/// the reactor.
fn spawn_workers(
    count: usize,
    router: Arc<Router>,
    jobs_rx: Receiver<DispatchJob>,
    done_tx: Sender<Done>,
) -> Vec<JoinHandle<()>> {
    (0..count)
        .map(|i| {
            let router = router.clone();
            let jobs_rx = jobs_rx.clone();
            let done_tx = done_tx.clone();
            thread::Builder::new()
                .name(format!("gw-router-{i}"))
                .spawn(move || {
                    // Per-worker write scratch, reused across every reply.
                    let mut scratch: Vec<u8> = Vec::new();
                    while let Ok(job) = jobs_rx.recv() {
                        let reply = router.handle_line(&job.line, job.arrival);
                        let write_ok = write_line(&job.writer, &mut scratch, &reply).is_ok();
                        let _ = done_tx.send(Done {
                            conn_id: job.conn_id,
                            write_ok,
                        });
                    }
                })
                .expect("spawning a router worker cannot fail")
        })
        .collect()
}

/// Write one reply line to a (non-blocking) client socket, retrying
/// `WouldBlock` until the kernel buffer drains. `scratch` is the
/// caller's reusable buffer for the `reply + '\n'` payload — no
/// per-write allocation at steady state.
fn write_line(writer: &Arc<Mutex<TcpStream>>, scratch: &mut Vec<u8>, line: &str) -> io::Result<()> {
    scratch.clear();
    scratch.extend_from_slice(line.as_bytes());
    scratch.push(b'\n');
    let mut stream = writer.lock();
    let mut written = 0;
    while written < scratch.len() {
        match stream.write(&scratch[written..]) {
            Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "peer stalled")),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(WRITE_RETRY),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_while_idle_and_resets_on_progress() {
        let mut b = Backoff::new();
        // Idle sleeps double from the floor to the ceiling and stay there.
        let mut seen = Vec::new();
        for _ in 0..8 {
            seen.push(b.idle());
        }
        assert_eq!(seen[0], BACKOFF_FLOOR, "first idle sleep is the floor");
        for pair in seen.windows(2) {
            assert!(
                pair[1] == (pair[0] * 2).min(BACKOFF_CEILING),
                "each idle sleep doubles (capped): {seen:?}"
            );
        }
        assert_eq!(*seen.last().unwrap(), BACKOFF_CEILING, "ceiling reached");
        assert_eq!(b.idle(), BACKOFF_CEILING, "and held");

        // Any progress snaps the next sleep back to the floor.
        b.reset();
        assert_eq!(b.idle(), BACKOFF_FLOOR);
        assert_eq!(b.idle(), BACKOFF_FLOOR * 2);
    }
}
