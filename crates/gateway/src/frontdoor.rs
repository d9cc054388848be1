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
//!   [`max_pending_per_conn`](crate::GatewayConfig::max_pending_per_conn),
//!   valid UTF-8 or not, become shed markers at read time, consecutive
//!   ones counted in a
//!   single entry; when the bounded dispatch queue is full the line simply
//!   stays queued, where the router's deadline check will shed it if it
//!   waits too long. No queue grows without limit, and a request past its
//!   deadline never occupies a shard slot. Lines are framed by the shared
//!   [`LineCodec`], whose line cap bounds each read buffer, and every reply
//!   write gives up after [`WRITE_STALL`] without progress. At most
//!   [`MAX_CONNECTIONS`] sockets are held, lingering ones included; the
//!   shared [`refuse_over_cap`] answers one more `busy`, as a shard does.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;

use hetsched_serve::protocol::{Response, INVALID_UTF8, LINE_TOO_LONG};
use hetsched_serve::transport::{
    discard_input, refuse_over_cap, write_line, Line, LineCodec, MAX_CONNECTIONS, MAX_LINE_BYTES,
    OVERLONG_LINGER, WRITE_STALL,
};

use crate::router::Router;
use crate::GatewayConfig;

/// Shortest reactor idle sleep: the latency floor for noticing new bytes
/// right after a burst of activity.
const BACKOFF_FLOOR: Duration = Duration::from_millis(1);
/// Longest reactor idle sleep, reached after sustained quiet. Bounds the
/// wake-up latency for the first request of a new burst.
const BACKOFF_CEILING: Duration = Duration::from_millis(16);

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

/// A queued request line, or a decision taken at read time that must
/// still be answered in arrival order.
#[derive(Debug)]
enum PendingLine {
    /// A complete request line and the instant it was read.
    Job(String, Instant),
    /// This many consecutive lines arrived while the connection's pending
    /// queue was over depth: answer each `shed` (in order) without routing.
    Shed(usize),
    /// A line that cannot be a request, not valid UTF-8 or over the line
    /// cap: answer this `error` message (in order) without routing.
    Refused(&'static str),
}

/// Per-connection reactor state.
struct ClientConn {
    stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    codec: LineCodec,
    pending: VecDeque<PendingLine>,
    /// Lines in `pending`, each shed run counted by its length.
    queued: usize,
    /// A job from this connection is currently with a worker.
    busy: bool,
    /// No more lines will be read (the peer closed its write side, or
    /// sent an over-long line); serve out `pending`, then drop.
    eof: bool,
    /// The last line read was over-long: once `pending` is served, the
    /// rest of it is read off (see [`OVERLONG_LINGER`]) before the close.
    over_long: bool,
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
        self.run_with(MAX_CONNECTIONS, WRITE_STALL)
    }

    fn run_with(self, max_connections: usize, write_stall: Duration) -> io::Result<()> {
        let config = self.router.config().clone();
        let (jobs_tx, jobs_rx) = bounded::<DispatchJob>(config.queue_capacity.max(1));
        let (done_tx, done_rx) = unbounded::<Done>();
        let workers = spawn_workers(
            config.router_threads.max(1),
            self.router.clone(),
            jobs_rx,
            done_tx,
            write_stall,
        );

        let mut conns: HashMap<u64, ClientConn> = HashMap::new();
        let mut next_id: u64 = 0;
        let mut backoff = Backoff::new();
        // Reactor-side write scratch, reused across every shed marker.
        let mut scratch: Vec<u8> = Vec::new();
        // Sockets cut off by an over-long line, write side shut, whose
        // input is read off until the peer closes or the instant passes.
        let mut lingering: Vec<(TcpStream, Instant)> = Vec::new();
        loop {
            let mut progressed = false;

            // New connections (until shutdown).
            if !self.router.is_shutting_down() {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            progressed = true;
                            let open = conns.len() + lingering.len();
                            if refuse_over_cap(&stream, open, max_connections, write_stall) {
                                continue;
                            }
                            if let Ok(conn) = ClientConn::new(stream) {
                                conns.insert(next_id, conn);
                                next_id += 1;
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
                while let Some(front) = conn.pop_line() {
                    let reply = match front {
                        PendingLine::Shed(_) => {
                            crate::metrics::bump(&self.router.metrics().sheds);
                            Response::shed(format!(
                                "connection backlog over {} pending requests",
                                config.max_pending_per_conn
                            ))
                        }
                        PendingLine::Refused(message) => {
                            crate::metrics::bump(&self.router.metrics().errors);
                            Response::error(message)
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
                                    conn.queued += 1;
                                }
                                Err(TrySendError::Disconnected(_)) => conn.dead = true,
                            }
                            break;
                        }
                    };
                    // Ordered: every earlier reply has been written (busy
                    // was false).
                    let line = reply.to_line();
                    let written = write_line(
                        &mut *conn.writer.lock(),
                        &mut scratch,
                        line.as_bytes(),
                        write_stall,
                    );
                    if written.is_err() {
                        conn.dead = true;
                        break;
                    }
                    progressed = true;
                }
            }

            // Retire finished connections.
            conns.retain(|_, c| {
                let finished = c.dead || (c.eof && !c.busy && c.pending.is_empty());
                if finished && c.over_long && !c.dead {
                    let _ = c.stream.shutdown(Shutdown::Write);
                    if let Ok(stream) = c.stream.try_clone() {
                        lingering.push((stream, Instant::now() + OVERLONG_LINGER));
                    }
                }
                !finished
            });
            lingering.retain(|(stream, until)| discard_input(stream, *until));

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
            codec: LineCodec::new(MAX_LINE_BYTES),
            pending: VecDeque::new(),
            queued: 0,
            busy: false,
            eof: false,
            over_long: false,
            dead: false,
        })
    }

    /// Pull whatever bytes are ready and frame them into pending lines,
    /// shedding (as ordered markers) every line past the depth bound.
    /// Returns whether anything happened.
    fn read_some(&mut self, max_pending: usize) -> bool {
        let mut progressed = false;
        while !(self.eof || self.dead) {
            match self.stream.read(self.codec.spare()) {
                Ok(0) => {
                    self.eof = true;
                    self.codec.finish();
                }
                Ok(n) => self.codec.filled(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
            progressed = true;
            let arrival = Instant::now();
            while let Some(line) = self.codec.next_line() {
                // Only a queued job owns a String (it must outlive the
                // buffer); blank lines and markers cost no allocation.
                let line = match line {
                    Line::OverLong => {
                        // the stream cannot be framed past it
                        self.eof = true;
                        self.over_long = true;
                        PendingLine::Refused(LINE_TOO_LONG)
                    }
                    _ if self.queued >= max_pending => PendingLine::Shed(1),
                    Line::Text(text) => PendingLine::Job(text.to_string(), arrival),
                    Line::InvalidUtf8 => PendingLine::Refused(INVALID_UTF8),
                };
                self.queued += 1;
                match (self.pending.back_mut(), line) {
                    (Some(PendingLine::Shed(run)), PendingLine::Shed(1)) => *run += 1,
                    (_, line) => self.pending.push_back(line),
                }
                if self.over_long {
                    break;
                }
            }
        }
        progressed
    }

    /// Take the front line off the queue; a shed run gives up one `Shed`
    /// per line.
    fn pop_line(&mut self) -> Option<PendingLine> {
        let line = match self.pending.front_mut()? {
            PendingLine::Shed(run) if *run > 1 => {
                *run -= 1;
                PendingLine::Shed(1)
            }
            _ => self.pending.pop_front()?,
        };
        self.queued -= 1;
        Some(line)
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
    write_stall: Duration,
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
                        let write_ok = write_line(
                            &mut *job.writer.lock(),
                            &mut scratch,
                            reply.as_bytes(),
                            write_stall,
                        )
                        .is_ok();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

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

    #[test]
    fn shed_runs_keep_the_queue_constant_past_the_depth() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = ClientConn::new(listener.accept().unwrap().0).unwrap();
        let (depth, lines) = (4, 1000);
        // Valid and invalid UTF-8 lines alternate: below the depth the
        // invalid ones are refused in order; past it every line is shed.
        client
            .write_all(&b"{\"op\":\"hello\"}\n\xff\n".repeat(lines / 2))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while conn.queued < lines {
            assert!(Instant::now() < deadline, "{} lines read", conn.queued);
            conn.read_some(depth);
        }
        assert_eq!(conn.pending.len(), depth + 1, "one entry past the depth");
        // Every line still gets its own reply, in order.
        let mut replies = Vec::new();
        while let Some(line) = conn.pop_line() {
            replies.push(match line {
                PendingLine::Job(..) => "job",
                PendingLine::Refused(INVALID_UTF8) => "refused",
                PendingLine::Shed(1) => "shed",
                other => panic!("unexpected {other:?}"),
            });
        }
        assert_eq!(replies.len(), lines);
        assert_eq!(replies[..depth], ["job", "refused", "job", "refused"]);
        assert!(replies[depth..].iter().all(|&r| r == "shed"));
        assert_eq!(conn.queued, 0);
    }

    #[test]
    fn a_client_that_never_reads_cannot_hold_up_shutdown() {
        // The one backend is never contacted: the gateway answers `hello`
        // and `metrics` itself. No line is shed, so router workers write
        // every reply.
        let config = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            max_pending_per_conn: usize::MAX,
            ..GatewayConfig::default()
        };
        let server = GatewayServer::bind("127.0.0.1:0", config).unwrap();
        let (addr, router) = (server.local_addr().unwrap(), server.router());
        let stall = Duration::from_millis(300);
        let gateway = thread::spawn(move || server.run_with(MAX_CONNECTIONS, stall));
        let mut probe = BufReader::new(TcpStream::connect(addr).unwrap());
        let mut roundtrip = |line: &[u8]| {
            probe.get_mut().write_all(line).unwrap();
            let mut reply = String::new();
            probe.read_line(&mut reply).unwrap()
        };
        // Replies worth 12 MB, far more than both socket buffers hold.
        let metrics = b"{\"op\":\"metrics\"}\n";
        let lines = (12 << 20) / roundtrip(metrics);
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&metrics.repeat(lines)).unwrap();
        // The reactor reads every connection in each turn, so once two
        // later probes are answered it has read the whole flood: the
        // drain owes every one of its replies.
        roundtrip(b"{\"op\":\"hello\"}\n");
        roundtrip(b"{\"op\":\"hello\"}\n");
        router.begin_shutdown();
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || tx.send(gateway.join().unwrap()));
        let ran = rx
            .recv_timeout(stall + Duration::from_secs(5))
            .expect("run() returns once the stalled write gives up");
        ran.unwrap();
        drop(client);
    }

    /// Every line the gateway sends on `stream` until it closes it; a
    /// read timeout fails the test instead of hanging it.
    fn read_to_eof(stream: &TcpStream) -> Vec<String> {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        BufReader::new(stream)
            .lines()
            .map(|l| l.expect("a reply or EOF within 10 s"))
            .collect()
    }

    fn status(line: &str) -> String {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        v["status"].as_str().unwrap_or_default().to_string()
    }

    /// At the cap a new connection gets one `busy` line, then EOF; once
    /// an admitted connection closes, the next one is served.
    #[test]
    fn connections_over_the_cap_are_refused_busy() {
        let config = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            ..GatewayConfig::default()
        };
        let server = GatewayServer::bind("127.0.0.1:0", config).unwrap();
        let (addr, router) = (server.local_addr().unwrap(), server.router());
        let gateway = thread::spawn(move || server.run_with(2, WRITE_STALL));
        // `hello` is answered by the gateway itself: no shard is needed
        let served = || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(b"{\"op\":\"hello\"}\n").unwrap();
            let mut reply = String::new();
            BufReader::new(&stream).read_line(&mut reply).unwrap();
            assert_eq!(status(&reply), "ok", "{reply}");
            stream
        };
        let (first, _second) = (served(), served());

        let refused = TcpStream::connect(addr).unwrap();
        let replies = read_to_eof(&refused);
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert_eq!(status(&replies[0]), "busy", "{replies:?}");

        // Once the gateway has closed the first connection, its slot is
        // free again.
        first.shutdown(Shutdown::Write).unwrap();
        assert!(read_to_eof(&first).is_empty());
        served();

        router.begin_shutdown();
        gateway.join().unwrap().unwrap();
    }
}
