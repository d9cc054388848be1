//! The gateway + shards fleet and the load generator that drives it.
//!
//! The fleet is the shipping topology: two local `hetsched-serve` shards
//! on `ServeConfig::default()` behind one gateway on
//! `GatewayConfig::default()`, all on loopback TCP inside this process.
//! The generator is one thread on two client connections. It sends each
//! request either at its due time (open loop) or as soon as a slot in a
//! fixed per-connection window frees up (closed loop), and checks every
//! reply against the expectation computed before timing started.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hetsched_gateway::{GatewayConfig, GatewayServer, LocalShards, Router};
use hetsched_serve::{ServeConfig, StatsBody};

use crate::poll::{self, POLLIN, POLLOUT};
use crate::problems::{Case, Expect};

/// Shards behind the gateway.
pub const SHARDS: usize = 2;
/// Client connections of the load generator.
pub const CONNS: usize = 2;
/// A reply not seen for this long fails the run instead of hanging it.
const STALL: Duration = Duration::from_secs(30);

/// A running fleet.
pub struct Fleet {
    shards: LocalShards,
    gateway: Option<JoinHandle<io::Result<()>>>,
    /// Gateway address.
    pub addr: String,
    /// The running gateway's routing core.
    pub router: Arc<Router>,
}

impl Fleet {
    /// Spawn the shards and the gateway.
    pub fn spawn() -> io::Result<Fleet> {
        let shards = LocalShards::spawn(SHARDS, &ServeConfig::default())?;
        let config = GatewayConfig {
            backends: shards.addrs(),
            ..GatewayConfig::default()
        };
        let server = GatewayServer::bind("127.0.0.1:0", config)?;
        let addr = server.local_addr()?.to_string();
        let router = server.router();
        let gateway = std::thread::Builder::new()
            .name("gateway".to_string())
            .spawn(move || server.run())?;
        Ok(Fleet {
            shards,
            gateway: Some(gateway),
            addr,
            router,
        })
    }

    /// Address of shard `i`.
    pub fn shard_addr(&self, i: usize) -> String {
        self.shards.addrs()[i].clone()
    }

    /// Shard `i`'s service, for in-process calls and stats.
    pub fn shard(&self, i: usize) -> Arc<hetsched_serve::Service> {
        self.shards.service(i).expect("shard is running")
    }

    /// Current counters of every shard.
    pub fn shard_stats(&self) -> Vec<StatsBody> {
        (0..SHARDS).map(|i| self.shard(i).stats_body()).collect()
    }

    /// Current gateway counters.
    pub fn gateway_counters(&self) -> GatewayCounters {
        let m = self.router.metrics();
        let read = hetsched_gateway::metrics::read;
        GatewayCounters {
            requests: read(&m.requests),
            wire_hits: read(&m.wire_hits),
            dedup_hits: read(&m.dedup_hits),
            sheds: read(&m.sheds),
        }
    }

    /// Drain and stop the gateway and every shard, waiting for their
    /// threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(gateway) = self.gateway.take() {
            // the gateway forwards `shutdown` to every shard, then drains
            if let Ok(mut probe) = Probe::connect(&self.addr) {
                let _ = probe.send("{\"op\":\"shutdown\"}");
            }
            self.router.begin_shutdown();
            let _ = gateway.join();
        }
        self.shards.shutdown_all();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Gateway counters read in-process.
#[derive(Debug, Clone, Copy)]
pub struct GatewayCounters {
    /// Requests routed or answered.
    pub requests: u64,
    /// Answered from the gateway's raw-byte reply cache.
    pub wire_hits: u64,
    /// Coalesced onto an identical in-flight request.
    pub dedup_hits: u64,
    /// Shed by admission control.
    pub sheds: u64,
}

/// A blocking client connection for the sequential probes of the traced
/// run.
pub struct Probe {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The last reply line.
    pub reply: String,
}

impl Probe {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> io::Result<Probe> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(STALL))?;
        Ok(Probe {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Send one line and wait for its reply; returns the round trip.
    pub fn send(&mut self, line: &str) -> io::Result<Duration> {
        let t0 = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "peer closed"));
        }
        Ok(t0.elapsed())
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `ok` with the expected makespan and problem.
    Ok,
    /// `ok` with a different schedule: an output mismatch.
    Wrong,
    /// Shed by gateway admission control.
    Shed,
    /// Refused by a full shard queue.
    Busy,
    /// Deadline passed.
    Timeout,
    /// Patch parent no longer cached.
    UnknownParent,
    /// Any other `error` reply.
    Error,
    /// Unparseable reply or a lost connection.
    Protocol,
}

/// Find `"key":` in `head` and return the raw value bytes up to the next
/// `,` or `}`.
fn raw_field<'a>(head: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let at = head.windows(key.len()).position(|w| w == key)? + key.len();
    let rest = &head[at..];
    let end = rest.iter().position(|&b| b == b',' || b == b'}')?;
    Some(&rest[..end])
}

/// Classify one reply line against its expectation. Only the reply's
/// leading bytes are read: the status, makespan and problem fingerprint
/// precede the schedule timelines.
pub fn classify(line: &[u8], expect: &Expect) -> Outcome {
    let head = &line[..line.len().min(1024)];
    let Some(status) = raw_field(head, b"\"status\":") else {
        return Outcome::Protocol;
    };
    match status {
        b"\"ok\"" => {
            let makespan = raw_field(head, b"\"makespan\":")
                .and_then(|v| std::str::from_utf8(v).ok()?.parse::<f64>().ok());
            let problem = raw_field(head, b"\"problem\":").and_then(|v| {
                let hex = std::str::from_utf8(v).ok()?.trim_matches('"');
                u64::from_str_radix(hex, 16).ok()
            });
            if makespan.map(f64::to_bits) == Some(expect.makespan_bits)
                && problem == Some(expect.problem)
            {
                Outcome::Ok
            } else {
                Outcome::Wrong
            }
        }
        b"\"shed\"" => Outcome::Shed,
        b"\"busy\"" => Outcome::Busy,
        b"\"timeout\"" => Outcome::Timeout,
        b"\"error\"" if head.windows(14).any(|w| w == b"unknown_parent") => Outcome::UnknownParent,
        b"\"error\"" => Outcome::Error,
        _ => Outcome::Protocol,
    }
}

/// Request class, for per-class latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A problem the fleet has not seen.
    Unique,
    /// An exact repeat of a hot problem.
    Repeat,
    /// A `patch` op.
    Patch,
}

/// One request to send.
pub struct Job<'a> {
    /// The request and its expected reply.
    pub case: &'a Case,
    /// Its class.
    pub class: Class,
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Class of the request.
    pub class: Class,
    /// When it was due (the send time, in a closed loop).
    pub due: Instant,
    /// When it was written.
    pub sent: Instant,
    /// When its reply was read.
    pub done: Option<Instant>,
    /// How it ended (`Protocol` until a reply arrives).
    pub outcome: Outcome,
    /// SLR of the expected schedule.
    pub slr: f64,
}

impl Record {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// How late the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// How requests are paced.
pub enum Pace {
    /// Send request `i` at `start + due[i]`.
    Open(Vec<Duration>),
    /// Keep `window` requests in flight per connection until `cap`
    /// passes or the jobs run out.
    Closed {
        /// In-flight requests per connection.
        window: usize,
        /// Longest the phase runs.
        cap: Duration,
    },
}

/// Seeded exponential inter-arrival times at `rate` per second over
/// `span`.
pub fn poisson_dues(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut dues = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate;
        if t >= span.as_secs_f64() {
            return dues;
        }
        dues.push(Duration::from_secs_f64(t));
    }
}

/// One non-blocking client connection.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` already searched for a newline.
    scanned: usize,
    wbuf: Vec<u8>,
    written: usize,
    /// Record indices awaiting replies, in send order.
    inflight: VecDeque<usize>,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            scanned: 0,
            wbuf: Vec::with_capacity(1 << 16),
            written: 0,
            inflight: VecDeque::new(),
        })
    }

    fn queue(&mut self, line: &str, record: usize) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        self.inflight.push_back(record);
    }

    /// Write as much of the pending output as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while self.written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.written..]) {
                Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "peer stalled")),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.written = 0;
        Ok(())
    }

    fn wants_write(&self) -> bool {
        self.written < self.wbuf.len()
    }

    /// Read what is available and hand each complete reply line, with
    /// the record it answers, to `on_reply`.
    fn read_replies(&mut self, mut on_reply: impl FnMut(usize, &[u8])) -> io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "peer closed")),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut start = 0;
        while let Some(nl) = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + nl;
            let record = self
                .inflight
                .pop_front()
                .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "unsolicited reply"))?;
            on_reply(record, &self.rbuf[start..end]);
            start = end + 1;
            self.scanned = start;
        }
        self.rbuf.drain(..start);
        self.scanned -= start;
        Ok(())
    }
}

/// The load generator's two connections to one address.
pub struct Client {
    conns: Vec<Conn>,
}

impl Client {
    /// Open [`CONNS`] connections to `addr`.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let conns = (0..CONNS)
            .map(|_| Conn::connect(addr))
            .collect::<io::Result<_>>()?;
        Ok(Client { conns })
    }

    /// Send `hello` on every connection and check each answer.
    pub fn hello(&mut self) -> io::Result<()> {
        for conn in &mut self.conns {
            conn.stream.set_nonblocking(false)?;
            conn.stream.set_read_timeout(Some(STALL))?;
            conn.stream.write_all(b"{\"op\":\"hello\"}\n")?;
            let mut reply = Vec::new();
            let mut byte = [0u8; 1];
            while byte[0] != b'\n' {
                conn.stream.read_exact(&mut byte)?;
                reply.push(byte[0]);
            }
            conn.stream.set_nonblocking(true)?;
            if !reply.starts_with(b"{\"status\":\"ok\"") || !reply.windows(5).any(|w| w == b"hello")
            {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("bad hello reply: {}", String::from_utf8_lossy(&reply)),
                ));
            }
        }
        Ok(())
    }

    /// Drive `jobs` (request `i` is `jobs(i)`) at `pace`; returns one
    /// record per request sent.
    pub fn drive<'a>(
        &mut self,
        pace: &Pace,
        mut jobs: impl FnMut(usize) -> Option<Job<'a>>,
    ) -> io::Result<Vec<Record>> {
        let mut records: Vec<Record> = Vec::new();
        let mut cases: Vec<Expect> = Vec::new();
        let start = Instant::now();
        let mut exhausted = false;
        let mut last_progress = start;
        loop {
            let now = Instant::now();
            // send what is due
            match pace {
                Pace::Open(dues) => {
                    while records.len() < dues.len() && start + dues[records.len()] <= now {
                        let i = records.len();
                        let Some(job) = jobs(i) else {
                            exhausted = true;
                            break;
                        };
                        self.conns[i % CONNS].queue(&job.case.line, i);
                        cases.push(job.case.expect);
                        records.push(Record {
                            class: job.class,
                            due: start + dues[i],
                            sent: now,
                            done: None,
                            outcome: Outcome::Protocol,
                            slr: job.case.expect.slr,
                        });
                    }
                }
                Pace::Closed { window, cap } => {
                    for c in 0..CONNS {
                        while !exhausted
                            && now < start + *cap
                            && self.conns[c].inflight.len() < *window
                        {
                            let i = records.len();
                            let Some(job) = jobs(i) else {
                                exhausted = true;
                                break;
                            };
                            self.conns[c].queue(&job.case.line, i);
                            cases.push(job.case.expect);
                            records.push(Record {
                                class: job.class,
                                due: now,
                                sent: now,
                                done: None,
                                outcome: Outcome::Protocol,
                                slr: job.case.expect.slr,
                            });
                        }
                    }
                }
            }
            for conn in &mut self.conns {
                conn.flush()?;
            }
            let issuing = match pace {
                Pace::Open(dues) => !exhausted && records.len() < dues.len(),
                Pace::Closed { cap, .. } => !exhausted && now < start + *cap,
            };
            let pending = self.conns.iter().any(|c| !c.inflight.is_empty());
            if !issuing && !pending {
                return Ok(records);
            }
            if pending && now.duration_since(last_progress) > STALL {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "fleet stopped replying",
                ));
            }
            let timeout = match pace {
                Pace::Open(dues) if issuing => {
                    (start + dues[records.len()]).saturating_duration_since(now)
                }
                Pace::Closed { cap, .. } if issuing && !pending => {
                    (start + *cap).saturating_duration_since(now)
                }
                _ => STALL,
            };
            let interest: Vec<(&TcpStream, i16)> = self
                .conns
                .iter()
                .map(|c| {
                    (
                        &c.stream,
                        if c.wants_write() {
                            POLLIN | POLLOUT
                        } else {
                            POLLIN
                        },
                    )
                })
                .collect();
            let ready = poll::wait(&interest, timeout)?;
            for (conn, events) in self.conns.iter_mut().zip(ready) {
                if events & POLLIN == 0 {
                    continue;
                }
                conn.read_replies(|i, line| {
                    let done = Instant::now();
                    records[i].done = Some(done);
                    records[i].outcome = classify(line, &cases[i]);
                    last_progress = done;
                })?;
            }
        }
    }
}

/// Outcome counts of a set of records.
pub struct Tally {
    /// Requests sent.
    pub attempted: usize,
    /// Requests not answered `ok` with the expected schedule.
    pub failed: usize,
    /// Of which output mismatches.
    pub wrong: usize,
    /// Gateway sheds.
    pub shed: usize,
    /// Busy refusals.
    pub busy: usize,
    /// Unknown-parent errors.
    pub unknown_parent: usize,
}

impl Tally {
    /// Count the outcomes of `records`.
    pub fn of(records: &[Record]) -> Tally {
        let count = |o: Outcome| records.iter().filter(|r| r.outcome == o).count();
        Tally {
            attempted: records.len(),
            failed: records.len() - count(Outcome::Ok),
            wrong: count(Outcome::Wrong),
            shed: count(Outcome::Shed),
            busy: count(Outcome::Busy),
            unknown_parent: count(Outcome::UnknownParent),
        }
    }
}

/// Latencies (ms from due) of the `ok` records, optionally of one class.
pub fn latencies(records: &[Record], class: Option<Class>) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok && class.is_none_or(|c| r.class == c))
        .filter_map(Record::latency_ms)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect() -> Expect {
        Expect {
            makespan_bits: 12.5f64.to_bits(),
            problem: 0xabc,
            slr: 1.0,
        }
    }

    #[test]
    fn classify_checks_makespan_bits_and_problem() {
        let ok = br#"{"status":"ok","schedule":{"algorithm":"HEFT","makespan":12.5,"slr":1.1,"speedup":2.0,"fingerprint":"00000000000000ff","problem":"0000000000000abc","cached":false}}"#;
        assert_eq!(classify(ok, &expect()), Outcome::Ok);
        let off = br#"{"status":"ok","schedule":{"algorithm":"HEFT","makespan":12.500000000000002,"problem":"0000000000000abc"}}"#;
        assert_eq!(classify(off, &expect()), Outcome::Wrong);
        let other = br#"{"status":"ok","schedule":{"makespan":12.5,"problem":"0000000000000abd"}}"#;
        assert_eq!(classify(other, &expect()), Outcome::Wrong);
    }

    #[test]
    fn classify_sorts_refusals() {
        let e = expect();
        assert_eq!(
            classify(br#"{"status":"shed","message":"x"}"#, &e),
            Outcome::Shed
        );
        assert_eq!(
            classify(br#"{"status":"busy","message":"x"}"#, &e),
            Outcome::Busy
        );
        assert_eq!(
            classify(br#"{"status":"timeout","message":"x"}"#, &e),
            Outcome::Timeout
        );
        assert_eq!(
            classify(
                br#"{"status":"error","message":"unknown_parent: gone"}"#,
                &e
            ),
            Outcome::UnknownParent
        );
        assert_eq!(
            classify(br#"{"status":"error","message":"bad"}"#, &e),
            Outcome::Error
        );
        assert_eq!(classify(b"garbage", &e), Outcome::Protocol);
    }

    #[test]
    fn poisson_dues_are_seeded_and_increasing() {
        let a = poisson_dues(5, 1000.0, Duration::from_secs(1));
        assert_eq!(a, poisson_dues(5, 1000.0, Duration::from_secs(1)));
        assert_ne!(a, poisson_dues(6, 1000.0, Duration::from_secs(1)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((900..1100).contains(&a.len()), "{}", a.len());
    }
}
