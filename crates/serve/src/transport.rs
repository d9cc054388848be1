//! Transport layer: the TCP accept loop, the stdin runner, the NDJSON
//! codec every socket and pipe of both tiers frames its lines with, and
//! the connection cap both TCP tiers admit clients under.
//!
//! Both transports speak the same NDJSON protocol and share one
//! [`Service`]. The TCP listener blocks in `accept`, and
//! [`Service::begin_shutdown`] wakes it with one loopback connect. Each
//! connection gets its own thread, up to a cap, with short socket
//! timeouts so it notices shutdown and stalled writes promptly. A
//! `shutdown` request from any client therefore winds the whole daemon
//! down: accept loop exits, connection threads finish their buffered
//! lines and join, and the worker pool drains.

mod codec;

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use codec::{
    discard_input, write_line, Line, LineCodec, MAX_LINE_BYTES, OVERLONG_LINGER, WRITE_STALL,
};

use crate::metrics::ServiceMetrics;
use crate::protocol::{Response, INVALID_UTF8, LINE_TOO_LONG};
use crate::service::{ServeConfig, Service};

/// Read and write timeout of connection sockets: a blocked call returns
/// this often, so its thread re-checks shutdown or the write stall.
const IO_TIMEOUT: Duration = Duration::from_millis(200);

/// Bounds of the accept loop.
#[derive(Debug, Clone, Copy)]
struct Limits {
    /// Connections served at once; one more is answered `busy` and closed.
    connections: usize,
    /// See [`WRITE_STALL`].
    write_stall: Duration,
}

/// Connections a TCP tier serves at once, a shard and the gateway front
/// door alike; [`refuse_over_cap`] answers one more `busy`. 256 is far
/// above what this repository's clients open: the gateway pools at most
/// `router_threads` (8 by default) per shard, and `load` opens 4.
pub const MAX_CONNECTIONS: usize = 256;

/// The limits [`TcpServer::run`] serves under.
const LIMITS: Limits = Limits {
    connections: MAX_CONNECTIONS,
    write_stall: WRITE_STALL,
};

/// Admission of a connection just accepted by a tier that holds `open`
/// connections under a cap of `cap`: at the cap, answer it one `busy`
/// line and return true, and the caller drops (closes) it.
pub fn refuse_over_cap(stream: &TcpStream, open: usize, cap: usize, write_stall: Duration) -> bool {
    if open < cap {
        return false;
    }
    refuse(
        stream,
        &format!("connection limit of {cap} reached"),
        write_stall,
    );
    true
}

/// A TCP daemon bound to an address, ready to [`run`](TcpServer::run).
pub struct TcpServer {
    listener: TcpListener,
    service: Arc<Service>,
}

impl TcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the worker pool.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let service = Service::start(config);
        let _ = service.wake_addr.set(wake);
        Ok(TcpServer {
            listener,
            service: Arc::new(service),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared handle to the underlying service (stats, programmatic
    /// shutdown).
    pub fn service(&self) -> Arc<Service> {
        self.service.clone()
    }

    /// Accept and serve connections until a `shutdown` request arrives (or
    /// [`Service::begin_shutdown`] is called on the shared handle), then
    /// drain: join every connection thread and the worker pool before
    /// returning.
    pub fn run(self) -> io::Result<()> {
        self.run_with(LIMITS)
    }

    fn run_with(self, limits: Limits) -> io::Result<()> {
        let metrics = self.service.metrics();
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        while !self.service.is_shutting_down() {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.service.shutdown();
                    return Err(e);
                }
            };
            if self.service.is_shutting_down() {
                break; // the wake-up connect
            }
            reap_finished(&mut connections, metrics);
            if refuse_over_cap(
                &stream,
                connections.len(),
                limits.connections,
                limits.write_stall,
            ) {
                continue;
            }
            // A failed spawn drops its closure, and the stream with it.
            let spare = stream.try_clone();
            let service = self.service.clone();
            let spawned = std::thread::Builder::new()
                .name("hetsched-conn".to_string())
                .spawn(move || serve_connection(stream, &service, limits.write_stall));
            match (spawned, spare) {
                (Ok(handle), _) => connections.push(handle),
                (Err(_), Ok(stream)) => {
                    refuse(&stream, "no thread for the connection", limits.write_stall)
                }
                (Err(_), Err(_)) => {}
            }
        }
        join_all(connections, metrics);
        self.service.shutdown();
        Ok(())
    }
}

/// Answer a connection that will not be served with one `busy` line; the
/// caller then closes it.
fn refuse(mut stream: &TcpStream, why: &str, write_stall: Duration) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let busy = Response::Busy {
        message: format!("{why}; retry later"),
    };
    let _ = write_line(
        &mut stream,
        &mut Vec::new(),
        busy.to_line().as_bytes(),
        write_stall,
    );
}

/// Join every finished connection thread, keeping the live ones. A bare
/// `retain(|h| !h.is_finished())` would drop finished handles without
/// joining them, silently discarding any panic they died with; joining
/// surfaces the panic and counts it.
fn reap_finished(connections: &mut Vec<JoinHandle<()>>, metrics: &ServiceMetrics) {
    let mut i = 0;
    while i < connections.len() {
        if connections[i].is_finished() {
            let handle = connections.swap_remove(i);
            if handle.join().is_err() {
                ServiceMetrics::bump(&metrics.connection_panics);
            }
        } else {
            i += 1;
        }
    }
}

/// Join every connection thread (finished or not), counting panics.
fn join_all(connections: Vec<JoinHandle<()>>, metrics: &ServiceMetrics) {
    for handle in connections {
        if handle.join().is_err() {
            ServiceMetrics::bump(&metrics.connection_panics);
        }
    }
}

/// Serve one TCP connection until the peer hangs up, a line is
/// over-long, a reply write stalls, or the service shuts down. After an
/// over-long line the rest of it is read off for up to
/// [`OVERLONG_LINGER`], so the peer can read its `error`.
fn serve_connection(stream: TcpStream, service: &Service, write_stall: Duration) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);
    if let Ok(true) = serve_stream(service, &stream, &stream, write_stall, true) {
        let _ = stream.shutdown(Shutdown::Write);
        let until = Instant::now() + OVERLONG_LINGER;
        while !service.is_shutting_down() && discard_input(&stream, until) {}
    }
}

/// Serve NDJSON requests from `input` to `output` until EOF, an
/// over-long line or a `shutdown` request, then drain the worker pool.
/// This is the stdin mode of the daemon (`hetsched serve --stdin`), also
/// handy for tests.
pub fn serve_lines(service: &Service, input: impl Read, output: impl Write) -> io::Result<()> {
    serve_stream(service, input, output, WRITE_STALL, false)?;
    service.shutdown();
    Ok(())
}

/// Answer each line of `input` on `output`, in order, until EOF (a last
/// line may lack its newline), an over-long line, or shutdown; true if
/// it stopped on an over-long line. With `drain` the lines already read
/// are answered first, as a TCP connection does; without it the session
/// stops right after the reply that began the shutdown, as stdin does.
/// Lines are framed in place and replies arrive as shared `Arc` bytes:
/// no per-line allocation at steady state.
fn serve_stream(
    service: &Service,
    mut input: impl Read,
    mut output: impl Write,
    write_stall: Duration,
    drain: bool,
) -> io::Result<bool> {
    let mut codec = LineCodec::new(MAX_LINE_BYTES);
    let mut out: Vec<u8> = Vec::new();
    let mut eof = false;
    loop {
        while let Some(line) = codec.next_line() {
            let (reply, over_long) = match line {
                Line::Text(text) => (service.handle_line_bytes(text), false),
                Line::InvalidUtf8 => (service.error_reply(INVALID_UTF8), false),
                Line::OverLong => (service.error_reply(LINE_TOO_LONG), true),
            };
            write_line(&mut output, &mut out, &reply, write_stall)?;
            if over_long || (!drain && service.is_shutting_down()) {
                return Ok(over_long);
            }
        }
        if eof || service.is_shutting_down() {
            return Ok(false);
        }
        match input.read(codec.spare()) {
            Ok(0) => {
                eof = true;
                codec.finish();
            }
            Ok(n) => codec.filled(n),
            // a read timeout: loop around to re-check the shutdown flag
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Cursor};
    use std::net::Shutdown;

    fn small_request(weight: f64, options: &str) -> String {
        format!(
            "{{\"op\":\"schedule\",\"dag\":{{\"tasks\":[{{\"weight\":{weight}}},{{\"weight\":2.0}}],\
             \"edges\":[{{\"src\":0,\"dst\":1,\"data\":1.5}}]}},\
             \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":2}},\
             \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}},\
             \"algorithm\":\"HEFT\",\"options\":{options}}}"
        )
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 8,
            instance_cache_capacity: 8,
            default_deadline_ms: 10_000,
        }
    }

    #[test]
    fn reaper_joins_finished_threads_and_counts_panics() {
        // Quiet the default panic hook for the deliberately-panicking
        // thread, then restore it.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let panicker = std::thread::spawn(|| panic!("connection thread died"));
        let clean = std::thread::spawn(|| {});
        while !panicker.is_finished() || !clean.is_finished() {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::panic::set_hook(hook);

        let metrics = ServiceMetrics::new();
        let mut connections = vec![panicker, clean];
        reap_finished(&mut connections, &metrics);
        assert!(connections.is_empty(), "finished handles must be joined");
        assert_eq!(ServiceMetrics::read(&metrics.connection_panics), 1);

        // A still-running thread is left alone by the reaper and joined by
        // the final drain.
        let (tx, rx) = crossbeam::channel::bounded::<()>(1);
        let mut connections = vec![std::thread::spawn(move || {
            let _ = rx.recv();
        })];
        reap_finished(&mut connections, &metrics);
        assert_eq!(connections.len(), 1, "live handle must be kept");
        tx.send(()).unwrap();
        join_all(connections, &metrics);
        assert_eq!(ServiceMetrics::read(&metrics.connection_panics), 1);
    }

    #[test]
    fn stdin_mode_round_trips_and_stops_on_shutdown() {
        let service = Service::start(test_config());
        let input = format!(
            "{}\n\n{}\n{{\"op\":\"stats\"}}\n{{\"op\":\"shutdown\"}}\nignored after shutdown\n",
            small_request(1.0, "{}"),
            small_request(1.0, "{}"),
        );
        let mut out = Vec::new();
        serve_lines(&service, Cursor::new(input), &mut out).unwrap();
        let lines: Vec<String> = out.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 4, "lines: {lines:#?}");
        let first: serde_json::Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(first["status"].as_str(), Some("ok"));
        assert_eq!(first["schedule"]["cached"].as_bool(), Some(false));
        let second: serde_json::Value = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(second["schedule"]["cached"].as_bool(), Some(true));
        let stats: serde_json::Value = serde_json::from_str(&lines[2]).unwrap();
        assert_eq!(stats["stats"]["cache_hits"].as_u64(), Some(1));
        let bye: serde_json::Value = serde_json::from_str(&lines[3]).unwrap();
        assert_eq!(bye["status"].as_str(), Some("shutting_down"));
        assert!(service.is_shutting_down());
    }

    #[test]
    fn tcp_round_trip_and_client_initiated_shutdown() {
        let server = TcpServer::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let daemon = std::thread::spawn(move || server.run());

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;

        let mut send = |line: &str, reader: &mut BufReader<TcpStream>| -> serde_json::Value {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            serde_json::from_str(reply.trim()).unwrap()
        };

        let v = send(&small_request(3.0, "{\"simulate\":true}"), &mut reader);
        assert_eq!(v["status"].as_str(), Some("ok"), "got {v:?}");
        assert_eq!(
            v["schedule"]["sim"]["matches_prediction"].as_bool(),
            Some(true)
        );
        let v = send(&small_request(3.0, "{\"simulate\":true}"), &mut reader);
        assert_eq!(v["schedule"]["cached"].as_bool(), Some(true));
        let v = send(r#"{"op":"stats"}"#, &mut reader);
        assert_eq!(v["stats"]["requests"].as_u64(), Some(2));
        let v = send(r#"{"op":"shutdown"}"#, &mut reader);
        assert_eq!(v["status"].as_str(), Some("shutting_down"));

        daemon.join().unwrap().unwrap();
    }

    /// `{"op":"hello","x":"<0xFF>"}`: answered `ok` if the bad byte were
    /// rewritten to U+FFFD.
    const INVALID_HELLO: &[u8] = b"{\"op\":\"hello\",\"x\":\"\xff\"}";

    fn status_and_message(line: &str) -> (String, String) {
        let v: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
        (
            v["status"].as_str().unwrap_or_default().to_string(),
            v["message"].as_str().unwrap_or_default().to_string(),
        )
    }

    #[test]
    fn invalid_utf8_lines_get_a_structured_error_in_order() {
        let mut wire = b"{\"op\":\"hello\"}\n".to_vec();
        wire.extend_from_slice(INVALID_HELLO);
        wire.extend_from_slice(b"\n{\"op\":\"hello\"}\n");

        // TCP
        let server = TcpServer::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let service = server.service();
        let daemon = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(&wire).unwrap();
        let mut replies = Vec::new();
        for _ in 0..3 {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            replies.push(status_and_message(&reply));
        }
        assert_eq!(replies[0].0, "ok");
        assert_eq!(replies[1], ("error".to_string(), INVALID_UTF8.to_string()));
        assert_eq!(replies[2].0, "ok", "the connection keeps serving");
        assert_eq!(ServiceMetrics::read(&service.metrics().errors), 1);
        service.begin_shutdown();
        daemon.join().unwrap().unwrap();

        // stdin mode
        let service = Service::start(test_config());
        let mut out = Vec::new();
        serve_lines(&service, Cursor::new(wire), &mut out).unwrap();
        let replies: Vec<_> = out
            .lines()
            .map(|l| status_and_message(&l.unwrap()))
            .collect();
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert_eq!(replies[1], ("error".to_string(), INVALID_UTF8.to_string()));
        assert_eq!(replies[2].0, "ok");
    }

    #[test]
    fn tcp_survives_malformed_lines_and_peer_disconnect() {
        let server = TcpServer::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let service = server.service();
        let daemon = std::thread::spawn(move || server.run());

        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            stream.write_all(b"garbage that is not json\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
            assert_eq!(v["status"].as_str(), Some("error"));
            // Drop mid-session: the daemon must shrug it off.
        }

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream
            .write_all(format!("{}\n", small_request(4.0, "{}")).as_bytes())
            .unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"), "got {v:?}");

        service.begin_shutdown();
        daemon.join().unwrap().unwrap();
    }

    /// Every reply line until the daemon closes the connection; a read
    /// timeout fails the test instead of hanging it.
    fn read_to_eof(stream: &TcpStream) -> Vec<String> {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        BufReader::new(stream)
            .lines()
            .map(|l| l.expect("a reply or EOF within 10 s"))
            .collect()
    }

    /// A running daemon with `limits`, its address and its service.
    fn spawn_daemon(
        limits: Limits,
    ) -> (
        std::net::SocketAddr,
        Arc<Service>,
        std::thread::JoinHandle<io::Result<()>>,
    ) {
        let server = TcpServer::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let service = server.service();
        (
            addr,
            service,
            std::thread::spawn(move || server.run_with(limits)),
        )
    }

    #[test]
    fn an_over_long_line_gets_an_error_then_the_session_ends() {
        assert!(LINE_TOO_LONG.contains(&MAX_LINE_BYTES.to_string()));
        let too_long = ("error".to_string(), LINE_TOO_LONG.to_string());
        let mut wire = vec![b'a'; MAX_LINE_BYTES + 1];

        // TCP: well over the cap and no newline ever arrives. The daemon
        // reads off the rest before it closes, so the write completes
        // instead of being reset.
        let (addr, service, daemon) = spawn_daemon(LIMITS);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&vec![b'a'; MAX_LINE_BYTES + (1 << 20)])
            .unwrap();
        let replies = read_to_eof(&stream);
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert_eq!(status_and_message(&replies[0]), too_long);
        service.begin_shutdown();
        daemon.join().unwrap().unwrap();

        // stdin mode: the lines after it are never answered
        wire.extend_from_slice(b"\n{\"op\":\"hello\"}\n");
        let service = Service::start(test_config());
        let mut out = Vec::new();
        serve_lines(&service, Cursor::new(wire), &mut out).unwrap();
        let replies: Vec<_> = out.lines().map(|l| l.unwrap()).collect();
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert_eq!(status_and_message(&replies[0]), too_long);
    }

    #[test]
    fn a_half_closed_client_gets_every_reply_in_order() {
        let (addr, service, daemon) = spawn_daemon(LIMITS);
        let mut stream = TcpStream::connect(addr).unwrap();
        // the last line lacks its newline
        stream
            .write_all(b"{\"op\":\"hello\"}\n{\"op\":\"stats\"}\n{\"op\":\"nope\"}")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let replies = read_to_eof(&stream);
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert!(replies[0].contains("\"hello\""), "{}", replies[0]);
        assert!(replies[1].contains("\"stats\""), "{}", replies[1]);
        assert_eq!(status_and_message(&replies[2]).0, "error");
        service.begin_shutdown();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn connections_over_the_cap_are_refused_busy() {
        let (addr, service, daemon) = spawn_daemon(Limits {
            connections: 2,
            ..LIMITS
        });
        let served: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                stream.write_all(b"{\"op\":\"hello\"}\n").unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                assert_eq!(status_and_message(&reply).0, "ok");
                stream
            })
            .collect();
        let refused = TcpStream::connect(addr).unwrap();
        let replies = read_to_eof(&refused);
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert_eq!(status_and_message(&replies[0]).0, "busy");
        drop(served);
        service.begin_shutdown();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn a_client_that_never_reads_cannot_hold_up_shutdown() {
        let stall = Duration::from_millis(300);
        let (addr, service, daemon) = spawn_daemon(Limits {
            write_stall: stall,
            ..LIMITS
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_write_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        // Large replies fill both socket buffers; once the daemon's write
        // stalls it stops reading, so this loop's writes stall (or fail,
        // once the daemon drops the connection) too.
        let line = format!("{{\"op\":\"metrics\"}}{}\n", " ".repeat(4096));
        for _ in 0..100_000 {
            if stream.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        service.begin_shutdown();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(daemon.join().unwrap()));
        let ran = rx
            .recv_timeout(stall + Duration::from_secs(5))
            .expect("run() returns once the stalled write gives up");
        ran.unwrap();
        drop(stream);
    }
}
