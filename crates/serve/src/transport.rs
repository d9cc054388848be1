//! Transport layer: the TCP accept loop and the stdin runner.
//!
//! Both transports speak the same NDJSON protocol and share one
//! [`Service`]. The TCP listener runs non-blocking and polls the shutdown
//! flag between accepts; each connection gets its own thread with a short
//! read timeout so it also notices shutdown promptly. A `shutdown` request
//! from any client therefore winds the whole daemon down: accept loop
//! exits, connection threads finish their buffered lines and join, and the
//! worker pool drains.

use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::ServiceMetrics;
use crate::service::{ServeConfig, Service};

/// How often idle loops poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Read timeout on connection sockets; bounds shutdown latency per
/// connection.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

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
        listener.set_nonblocking(true)?;
        Ok(TcpServer {
            listener,
            service: Arc::new(Service::start(config)),
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
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if self.service.is_shutting_down() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let service = self.service.clone();
                    let handle = std::thread::Builder::new()
                        .name("hetsched-conn".to_string())
                        .spawn(move || serve_connection(stream, &service))
                        .expect("spawning connection thread");
                    connections.push(handle);
                    reap_finished(&mut connections, self.service.metrics());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.service.shutdown();
                    return Err(e);
                }
            }
        }
        join_all(connections, self.service.metrics());
        self.service.shutdown();
        Ok(())
    }
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

/// Serve one TCP connection: buffer bytes, answer each complete line,
/// leave when the peer hangs up or the service shuts down.
///
/// The per-line path is allocation-free at steady state: lines are
/// scanned **in place** inside the persistent read buffer (drained only
/// after the reply is produced), replies arrive as shared `Arc` bytes
/// from [`Service::handle_line_bytes`], and one reusable scratch buffer
/// assembles `reply + '\n'` for a single `write_all`.
fn serve_connection(stream: TcpStream, service: &Service) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Answer every complete line already buffered, even mid-shutdown:
        // drain-then-exit applies to connections too.
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let reply = match std::str::from_utf8(&pending[..pos]) {
                Ok(line) => {
                    let line = line.trim();
                    (!line.is_empty()).then(|| service.handle_line_bytes(line))
                }
                Err(_) => Some(service.invalid_utf8_reply()),
            };
            pending.drain(..=pos);
            if let Some(reply) = reply {
                if write_reply(&mut stream, &mut out, &reply).is_err() {
                    return;
                }
            }
        }
        if service.is_shutting_down() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Read timeout: loop around to re-check the shutdown flag.
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Assemble `reply + '\n'` in the caller's reusable scratch buffer and
/// write it in one call (one packet under `TCP_NODELAY`).
fn write_reply(w: &mut impl Write, scratch: &mut Vec<u8>, reply: &[u8]) -> io::Result<()> {
    scratch.clear();
    scratch.extend_from_slice(reply);
    scratch.push(b'\n');
    w.write_all(scratch)?;
    w.flush()
}

/// Serve NDJSON requests from `input` to `output` until EOF or a
/// `shutdown` request, then drain the worker pool. This is the stdin mode
/// of the daemon (`hetsched serve --stdin`), also handy for tests.
pub fn serve_lines(
    service: &Service,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    let mut out: Vec<u8> = Vec::new();
    for line in input.split(b'\n') {
        let line = line?;
        let reply = match std::str::from_utf8(&line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => service.handle_line_bytes(line.trim()),
            Err(_) => service.invalid_utf8_reply(),
        };
        write_reply(&mut output, &mut out, &reply)?;
        if service.is_shutting_down() {
            break;
        }
    }
    service.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::INVALID_UTF8;
    use std::io::{BufRead, BufReader, Cursor};

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
}
