//! Integration tests for the scale-out front door: a real gateway + shard
//! topology over TCP, covering byte-identity with direct library calls,
//! single-flight dedup, mixed unique/duplicate interleaving, graceful
//! degradation when a shard dies mid-traffic, patch-parent recovery
//! after a shard evicts the parent, and a byte-at-a-time client against
//! either tier.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched::core::algorithms;
use hetsched::dag::io::DagSpec;
use hetsched::platform::SystemSpec;
use hetsched::workloads::gauss::gaussian_elimination;
use hetsched_gateway::{GatewayConfig, GatewayServer, LocalShards, Router};
use hetsched_serve::{ServeConfig, Service, TcpServer};

const SYSTEM_JSON: &str = r#"{"processors": {"kind": "speeds", "speeds": [2.0, 1.0, 1.5]},
    "network": {"topology": "fully_connected", "startup": 0.5, "bandwidth": 1.0}}"#;

fn shard_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 16,
        instance_cache_capacity: 16,
        default_deadline_ms: 10_000,
    }
}

/// A running gateway + N in-process shards, plus the handle to join.
struct Topology {
    shards: LocalShards,
    gateway: std::thread::JoinHandle<std::io::Result<()>>,
    addr: std::net::SocketAddr,
}

fn spawn_topology(shard_count: usize) -> Topology {
    spawn_topology_with(shard_count, &shard_config())
}

fn spawn_topology_with(shard_count: usize, shard_config: &ServeConfig) -> Topology {
    let shards = LocalShards::spawn(shard_count, shard_config).unwrap();
    let config = GatewayConfig {
        backends: shards.addrs(),
        ..Default::default()
    };
    let server = GatewayServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let gateway = std::thread::spawn(move || server.run());
    Topology {
        shards,
        gateway,
        addr,
    }
}

impl Topology {
    /// Shut down via the wire (propagates to the shards) and join.
    fn shutdown(mut self) {
        let mut c = Client::connect(self.addr);
        let bye = c.roundtrip(r#"{"op":"shutdown"}"#);
        assert_eq!(bye["status"].as_str(), Some("shutting_down"), "{bye:?}");
        self.gateway.join().unwrap().unwrap();
        self.shards.shutdown_all();
    }
}

/// DagSpec JSON for a deterministic Gaussian-elimination workload.
fn dag_json(m: usize) -> serde_json::Value {
    let mut rng = StdRng::seed_from_u64(11);
    let dag = gaussian_elimination(m, 1.0, &mut rng);
    serde_json::to_value(DagSpec::from_dag(&dag)).unwrap()
}

fn schedule_request(m: usize, algorithm: &str, options: &str) -> String {
    format!(
        "{{\"op\":\"schedule\",\"dag\":{},\"system\":{},\"algorithm\":\"{algorithm}\",\"options\":{options}}}",
        serde_json::to_string(&dag_json(m)).unwrap(),
        SYSTEM_JSON.replace('\n', ""),
    )
}

/// Ground truth, straight from the library: the schedule `algorithm`
/// makes of [`schedule_request`]'s problem, as a reply carries it.
fn direct_schedule(m: usize, algorithm: &str) -> serde_json::Value {
    let dag_spec: DagSpec = serde_json::from_value(dag_json(m)).unwrap();
    let dag = dag_spec.build().unwrap();
    let sys_spec: SystemSpec = serde_json::from_str(SYSTEM_JSON).unwrap();
    let sys = sys_spec.build(&dag).unwrap();
    let direct = algorithms::by_name(algorithm).unwrap().schedule(&dag, &sys);
    serde_json::to_value(&direct).unwrap()
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Send one line, return the raw reply line (trimmed).
    fn roundtrip_raw(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "connection closed without a reply");
        reply.trim().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> serde_json::Value {
        let raw = self.roundtrip_raw(line);
        serde_json::from_str(&raw).unwrap_or_else(|e| panic!("bad reply `{raw}`: {e}"))
    }
}

/// Sum one counter across the `shards` array of a gateway stats reply.
fn shard_sum(stats: &serde_json::Value, key: &str) -> u64 {
    stats["shards"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s[key].as_u64().unwrap_or(0))
        .sum()
}

/// A fingerprint-routed request through the gateway produces exactly the
/// schedule a direct library call does — and the gateway handshake
/// identifies itself distinctly from a shard.
#[test]
fn gateway_replies_match_direct_library_call() {
    let topo = spawn_topology(2);
    let mut client = Client::connect(topo.addr);

    let hello = client.roundtrip(r#"{"op":"hello"}"#);
    assert_eq!(
        hello["hello"]["service"].as_str(),
        Some("hetsched-gateway"),
        "{hello:?}"
    );

    let direct_value = direct_schedule(6, "HEFT");
    let reply = client.roundtrip(&schedule_request(6, "HEFT", "{}"));
    assert_eq!(reply["status"].as_str(), Some("ok"), "{reply:?}");
    assert_eq!(
        reply["schedule"]["schedule"], direct_value,
        "gateway schedule differs from direct library call"
    );

    // A repeat rides the home shard's memo: same payload, cached.
    let again = client.roundtrip(&schedule_request(6, "HEFT", "{}"));
    assert_eq!(again["schedule"]["cached"].as_bool(), Some(true));
    assert_eq!(again["schedule"]["schedule"], direct_value);

    topo.shutdown();
}

/// K concurrent identical requests: exactly one backend schedule (summed
/// across shard stats), K byte-identical reply lines, and K-1 dedup hits.
#[test]
fn single_flight_coalesces_identical_requests() {
    const K: usize = 6;
    let topo = spawn_topology(2);

    // The sleep holds the leader's flight open long enough that every
    // barrier-released follower joins it instead of racing past.
    let line = schedule_request(6, "HEFT", "{\"debug_sleep_ms\":800}");
    let barrier = Arc::new(Barrier::new(K));
    let replies: Vec<String> = (0..K)
        .map(|_| {
            let line = line.clone();
            let barrier = barrier.clone();
            let addr = topo.addr;
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                barrier.wait();
                c.roundtrip_raw(&line)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    for reply in &replies {
        assert_eq!(
            reply, &replies[0],
            "follower reply is not byte-identical to the leader's"
        );
        assert!(reply.starts_with("{\"status\":\"ok\""), "{reply}");
    }

    let stats = Client::connect(topo.addr).roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(shard_sum(&stats, "computed"), 1, "{stats:?}");
    assert_eq!(
        stats["gateway"]["dedup_hits"].as_u64(),
        Some((K - 1) as u64),
        "{stats:?}"
    );
    assert_eq!(stats["gateway"]["forwarded"].as_u64(), Some(1));

    topo.shutdown();
}

/// Duplicates interleaved with unique traffic: the duplicates coalesce,
/// the uniques each compute, and nobody gets the wrong payload.
#[test]
fn mixed_unique_and_duplicate_interleaving() {
    const DUPES: usize = 3;
    const UNIQUES: usize = 3;
    let topo = spawn_topology(2);

    let hot = schedule_request(6, "HEFT", "{\"debug_sleep_ms\":600}");
    let barrier = Arc::new(Barrier::new(DUPES + UNIQUES));
    let mut handles = Vec::new();
    for _ in 0..DUPES {
        let line = hot.clone();
        let barrier = barrier.clone();
        let addr = topo.addr;
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            barrier.wait();
            ("hot", c.roundtrip_raw(&line))
        }));
    }
    for i in 0..UNIQUES {
        // distinct matrix sizes: distinct fingerprints, independent routing
        let line = schedule_request(4 + i, "HEFT", "{\"debug_sleep_ms\":100}");
        let barrier = barrier.clone();
        let addr = topo.addr;
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            barrier.wait();
            ("unique", c.roundtrip_raw(&line))
        }));
    }
    let replies: Vec<(&str, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let hot_replies: Vec<&String> = replies
        .iter()
        .filter(|(kind, _)| *kind == "hot")
        .map(|(_, r)| r)
        .collect();
    for (kind, reply) in &replies {
        assert!(reply.starts_with("{\"status\":\"ok\""), "{kind}: {reply}");
    }
    for r in &hot_replies {
        assert_eq!(*r, hot_replies[0], "duplicate replies must coalesce");
    }

    let stats = Client::connect(topo.addr).roundtrip(r#"{"op":"stats"}"#);
    // one compute for the hot flight, one per unique problem
    assert_eq!(
        shard_sum(&stats, "computed"),
        (1 + UNIQUES) as u64,
        "{stats:?}"
    );
    assert_eq!(
        stats["gateway"]["dedup_hits"].as_u64(),
        Some((DUPES - 1) as u64),
        "{stats:?}"
    );

    topo.shutdown();
}

/// A `schedule_many` batch through the gateway: entries come back in
/// request order, each byte-identical to a direct library call, the
/// fan-out splits by each instance's home shard, and a repeat batch is
/// answered entirely from the shard memos.
#[test]
fn schedule_many_fans_out_by_home_shard_and_keeps_order() {
    let topo = spawn_topology(2);
    let mut client = Client::connect(topo.addr);

    let sizes = [4usize, 5, 6, 7];
    let instances: Vec<String> = sizes
        .iter()
        .map(|&m| {
            format!(
                "{{\"dag\":{},\"system\":{}}}",
                serde_json::to_string(&dag_json(m)).unwrap(),
                SYSTEM_JSON.replace('\n', ""),
            )
        })
        .collect();
    let line = format!(
        "{{\"op\":\"schedule_many\",\"instances\":[{}],\"algorithm\":\"HEFT\"}}",
        instances.join(","),
    );

    let reply = client.roundtrip(&line);
    assert_eq!(reply["status"].as_str(), Some("ok"), "{reply:?}");
    let body = &reply["many"];
    let entries = body["entries"].as_array().unwrap();
    assert_eq!(entries.len(), sizes.len());
    assert_eq!(body["cached"].as_u64(), Some(0));
    assert_eq!(body["computed"].as_u64(), Some(sizes.len() as u64));
    let sys_spec: SystemSpec = serde_json::from_str(SYSTEM_JSON).unwrap();
    for (entry, &m) in entries.iter().zip(&sizes) {
        let dag_spec: DagSpec = serde_json::from_value(dag_json(m)).unwrap();
        let dag = dag_spec.build().unwrap();
        let sys = sys_spec.build(&dag).unwrap();
        let direct = algorithms::by_name("HEFT").unwrap().schedule(&dag, &sys);
        assert_eq!(
            entry["schedule"],
            serde_json::to_value(&direct).unwrap(),
            "batch entry for m={m} differs from direct library call"
        );
        assert_eq!(entry["cached"].as_bool(), Some(false));
    }

    // The batch split across both shards (4 distinct fingerprints over 2
    // shards virtually never all land on one) and seeded their memos:
    // the identical batch answers cached, and so does a standalone
    // request for any member.
    let again = client.roundtrip(&line);
    assert_eq!(again["many"]["cached"].as_u64(), Some(sizes.len() as u64));
    assert_eq!(again["many"]["computed"].as_u64(), Some(0));
    let again_entries = again["many"]["entries"].as_array().unwrap();
    for (a, b) in again_entries.iter().zip(entries) {
        // identical payloads; only the `cached` flag flips
        assert_eq!(a["schedule"], b["schedule"]);
        assert_eq!(a["cached"].as_bool(), Some(true));
    }
    let single = client.roundtrip(&schedule_request(5, "HEFT", "{}"));
    assert_eq!(
        single["schedule"]["cached"].as_bool(),
        Some(true),
        "{single:?}"
    );

    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(shard_sum(&stats, "computed"), sizes.len() as u64);

    topo.shutdown();
}

/// Kill one shard mid-traffic: every subsequent request gets a structured
/// reply within its deadline (reroute or shed — never a hang), and tail
/// traffic still succeeds.
#[test]
fn shard_failure_degrades_gracefully() {
    const DEADLINE_MS: u64 = 2_000;
    let mut topo = spawn_topology(2);
    let mut client = Client::connect(topo.addr);

    // Warm up: both shards reachable, traffic flows.
    let warm = client.roundtrip(&schedule_request(6, "HEFT", "{}"));
    assert_eq!(warm["status"].as_str(), Some("ok"), "{warm:?}");

    topo.shards.kill(0);

    // A spread of distinct problems: with fingerprint homing, some home to
    // the dead shard and must fail over. Every reply must be structured
    // and arrive within the deadline; none may hang the client.
    let mut ok = 0;
    for m in 4..12 {
        let line = schedule_request(m, "HEFT", &format!("{{\"deadline_ms\":{DEADLINE_MS}}}"));
        let started = Instant::now();
        let reply = client.roundtrip(&line);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(DEADLINE_MS + 1_000),
            "reply took {elapsed:?}, past the {DEADLINE_MS}ms deadline"
        );
        let status = reply["status"].as_str().expect("reply carries a status");
        assert!(
            matches!(status, "ok" | "shed" | "timeout" | "error"),
            "unstructured degradation: {reply:?}"
        );
        if status == "ok" {
            ok += 1;
        }
    }
    assert!(ok > 0, "no request succeeded after losing one shard");

    // Tail traffic: the survivor serves everything homed anywhere.
    let tail = client.roundtrip(&schedule_request(6, "HEFT", "{}"));
    assert_eq!(tail["status"].as_str(), Some("ok"), "{tail:?}");

    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let rerouted = stats["gateway"]["reroutes"].as_u64().unwrap_or(0);
    let shed = stats["gateway"]["sheds"].as_u64().unwrap_or(0);
    assert!(
        rerouted + shed > 0,
        "losing a shard left no trace in the gateway counters: {stats:?}"
    );

    topo.shutdown();
}

/// A patch whose parent the home shard has evicted answers
/// `unknown_parent`, and the error's remedy — re-send the problem as a
/// `schedule` — must work through the gateway: the re-send has to reach
/// the shard and re-seed it, even though the gateway's wire cache holds a
/// reply for that exact line.
#[test]
fn resent_parent_reseeds_the_shard_after_unknown_parent() {
    let config = ServeConfig {
        instance_cache_capacity: 2,
        ..shard_config()
    };
    let topo = spawn_topology_with(1, &config);
    let mut client = Client::connect(topo.addr);
    let expect_ok = |reply: &serde_json::Value| {
        assert_eq!(reply["status"].as_str(), Some("ok"), "{reply:?}");
    };

    // Whitespace-free lines are eligible for the gateway's wire cache.
    let compact = |m: usize| schedule_request(m, "HEFT", "{}").replace(' ', "");
    // Schedule A twice: the repeat is a memo hit, which the gateway keeps
    // in its wire cache.
    let a = compact(5);
    let seeded = client.roundtrip(&a);
    expect_ok(&seeded);
    expect_ok(&client.roundtrip(&a));
    let parent = seeded["schedule"]["problem"].as_str().unwrap().to_string();
    // B and C push A out of the shard's two-entry instance cache.
    for m in [6, 7] {
        expect_ok(&client.roundtrip(&compact(m)));
    }

    let patch = format!(
        "{{\"op\":\"patch\",\"parent\":\"{parent}\",\"algorithm\":\"HEFT\",\
         \"deltas\":[{{\"kind\":\"task_weight\",\"task\":0,\"weight\":7.5}}],\"options\":{{}}}}"
    );
    let evicted = client.roundtrip(&patch);
    assert_eq!(evicted["status"].as_str(), Some("error"), "{evicted:?}");
    let message = evicted["message"].as_str().unwrap();
    assert!(message.starts_with("unknown_parent"), "{message}");

    // The remedy the error names: re-send A, then patch again.
    expect_ok(&client.roundtrip(&a));
    expect_ok(&client.roundtrip(&patch));

    topo.shutdown();
}

/// A router over `shards`, driven in process through
/// [`Router::handle_line`].
fn router_over(shards: &LocalShards) -> Router {
    Router::new(GatewayConfig {
        backends: shards.addrs(),
        ..Default::default()
    })
    .unwrap()
}

/// A `schedule_many` line over instances with the given DAG specs.
fn many_request(dags: &[&str]) -> String {
    let system = SYSTEM_JSON.replace('\n', "");
    let instances: Vec<String> = dags
        .iter()
        .map(|dag| format!("{{\"dag\":{dag},\"system\":{system}}}"))
        .collect();
    format!(
        "{{\"op\":\"schedule_many\",\"instances\":[{}],\"algorithm\":\"HEFT\"}}",
        instances.join(",")
    )
}

/// A request a shard refuses before scheduling anything, the gateway
/// refuses at its front door: the two must answer with the same bytes,
/// so a client cannot tell which tier turned it away.
#[test]
fn both_tiers_refuse_bad_requests_with_the_same_bytes() {
    let mut shards = LocalShards::spawn(1, &shard_config()).unwrap();
    let shard = shards.service(0).unwrap();
    let router = router_over(&shards);

    let system = SYSTEM_JSON.replace('\n', "");
    let dag = serde_json::to_string(&dag_json(4)).unwrap();
    let no_tasks = r#"{"tasks":[],"edges":[]}"#;
    let no_procs = r#"{"processors":{"kind":"homogeneous","count":0},"network":{"topology":"fully_connected","bandwidth":1.0}}"#;
    let schedule = |dag: &str, system: &str| {
        format!(r#"{{"op":"schedule","dag":{dag},"system":{system},"algorithm":"HEFT"}}"#)
    };
    let patch = |parent: &str| {
        format!(r#"{{"op":"patch","parent":"{parent}","algorithm":"HEFT","deltas":[]}}"#)
    };
    let grid = [
        r#"{"op":"schedule","dag":"#.to_string(),
        schedule(no_tasks, &system),
        schedule(&dag, no_procs),
        many_request(&[]),
        many_request(&[&dag, no_tasks]),
        patch("0123456789abcde"),
        patch("0123456789abcdef0"),
        patch("zzzzzzzzzzzzzzzz"),
        patch("+123456789abcdef"),
    ];
    for line in &grid {
        let direct = shard.handle_line_bytes(line);
        let routed = router.handle_line(line, Instant::now());
        assert_eq!(std::str::from_utf8(&direct).unwrap(), *routed, "{line}");
        assert!(routed.starts_with(r#"{"status":"error""#), "{routed}");
    }
    shards.shutdown_all();
}

/// A `schedule_many` is an outcome of its own op on either tier, not a
/// `schedule`.
#[test]
fn a_batch_counts_as_schedule_many_on_both_tiers() {
    let mut shards = LocalShards::spawn(1, &shard_config()).unwrap();
    let router = router_over(&shards);
    let lone = Service::start(shard_config());
    let dag = serde_json::to_string(&dag_json(4)).unwrap();
    let line = many_request(&[&dag]);
    let metrics = |reply: &str| -> String {
        let v: serde_json::Value = serde_json::from_str(reply).unwrap();
        v["metrics"].as_str().unwrap().to_string()
    };

    let direct = lone.handle_line_bytes(&line);
    let direct = std::str::from_utf8(&direct).unwrap();
    assert!(direct.starts_with(r#"{"status":"ok""#), "{direct}");
    let routed = router.handle_line(&line, Instant::now());
    assert!(routed.starts_with(r#"{"status":"ok""#), "{routed}");

    let metrics_op = r#"{"op":"metrics"}"#;
    let shard_text = metrics(std::str::from_utf8(&lone.handle_line_bytes(metrics_op)).unwrap());
    let gateway_text = metrics(&router.handle_line(metrics_op, Instant::now()));
    for (text, family) in [
        (shard_text, "hetsched_op_outcomes_total"),
        (gateway_text, "hetsched_gateway_op_outcomes_total"),
    ] {
        for (op, want) in [("schedule_many", 1), ("schedule", 0)] {
            let series = format!("{family}{{op=\"{op}\",status=\"success\"}} {want}\n");
            assert!(text.contains(&series), "no `{}` in\n{text}", series.trim());
        }
    }
    lone.shutdown();
    shards.shutdown_all();
}

/// A line whose bytes are not valid UTF-8 gets a structured `error` in
/// request order; rewriting the bad byte to U+FFFD would have answered
/// this `hello` with `ok`.
#[test]
fn invalid_utf8_line_gets_a_structured_error_in_order() {
    let topo = spawn_topology(1);
    let mut c = Client::connect(topo.addr);
    c.writer
        .write_all(b"{\"op\":\"hello\"}\n{\"op\":\"hello\",\"x\":\"\xff\"}\n{\"op\":\"hello\"}\n")
        .unwrap();
    let mut replies = Vec::new();
    for _ in 0..3 {
        let mut reply = String::new();
        c.reader.read_line(&mut reply).unwrap();
        replies.push(serde_json::from_str::<serde_json::Value>(reply.trim()).unwrap());
    }
    assert_eq!(replies[0]["status"].as_str(), Some("ok"), "{replies:?}");
    assert_eq!(replies[1]["status"].as_str(), Some("error"), "{replies:?}");
    assert_eq!(
        replies[1]["message"].as_str(),
        Some(hetsched_serve::protocol::INVALID_UTF8)
    );
    assert_eq!(replies[2]["status"].as_str(), Some("ok"), "{replies:?}");
    topo.shutdown();
}

/// Every reply line until the gateway closes the connection (the
/// client's 30 s read timeout fails the test instead of hanging it).
fn read_to_eof(reader: &mut BufReader<TcpStream>) -> Vec<serde_json::Value> {
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("replies, then EOF");
    rest.lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad reply `{l}`: {e}")))
        .collect()
}

/// A line well over the cap, with no newline, gets a structured `error`,
/// then EOF. The gateway reads off the rest of the line before it closes,
/// so the client's write completes instead of being reset.
#[test]
fn an_over_long_line_gets_an_error_then_eof() {
    let topo = spawn_topology(1);
    let mut c = Client::connect(topo.addr);
    let line = vec![b'a'; hetsched_serve::transport::MAX_LINE_BYTES + (1 << 20)];
    c.writer.write_all(&line).unwrap();
    let replies = read_to_eof(&mut c.reader);
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(replies[0]["status"].as_str(), Some("error"));
    assert_eq!(
        replies[0]["message"].as_str(),
        Some(hetsched_serve::protocol::LINE_TOO_LONG)
    );
    topo.shutdown();
}

/// A client that sends three lines, the last without its newline, and
/// half-closes its socket still gets three replies, in order.
#[test]
fn a_half_closed_client_gets_every_reply_in_order() {
    let topo = spawn_topology(1);
    let mut c = Client::connect(topo.addr);
    let wire = format!(
        "{}\n{{\"op\":\"hello\"}}\n{{\"op\":\"metrics\"}}",
        schedule_request(4, "HEFT", "{}")
    );
    c.writer.write_all(wire.as_bytes()).unwrap();
    c.writer.shutdown(Shutdown::Write).unwrap();
    let replies = read_to_eof(&mut c.reader);
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(replies[0]["schedule"].as_object().is_some(), "{replies:?}");
    assert!(replies[1]["hello"].as_object().is_some(), "{replies:?}");
    assert!(replies[2]["metrics"].as_str().is_some(), "{replies:?}");
    topo.shutdown();
}

/// The `hello` reply of a `hetsched-serve` shard, as far as the gateway's
/// handshake reads it.
const SHARD_HELLO: &[u8] = b"{\"status\":\"ok\",\"hello\":{\"service\":\"hetsched-serve\"}}\n";

/// A fake shard on an ephemeral port: it passes the `hello` handshake and
/// answers every other line with `reply` (newline included), on every
/// connection the gateway opens. Its threads end with the test process.
fn fake_shard(reply: Vec<u8>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let reply = Arc::new(reply);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let reply = reply.clone();
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    let answer = if line.contains("\"hello\"") {
                        SHARD_HELLO
                    } else {
                        &reply[..]
                    };
                    if writer.write_all(answer).is_err() {
                        return;
                    }
                    line.clear();
                }
            });
        }
    });
    addr
}

/// A gateway over `backends`, its address and its thread.
fn spawn_gateway(
    backends: Vec<String>,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let config = GatewayConfig {
        backends,
        ..Default::default()
    };
    let server = GatewayServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

/// A shard reply that is not valid UTF-8 is a shard error and is never
/// forwarded: rewriting the bad byte to U+FFFD would hand the client an
/// `ok` the shard never sent.
#[test]
fn a_shard_reply_that_is_not_utf8_is_never_forwarded() {
    let shard =
        fake_shard(b"{\"status\":\"ok\",\"schedule\":{\"algorithm\":\"HEFT\xff\"}}\n".to_vec());
    let (addr, gateway) = spawn_gateway(vec![shard]);
    let mut c = Client::connect(addr);
    let reply = c.roundtrip(&schedule_request(4, "HEFT", "{}"));
    assert_eq!(reply["status"].as_str(), Some("error"), "{reply:?}");
    let bye = c.roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(bye["status"].as_str(), Some("shutting_down"), "{bye:?}");
    gateway.join().unwrap().unwrap();
}

/// Shard replies have no line cap: a traced reply can be twice its
/// request. One over `MAX_LINE_BYTES` is forwarded byte for byte, and no
/// shard is marked down for it.
#[test]
fn a_shard_reply_over_the_line_cap_is_forwarded() {
    let pad = "x".repeat(hetsched_serve::transport::MAX_LINE_BYTES);
    let reply = format!("{{\"status\":\"ok\",\"schedule\":{{\"pad\":\"{pad}\"}}}}");
    let shards: Vec<String> = (0..2)
        .map(|_| fake_shard(format!("{reply}\n").into_bytes()))
        .collect();
    let (addr, gateway) = spawn_gateway(shards.clone());
    let mut c = Client::connect(addr);
    let got = c.roundtrip_raw(&schedule_request(4, "HEFT", "{}"));
    assert!(
        got == reply,
        "a {} byte reply came back as {} bytes: {:.200}",
        reply.len(),
        got.len(),
        got
    );
    let metrics = c.roundtrip(r#"{"op":"metrics"}"#);
    let text = metrics["metrics"].as_str().unwrap();
    for shard in &shards {
        for (metric, want) in [
            ("hetsched_gateway_shard_up", 1),
            ("hetsched_gateway_shard_errors_total", 0),
        ] {
            let line = format!("{metric}{{shard=\"{shard}\"}} {want}\n");
            assert!(text.contains(&line), "no `{}` in\n{text}", line.trim());
        }
    }
    let bye = c.roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(bye["status"].as_str(), Some("shutting_down"), "{bye:?}");
    gateway.join().unwrap().unwrap();
}

/// A shard that passes the handshake and then stops reading stalls the
/// gateway's write of a request larger than loopback's socket buffers.
/// The request's deadline bounds that write as it bounds the read: the
/// client gets `timeout` within its deadline plus a second, the shard is
/// not marked down for it, and the gateway still drains on `shutdown`.
#[test]
fn a_shard_that_stops_reading_times_out_at_the_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let shard = listener.local_addr().unwrap().to_string();
    let (release, held) = std::sync::mpsc::channel::<()>();
    let stalled = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut hello = String::new();
        BufReader::new(&stream).read_line(&mut hello).unwrap();
        (&stream).write_all(SHARD_HELLO).unwrap();
        // keep the connection open, and unread, until the test ends
        let _ = held.recv();
    });
    let (addr, gateway) = spawn_gateway(vec![shard.clone()]);

    // A 6 MiB task label: under the client line cap, over the socket
    // buffers between the gateway and the shard.
    let mut dag: DagSpec = serde_json::from_value(dag_json(4)).unwrap();
    dag.tasks[0].label = Some("x".repeat(6 << 20));
    let deadline = Duration::from_millis(STALLED_SHARD_DEADLINE_MS);
    let line = format!(
        "{{\"op\":\"schedule\",\"dag\":{},\"system\":{},\"algorithm\":\"HEFT\",\
         \"options\":{{\"deadline_ms\":{STALLED_SHARD_DEADLINE_MS}}}}}",
        serde_json::to_string(&dag).unwrap(),
        SYSTEM_JSON.replace('\n', ""),
    );
    let mut c = Client::connect(addr);
    c.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let sent = Instant::now();
    let mut reply = String::new();
    c.reader.read_line(&mut reply).unwrap();
    let took = sent.elapsed();
    let reply: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(reply["status"].as_str(), Some("timeout"), "{reply:?}");
    let message = reply["message"].as_str().unwrap();
    assert!(
        !message.contains("retry"),
        "the shard never received the request, yet: {message}"
    );
    assert!(
        took < deadline + Duration::from_secs(1),
        "the timeout came {took:?} after the request was sent"
    );
    let metrics = c.roundtrip(r#"{"op":"metrics"}"#);
    let text = metrics["metrics"].as_str().unwrap();
    let up = format!("hetsched_gateway_shard_up{{shard=\"{shard}\"}} 1\n");
    assert!(text.contains(&up), "no `{}` in\n{text}", up.trim());

    let bye = c.roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(bye["status"].as_str(), Some("shutting_down"), "{bye:?}");
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        gateway.join().unwrap().unwrap();
        done.send(()).unwrap();
    });
    joined
        .recv_timeout(JOIN_BOUND)
        .expect("the gateway drains after a stalled shard write");
    drop(release);
    stalled.join().unwrap();
}

/// A shard that reads the request and never answers times out at the
/// deadline too, but it holds the whole request and may still compute and
/// cache it: that timeout keeps the cached-retry hint.
#[test]
fn a_shard_that_never_answers_times_out_with_a_retry_hint() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let shard = listener.local_addr().unwrap().to_string();
    let (release, held) = std::sync::mpsc::channel::<()>();
    let silent = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        (&stream).write_all(SHARD_HELLO).unwrap();
        // read the request, then never answer it
        reader.read_line(&mut line).unwrap();
        let _ = held.recv();
    });
    let (addr, gateway) = spawn_gateway(vec![shard]);
    let mut c = Client::connect(addr);
    let reply = c.roundtrip(&schedule_request(4, "HEFT", "{\"deadline_ms\":300}"));
    assert_eq!(reply["status"].as_str(), Some("timeout"), "{reply:?}");
    let message = reply["message"].as_str().unwrap();
    assert!(
        message.contains("an identical retry may hit its cache"),
        "{message}"
    );
    let bye = c.roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(bye["status"].as_str(), Some("shutting_down"), "{bye:?}");
    gateway.join().unwrap().unwrap();
    drop(release);
    silent.join().unwrap();
}

/// The deadline of the request [`a_shard_that_stops_reading_times_out_at_the_deadline`]
/// sends.
const STALLED_SHARD_DEADLINE_MS: u64 = 1_000;

/// Pause between the single-byte writes of a slowloris client: a few ms,
/// so a `schedule` line takes about a second to arrive.
const BYTE_GAP: Duration = Duration::from_millis(3);

/// Longest round trip a second client may see while the slowloris
/// trickles: a tier wedged by the trickle would take about a second.
const ROUND_TRIP_BOUND: Duration = Duration::from_millis(500);

/// Longest a tier may take to drain and return after a `shutdown`.
const JOIN_BOUND: Duration = Duration::from_secs(5);

/// Connect to `addr` and write `line` one byte per write, [`BYTE_GAP`]
/// apart, stopping early if the peer closes. `started` fires after the
/// first byte. Returns the stream.
fn trickle(
    addr: std::net::SocketAddr,
    line: String,
    started: std::sync::mpsc::Sender<()>,
) -> std::thread::JoinHandle<TcpStream> {
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        for (i, byte) in line.bytes().enumerate() {
            if stream.write_all(&[byte]).is_err() {
                break;
            }
            if i == 0 {
                started.send(()).unwrap();
            }
            std::thread::sleep(BYTE_GAP);
        }
        stream
    })
}

/// The slowloris guard for the tier at `addr`, whose `run` thread `join`
/// waits for:
/// - a client that sends a `schedule` line one byte per write gets
///   nothing before its newline and exactly its own reply after it;
/// - a second client is answered within [`ROUND_TRIP_BOUND`] throughout;
/// - a `shutdown` sent mid-trickle lets `join` return within
///   [`JOIN_BOUND`].
fn slowloris_guard(addr: std::net::SocketAddr, join: impl FnOnce() + Send + 'static) {
    let line = schedule_request(3, "HEFT", "{}");
    let mut fast = Client::connect(addr);

    let (started, first_byte) = std::sync::mpsc::channel();
    let slow = trickle(addr, line.clone(), started);
    first_byte.recv().unwrap();
    let mut rounds = 0;
    while !slow.is_finished() {
        let sent = Instant::now();
        let hello = fast.roundtrip(r#"{"op":"hello"}"#);
        assert_eq!(hello["status"].as_str(), Some("ok"), "{hello:?}");
        let took = sent.elapsed();
        assert!(took < ROUND_TRIP_BOUND, "round trip {rounds} took {took:?}");
        rounds += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(rounds >= 5, "only {rounds} round trips during the trickle");
    let mut slow = slow.join().unwrap();
    slow.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let early = slow.peek(&mut [0u8]);
    assert!(
        early
            .as_ref()
            .is_err_and(|e| matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
        "the tier answered before the newline: {early:?}"
    );
    slow.write_all(b"\n").unwrap();
    slow.shutdown(Shutdown::Write).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let replies = read_to_eof(&mut BufReader::new(slow));
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(replies[0]["status"].as_str(), Some("ok"), "{replies:?}");
    assert_eq!(
        replies[0]["schedule"]["schedule"],
        direct_schedule(3, "HEFT")
    );

    let (started, first_byte) = std::sync::mpsc::channel();
    let slow = trickle(addr, line, started);
    first_byte.recv().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert!(!slow.is_finished(), "the trickle ended before the shutdown");
    let bye = fast.roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(bye["status"].as_str(), Some("shutting_down"), "{bye:?}");
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        join();
        done.send(()).unwrap();
    });
    joined
        .recv_timeout(JOIN_BOUND)
        .expect("the tier drains while a client trickles");
    slow.join().unwrap();
}

/// [`slowloris_guard`] against a shard on its own.
#[test]
fn a_byte_at_a_time_client_wedges_neither_a_shard_nor_its_shutdown() {
    let server = TcpServer::bind("127.0.0.1:0", shard_config()).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = std::thread::spawn(move || server.run());
    slowloris_guard(addr, move || daemon.join().unwrap().unwrap());
}

/// [`slowloris_guard`] against the gateway front door, one shard behind.
#[test]
fn a_byte_at_a_time_client_wedges_neither_the_gateway_nor_its_shutdown() {
    let Topology {
        shards,
        gateway,
        addr,
    } = spawn_topology(1);
    slowloris_guard(addr, move || gateway.join().unwrap().unwrap());
    drop(shards);
}
