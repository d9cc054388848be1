//! End-to-end tests for the raw-byte wire path.
//!
//! The standing contract under test: a hit in the gateway's wire cache,
//! the fleet's only one, answers with bytes **identical** to what the
//! full parse → route → shard memo path would have produced, for every
//! data op, and any scanner uncertainty (permuted keys, whitespace,
//! escapes) degrades to a clean slow-path answer, never a wrong one. A
//! shard keeps no wire cache: a repeat sent to it directly is a memo hit,
//! byte-identical to the one before it.

use std::sync::OnceLock;
use std::time::Instant;

use proptest::prelude::*;

use hetsched_gateway::metrics::read;
use hetsched_gateway::{GatewayConfig, GatewayServer, LocalShards, Router};
use hetsched_serve::{ServeConfig, Service};

fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 16,
        instance_cache_capacity: 16,
        default_deadline_ms: 10_000,
    }
}

/// Compact (scanner-eligible) dag/system JSON for a small fork DAG.
fn dag_json(n_tasks: usize) -> String {
    let tasks: Vec<String> = (0..n_tasks)
        .map(|i| format!("{{\"weight\":{}}}", i + 1))
        .collect();
    let edges: Vec<String> = (1..n_tasks)
        .map(|i| format!("{{\"src\":0,\"dst\":{i},\"data\":2.0}}"))
        .collect();
    format!(
        "{{\"tasks\":[{}],\"edges\":[{}]}}",
        tasks.join(","),
        edges.join(",")
    )
}

const SYSTEM_JSON: &str = "{\"processors\":{\"kind\":\"homogeneous\",\"count\":3},\
     \"network\":{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}";

fn schedule_request(n_tasks: usize, algorithm: &str, options: &str) -> String {
    format!(
        "{{\"op\":\"schedule\",\"dag\":{},\"system\":{SYSTEM_JSON},\
         \"algorithm\":\"{algorithm}\",\"options\":{options}}}",
        dag_json(n_tasks)
    )
}

fn portfolio_request(n_tasks: usize, options: &str) -> String {
    format!(
        "{{\"op\":\"portfolio\",\"dag\":{},\"system\":{SYSTEM_JSON},\
         \"algorithms\":[\"HEFT\",\"CPOP\"],\"options\":{options}}}",
        dag_json(n_tasks)
    )
}

fn many_request(sizes: &[usize], options: &str) -> String {
    let instances: Vec<String> = sizes
        .iter()
        .map(|&n| format!("{{\"dag\":{},\"system\":{SYSTEM_JSON}}}", dag_json(n)))
        .collect();
    format!(
        "{{\"op\":\"schedule_many\",\"instances\":[{}],\
         \"algorithm\":\"HEFT\",\"options\":{options}}}",
        instances.join(",")
    )
}

fn patch_request(parent: &str, deltas: &str, options: &str) -> String {
    format!(
        "{{\"op\":\"patch\",\"parent\":\"{parent}\",\"algorithm\":\"HEFT\",\
         \"deltas\":{deltas},\"options\":{options}}}"
    )
}

fn parse_bytes(bytes: &[u8]) -> serde_json::Value {
    let text = std::str::from_utf8(bytes).expect("replies are UTF-8");
    serde_json::from_str(text).unwrap_or_else(|e| panic!("bad reply `{text}`: {e}"))
}

fn svc_stats(svc: &Service) -> serde_json::Value {
    parse_bytes(&svc.handle_line_bytes("{\"op\":\"stats\"}"))
}

fn stat(stats: &serde_json::Value, key: &str) -> u64 {
    stats["stats"][key].as_u64().unwrap()
}

/// Three repeats of the same line on a shard: a cold compute, then two
/// memo hits, the last of which computes nothing. Returns the two memo
/// hits' bytes.
fn repeat_triple(svc: &Service, line: &str) -> (Vec<u8>, Vec<u8>) {
    let r1 = svc.handle_line_bytes(line);
    assert!(
        r1.starts_with(b"{\"status\":\"ok\""),
        "cold reply not ok: {}",
        String::from_utf8_lossy(&r1)
    );
    let r2 = svc.handle_line_bytes(line);
    let before = svc_stats(svc);
    let r3 = svc.handle_line_bytes(line);
    let after = svc_stats(svc);
    assert_eq!(stat(&after, "computed"), stat(&before, "computed"));
    assert!(stat(&after, "cache_hits") > stat(&before, "cache_hits"));
    (r2.to_vec(), r3.to_vec())
}

/// Every data op's repeat on a shard is a memo hit, byte-identical to the
/// memo hit before it, and the shard's wire counters stay 0.
#[test]
fn serve_repeats_are_byte_identical_memo_hits_for_every_op() {
    let svc = Service::start(test_config());

    let schedule = schedule_request(8, "HEFT", "{\"deadline_ms\":10000}");
    let portfolio = portfolio_request(6, "{}");
    let many = many_request(&[4, 5, 6], "{}");

    for line in [&schedule, &portfolio, &many] {
        let (memo, repeat) = repeat_triple(&svc, line);
        assert_eq!(
            memo,
            repeat,
            "a repeat must be byte-identical to the memo hit before it for {}",
            &line[..40.min(line.len())]
        );
    }

    // Patch: seed the parent, then repeat the patch line.
    let seeded = parse_bytes(&svc.handle_line_bytes(&schedule));
    let parent = seeded["schedule"]["problem"]
        .as_str()
        .expect("problem fingerprint");
    let patch = patch_request(
        parent,
        "[{\"kind\":\"task_weight\",\"task\":1,\"weight\":9.5}]",
        "{}",
    );
    let (memo, repeat) = repeat_triple(&svc, &patch);
    assert_eq!(memo, repeat, "a patch repeat must match its memo hit");

    let stats = svc_stats(&svc);
    for key in ["wire_hits", "wire_misses", "wire_fallbacks"] {
        assert_eq!(stat(&stats, key), 0, "a shard has no wire cache: {key}");
    }
    svc.shutdown();
}

/// Once memo churn evicts a repeat's entry, the repeat recomputes: no
/// other shard layer answers it with the evicted entry's bytes.
#[test]
fn serve_repeat_after_a_memo_eviction_recomputes() {
    let svc = Service::start(ServeConfig {
        cache_capacity: 2,
        instance_cache_capacity: 2,
        ..test_config()
    });
    let hot = schedule_request(8, "HEFT", "{}");
    let (memo, _) = repeat_triple(&svc, &hot);

    // Churn the 2-entry memo cache until `hot` is gone.
    for n in 10..16 {
        let _ = svc.handle_line_bytes(&schedule_request(n, "HEFT", "{}"));
    }
    let computed = stat(&svc_stats(&svc), "computed");
    let again = svc.handle_line_bytes(&hot);
    assert_eq!(stat(&svc_stats(&svc), "computed"), computed + 1);
    // The recomputed reply carries the same placement (only the `cached`
    // flag differs: the memo entry was evicted, so this was a recompute).
    let v = parse_bytes(&again);
    let w = parse_bytes(&memo);
    assert_eq!(v["schedule"]["cached"], serde_json::Value::Bool(false));
    assert_eq!(
        v["schedule"]["schedule"], w["schedule"]["schedule"],
        "same problem, same placement"
    );
    svc.shutdown();
}

/// The gateway tier honors the same contract over real TCP: the third
/// identical request is answered from the gateway's wire cache with the
/// exact bytes of the second (shard memo hit) reply — and a repeat whose
/// deadline has already expired is shed, never served from the cache.
#[test]
fn gateway_wire_hits_are_byte_identical_and_respect_deadlines() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    let shards = LocalShards::spawn(2, &test_config()).unwrap();
    let config = GatewayConfig {
        backends: shards.addrs(),
        ..Default::default()
    };
    let server = GatewayServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let gateway = std::thread::spawn(move || server.run());

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "connection closed without a reply");
        reply.trim().to_string()
    };

    let lines = [
        schedule_request(8, "HEFT", "{\"deadline_ms\":10000}"),
        portfolio_request(6, "{}"),
        many_request(&[4, 5], "{}"),
    ];
    for line in &lines {
        let r1 = roundtrip(line);
        let r2 = roundtrip(line);
        let r3 = roundtrip(line);
        assert!(r1.starts_with("{\"status\":\"ok\""), "{r1}");
        assert_eq!(r2, r3, "gateway wire hit must be byte-identical");
    }

    // Patch through the gateway.
    let seeded: serde_json::Value = serde_json::from_str(&roundtrip(&lines[0])).unwrap();
    let parent = seeded["schedule"]["problem"].as_str().unwrap().to_string();
    let patch = patch_request(
        &parent,
        "[{\"kind\":\"task_weight\",\"task\":1,\"weight\":9.5}]",
        "{}",
    );
    let p1 = roundtrip(&patch);
    let p2 = roundtrip(&patch);
    let p3 = roundtrip(&patch);
    assert!(p1.starts_with("{\"status\":\"ok\""), "{p1}");
    assert_eq!(p2, p3, "patch wire hit must be byte-identical");

    // A warmed digest with an expired deadline is shed, not wire-served:
    // the fast path must never beat admission control.
    let expired = schedule_request(8, "HEFT", "{\"deadline_ms\":0}");
    let shed: serde_json::Value = serde_json::from_str(&roundtrip(&expired)).unwrap();
    assert_eq!(shed["status"].as_str(), Some("shed"), "{shed:?}");

    let stats: serde_json::Value = serde_json::from_str(&roundtrip("{\"op\":\"stats\"}")).unwrap();
    let g = &stats["gateway"];
    assert!(
        g["wire_hits"].as_u64().unwrap() >= 4,
        "one gateway wire hit per op: {g:?}"
    );
    assert!(g["wire_misses"].as_u64().unwrap() >= 4, "{g:?}");

    let bye = roundtrip("{\"op\":\"shutdown\"}");
    assert!(bye.starts_with("{\"status\":\"shutting_down\""), "{bye}");
    gateway.join().unwrap().unwrap();
    let mut shards = shards;
    shards.shutdown_all();
}

/// A gateway over two shards, in-process, with [`base_line`]'s reply in
/// its wire cache: the request computes, its repeat is a shard memo hit
/// that the gateway stores, and a third is a gateway wire hit. Returns
/// the shards (to keep them up), the router and the stored reply.
fn warmed_gateway() -> (LocalShards, Router, String) {
    let shards = LocalShards::spawn(2, &test_config()).unwrap();
    let router = Router::new(GatewayConfig {
        backends: shards.addrs(),
        ..Default::default()
    })
    .unwrap();
    let base = base_line(60_000, 2);
    let _ = router.handle_line(&base, Instant::now());
    let memo = router.handle_line(&base, Instant::now()).to_string();
    let hits = read(&router.metrics().wire_hits);
    assert_eq!(*router.handle_line(&base, Instant::now()), memo);
    assert_eq!(read(&router.metrics().wire_hits), hits + 1, "not warmed");
    (shards, router, memo)
}

/// Shared gateway for the randomized property: one warmed router, many
/// adversarial request variants against it.
fn prop_gateway() -> &'static (LocalShards, Router, String) {
    static GATEWAY: OnceLock<(LocalShards, Router, String)> = OnceLock::new();
    GATEWAY.get_or_init(warmed_gateway)
}

fn base_line(deadline_ms: u64, jobs: usize) -> String {
    // Built from the same segments `variant_line` permutes, in the
    // canonical order.
    variant_line(deadline_ms, jobs, &[0, 1, 2, 3, 4], 0)
}

/// A schedule request assembled from shuffled top-level segments with
/// optional whitespace injected after segment commas. Segment order and
/// whitespace never change the *parsed* request, so every variant must
/// get the same reply bytes.
fn variant_line(deadline_ms: u64, jobs: usize, order: &[usize], whitespace: usize) -> String {
    let segments = [
        "\"op\":\"schedule\"".to_string(),
        format!("\"dag\":{}", dag_json(7)),
        format!("\"system\":{SYSTEM_JSON}"),
        "\"algorithm\":\"HEFT\"".to_string(),
        format!("\"options\":{{\"deadline_ms\":{deadline_ms},\"jobs\":{jobs}}}"),
    ];
    let sep = format!(",{}", " ".repeat(whitespace));
    let body: Vec<String> = order.iter().map(|&i| segments[i].clone()).collect();
    format!("{{{}}}", body.join(&sep))
}

/// Fisher–Yates driven by a tiny splitmix-style stream, so the shuffle
/// needs nothing beyond the seed (the vendored rand has no `seq`).
fn shuffled_order(seed: u64) -> [usize; 5] {
    let mut order = [0usize, 1, 2, 3, 4];
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = || {
        state = state.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1);
        state >> 33
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Volatile-field mutations, key permutations, and whitespace all
    /// resolve to the same reply bytes at the gateway: a byte-identical
    /// wire hit when the digest matches, a clean slow-path shard memo hit
    /// when it cannot — never a wrong answer.
    #[test]
    fn randomized_variants_never_get_a_wrong_reply(
        deadline_ms in 1_000u64..120_000,
        jobs in 1usize..8,
        shuffle_seed in 0u64..1_000_000,
        whitespace in 0usize..3,
    ) {
        let (_, router, memo) = prop_gateway();
        let order = shuffled_order(shuffle_seed);
        let line = variant_line(deadline_ms, jobs, &order, whitespace);

        let hits_before = read(&router.metrics().wire_hits);
        let reply = router.handle_line(&line, Instant::now());
        let hits_after = read(&router.metrics().wire_hits);

        prop_assert_eq!(
            reply.as_str(),
            memo.as_str(),
            "variant reply diverged from the canonical memo-hit bytes"
        );
        if whitespace > 0 {
            prop_assert_eq!(
                hits_before, hits_after,
                "whitespace must force a scanner fallback, not a hit"
            );
        }
    }
}

/// A variant that changes the *problem* (not just volatile fields) must
/// never collide with the warmed digest at the gateway.
#[test]
fn mutated_problem_bytes_never_hit_the_warmed_entry() {
    let (_shards, router, memo) = warmed_gateway();
    let line = base_line(60_000, 2).replace("\"weight\":1}", "\"weight\":42}");
    let hits = read(&router.metrics().wire_hits);
    let r1 = router.handle_line(&line, Instant::now());
    assert!(r1.starts_with("{\"status\":\"ok\""), "{r1}");
    assert_eq!(
        read(&router.metrics().wire_hits),
        hits,
        "a wire hit answered"
    );
    assert_ne!(
        r1.as_str(),
        memo.as_str(),
        "a different problem must get a different reply"
    );
}
