//! Bounded in-memory span journal and the fleet-wide timeline merger.
//!
//! Each tier (the gateway and every shard daemon) owns a [`Journal`]: a
//! bounded ring of [`SpanRecord`]s pushed for requests that carry
//! `options.trace_ctx`. The `journal` op drains it; nothing is written
//! for untraced requests, so the journal costs nothing on the default
//! path. [`merge_chrome_trace`] then folds the drained journals of a
//! gateway plus its shards into one Chrome-trace JSON document
//! (`chrome://tracing` / Perfetto): one lane for the gateway, a service
//! and a worker lane per shard, engine phases nested inside the worker's
//! compute span.
//!
//! Span timestamps are per-tier monotonic offsets (µs since that tier
//! received the request), so no cross-process clock sync is assumed. The
//! merger aligns tiers structurally: a shard's root `request` span is
//! nested strictly inside the gateway's `backend` span for the same
//! trace id (and compressed proportionally in the rare case the shard
//! reports more time than the gateway observed around it).

use std::collections::VecDeque;
use std::sync::Mutex;

use hetsched_trace::chrome::{ChromeTrace, Complete};
use serde::Serialize;

use crate::protocol::SpanRecord;

/// Spans kept per tier before the oldest are dropped. Roughly 500 traced
/// requests at the ~8 spans a schedule request records.
pub const JOURNAL_CAPACITY: usize = 4096;

/// Bounded ring of completed spans, drained by the `journal` op.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    spans: Mutex<VecDeque<SpanRecord>>,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new(JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// A journal bounded to `capacity` spans (oldest dropped first).
    pub fn new(capacity: usize) -> Self {
        Journal {
            capacity: capacity.max(1),
            spans: Mutex::new(VecDeque::new()),
        }
    }

    /// Append one span, evicting the oldest if the journal is full.
    pub fn push(&self, span: SpanRecord) {
        let mut q = self.spans.lock().unwrap();
        if q.len() >= self.capacity {
            q.pop_front();
        }
        q.push_back(span);
    }

    /// Append several spans in order.
    pub fn extend(&self, spans: impl IntoIterator<Item = SpanRecord>) {
        for s in spans {
            self.push(s);
        }
    }

    /// Take every recorded span, leaving the journal empty.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().drain(..).collect()
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Whether the journal holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Serialize)]
struct SpanArgs {
    trace_id: String,
    #[serde(skip_serializing_if = "String::is_empty")]
    detail: String,
}

/// Which lane a shard-side span renders on: service bookkeeping (tid 0)
/// or the worker path (queue wait, compute, nested engine phases; tid 1).
fn shard_tid(name: &str) -> u32 {
    if name == "queue" || name == "compute" || name.starts_with("engine:") {
        1
    } else {
        0
    }
}

/// Merge the drained journals of a gateway and its shards into one
/// Chrome-trace JSON document.
///
/// `gateway` is the gateway's journal (may be empty when the client
/// talked to a shard directly); `shards` pairs each shard's label (its
/// address, as the gateway routes to it) with that shard's drained
/// journal. Traces are laid out left to right in the order their spans
/// were recorded, separated by a gap; within a trace, shard spans nest
/// strictly inside the gateway `backend` span whose detail names the
/// shard.
pub fn merge_chrome_trace(gateway: &[SpanRecord], shards: &[(String, Vec<SpanRecord>)]) -> String {
    // Trace ids in first-recorded order: gateway first, then shard-only.
    let mut order: Vec<&str> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for s in gateway.iter() {
        if seen.insert(s.trace_id.as_str()) {
            order.push(&s.trace_id);
        }
    }
    for (_, spans) in shards {
        for s in spans {
            if seen.insert(s.trace_id.as_str()) {
                order.push(&s.trace_id);
            }
        }
    }

    let mut doc = ChromeTrace::default();
    doc.meta("process_name", 0, 0, "gateway".to_string());
    doc.meta("thread_name", 0, 0, "requests".to_string());
    for (i, (label, _)) in shards.iter().enumerate() {
        let pid = 1 + i as u32;
        doc.meta("process_name", pid, 0, format!("shard {label}"));
        doc.meta("thread_name", pid, 0, "service".to_string());
        doc.meta("thread_name", pid, 1, "worker".to_string());
    }
    let args = |trace_id: &str, s: &SpanRecord| SpanArgs {
        trace_id: trace_id.to_string(),
        detail: s.detail.clone(),
    };

    const TRACE_GAP_US: u64 = 1_000;
    let mut spans: Vec<Complete> = Vec::new();
    let mut cursor: u64 = 0;
    for trace_id in order {
        let gw: Vec<&SpanRecord> = gateway.iter().filter(|s| s.trace_id == trace_id).collect();
        let base = cursor;
        let mut trace_end = base;
        for s in &gw {
            let ts = base + s.start_us;
            trace_end = trace_end.max(ts + s.dur_us);
            let times = (ts as f64, s.dur_us.max(1) as f64);
            let span = Complete::new(s.name.clone(), "gateway", (0, 0), times);
            spans.push(span.with_args(args(trace_id, s)));
        }
        for (i, (label, shard_spans)) in shards.iter().enumerate() {
            let mine: Vec<&SpanRecord> = shard_spans
                .iter()
                .filter(|s| s.trace_id == trace_id)
                .collect();
            if mine.is_empty() {
                continue;
            }
            // Anchor inside the gateway backend span that names this
            // shard (fall back to any backend span, then to the trace
            // base for gateway-less traces).
            let anchor = gw
                .iter()
                .find(|s| s.name == "backend" && s.detail.contains(label.as_str()))
                .or_else(|| gw.iter().find(|s| s.name == "backend"))
                .copied();
            let root_dur = mine
                .iter()
                .find(|s| s.name == "request")
                .map_or_else(
                    || {
                        mine.iter()
                            .map(|s| s.start_us + s.dur_us)
                            .max()
                            .unwrap_or(1)
                    },
                    |s| s.dur_us,
                )
                .max(1);
            let (shard_base, scale) = match anchor {
                Some(b) => {
                    // Nest strictly: start 1µs into the backend span and
                    // compress if the shard reports more time than the
                    // gateway observed around its round trip.
                    let room = b.dur_us.saturating_sub(2).max(1);
                    let scale = if root_dur > room {
                        room as f64 / root_dur as f64
                    } else {
                        1.0
                    };
                    (base + b.start_us + 1, scale)
                }
                None => (base, 1.0),
            };
            for s in &mine {
                let ts = shard_base + (s.start_us as f64 * scale) as u64;
                let dur = ((s.dur_us as f64 * scale) as u64).max(1);
                trace_end = trace_end.max(ts + dur);
                let lane = (1 + i as u32, shard_tid(&s.name));
                let span = Complete::new(s.name.clone(), "shard", lane, (ts as f64, dur as f64));
                spans.push(span.with_args(args(trace_id, s)));
            }
        }
        cursor = trace_end + TRACE_GAP_US;
    }

    spans.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(b.dur.total_cmp(&a.dur)));
    for span in &spans {
        doc.push(span);
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: &str, name: &str, start_us: u64, dur_us: u64, detail: &str) -> SpanRecord {
        SpanRecord {
            trace_id: trace_id.into(),
            name: name.into(),
            start_us,
            dur_us,
            detail: detail.into(),
        }
    }

    #[test]
    fn journal_is_bounded_and_drains_in_order() {
        let j = Journal::new(3);
        for i in 0..5u64 {
            j.push(span("t", "request", i, 1, ""));
        }
        assert_eq!(j.len(), 3);
        let drained = j.drain();
        assert_eq!(
            drained.iter().map(|s| s.start_us).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest spans evicted first"
        );
        assert!(j.is_empty());
    }

    #[test]
    fn merge_nests_shard_inside_gateway_backend_span() {
        let gw = vec![
            span("aa", "request", 0, 1000, ""),
            span("aa", "admission", 0, 50, ""),
            span("aa", "backend", 100, 800, "127.0.0.1:9001"),
        ];
        let shard = vec![
            span("aa", "request", 0, 600, ""),
            span("aa", "queue", 10, 40, ""),
            span("aa", "compute", 50, 500, ""),
            span("aa", "engine:rank", 60, 100, ""),
        ];
        let doc = merge_chrome_trace(&gw, &[("127.0.0.1:9001".to_string(), shard)]);
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        let find = |pid: u64, name: &str| -> (f64, f64) {
            let e = events
                .iter()
                .find(|e| {
                    e["ph"].as_str() == Some("X")
                        && e["pid"].as_u64() == Some(pid)
                        && e["name"].as_str() == Some(name)
                })
                .unwrap_or_else(|| panic!("missing {name} on pid {pid}"));
            (e["ts"].as_f64().unwrap(), e["dur"].as_f64().unwrap())
        };
        let (gw_ts, gw_dur) = find(0, "request");
        let (be_ts, be_dur) = find(0, "backend");
        let (sh_ts, sh_dur) = find(1, "request");
        let (cp_ts, cp_dur) = find(1, "compute");
        let (en_ts, en_dur) = find(1, "engine:rank");
        // strict containment down the tree
        assert!(gw_ts <= be_ts && be_ts + be_dur <= gw_ts + gw_dur);
        assert!(be_ts < sh_ts && sh_ts + sh_dur < be_ts + be_dur);
        assert!(sh_ts <= cp_ts && cp_ts + cp_dur <= sh_ts + sh_dur);
        assert!(cp_ts <= en_ts && en_ts + en_dur <= cp_ts + cp_dur);
        // worker-path spans render on the worker lane
        let compute = events
            .iter()
            .find(|e| e["name"].as_str() == Some("compute"))
            .unwrap();
        assert_eq!(compute["tid"].as_u64(), Some(1));
        // lanes are named
        assert!(doc.contains("\"gateway\""), "{doc}");
        assert!(doc.contains("shard 127.0.0.1:9001"), "{doc}");
    }

    #[test]
    fn merge_compresses_shard_spans_wider_than_the_backend_window() {
        let gw = vec![
            span("bb", "request", 0, 500, ""),
            span("bb", "backend", 100, 200, "s1"),
        ];
        // shard claims 600µs inside a 200µs backend window (clock skew)
        let shard = vec![
            span("bb", "request", 0, 600, ""),
            span("bb", "compute", 0, 600, ""),
        ];
        let doc = merge_chrome_trace(&gw, &[("s1".to_string(), shard)]);
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        let be = events
            .iter()
            .find(|e| e["name"].as_str() == Some("backend"))
            .unwrap();
        let sh = events
            .iter()
            .find(|e| e["pid"].as_u64() == Some(1) && e["name"].as_str() == Some("request"))
            .unwrap();
        let (be_ts, be_dur) = (be["ts"].as_f64().unwrap(), be["dur"].as_f64().unwrap());
        let (sh_ts, sh_dur) = (sh["ts"].as_f64().unwrap(), sh["dur"].as_f64().unwrap());
        assert!(
            be_ts < sh_ts && sh_ts + sh_dur < be_ts + be_dur,
            "compressed to fit"
        );
    }

    #[test]
    fn merge_lays_multiple_traces_out_sequentially() {
        let gw = vec![
            span("t1", "request", 0, 100, ""),
            span("t2", "request", 0, 100, ""),
        ];
        let doc = merge_chrome_trace(&gw, &[]);
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        let ts: Vec<f64> = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .map(|e| e["ts"].as_f64().unwrap())
            .collect();
        assert_eq!(ts.len(), 2);
        assert!(ts[1] >= ts[0] + 100.0, "traces do not overlap: {ts:?}");
    }

    #[test]
    fn shard_only_traces_merge_without_a_gateway() {
        let shard = vec![
            span("cc", "request", 0, 300, ""),
            span("cc", "compute", 10, 200, ""),
        ];
        let doc = merge_chrome_trace(&[], &[("s1".to_string(), shard)]);
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        let xs = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .count();
        assert_eq!(xs, 2);
    }
}
