//! Chrome-trace-format exporter.
//!
//! Renders a [`Trace`] as a JSON document in the Trace Event Format that
//! `chrome://tracing` and Perfetto load directly:
//!
//! * **pid 0 — "schedule"**: one thread lane per processor (named
//!   `proc 0`, `proc 1`, ...), with one complete (`"ph":"X"`) event per
//!   committed slot, placed at the slot's start/duration. Times are
//!   exported in microseconds (the format's unit), i.e. schedule seconds
//!   × 1e6.
//! * **pid 1 — "profile"**: one lane carrying the wall-clock
//!   [`crate::PhaseSpan`]s of the capture (rank vs EFT loop etc.), plus a global
//!   instant event holding the engine [`crate::Counters`] in its `args`.
//!
//! The slot lanes are derived exclusively from the synthesized
//! [`Event::Placed`] records, so [`lanes`] — the exact busy intervals the
//! exporter draws — can be cross-checked against renderers that read the
//! schedule directly (the Gantt SVG renderer does exactly that in its
//! tests).

use serde::Serialize;
use serde_json::Value;

use crate::{Counters, Event, Trace};

/// Per-processor busy intervals exactly as the Chrome-trace exporter
/// renders them: `lanes(trace, n)[p]` lists the `(start, finish)` pairs
/// (schedule seconds, sorted by start) of every slot placed on processor
/// `p`. Processors beyond `n_procs - 1` appearing in the trace are
/// ignored; empty processors yield empty lanes.
pub fn lanes(trace: &Trace, n_procs: usize) -> Vec<Vec<(f64, f64)>> {
    let mut out = vec![Vec::new(); n_procs];
    for e in &trace.events {
        if let Event::Placed {
            proc,
            start,
            finish,
            ..
        } = *e
        {
            if let Some(lane) = out.get_mut(proc as usize) {
                lane.push((start, finish));
            }
        }
    }
    for lane in &mut out {
        lane.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    }
    out
}

/// A complete (`"ph":"X"`) event: a span on lane (`pid`, `tid`), times in
/// microseconds.
#[derive(Debug, Serialize)]
pub struct Complete {
    /// Span name.
    pub name: String,
    /// Category.
    pub cat: &'static str,
    ph: &'static str,
    /// Process: the lane group.
    pub pid: u32,
    /// Thread: the lane.
    pub tid: u32,
    /// Start.
    pub ts: f64,
    /// Duration.
    pub dur: f64,
    /// Arguments; omitted when `null`.
    #[serde(skip_serializing_if = "Value::is_null")]
    pub args: Value,
}

impl Complete {
    /// A span on lane `(pid, tid)` starting at `ts` and lasting `dur`,
    /// without arguments.
    pub fn new(
        name: String,
        cat: &'static str,
        (pid, tid): (u32, u32),
        (ts, dur): (f64, f64),
    ) -> Complete {
        Complete {
            name,
            cat,
            ph: "X",
            pid,
            tid,
            ts,
            dur,
            args: Value::Null,
        }
    }

    /// The same span carrying `args`.
    pub fn with_args(mut self, args: impl Serialize) -> Complete {
        self.args = serde_json::to_value(args).expect("trace args serialize infallibly");
        self
    }
}

#[derive(Serialize)]
struct NameArgs {
    name: String,
}

#[derive(Serialize)]
struct MetaEvent {
    name: String,
    ph: String,
    pid: u32,
    tid: u32,
    args: NameArgs,
}

/// The one Chrome-trace writer: assembles a Trace Event Format document
/// (object form, `{"traceEvents": [...]}`) for [`to_chrome_trace`] and for
/// the fleet span merger of `hetsched-serve`.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// Append a metadata (`"ph":"M"`) event: `kind` is `process_name`
    /// or `thread_name`, naming lane group `pid` or lane (`pid`, `tid`).
    pub fn meta(&mut self, kind: &str, pid: u32, tid: u32, name: String) {
        self.push(&MetaEvent {
            name: kind.to_string(),
            ph: "M".to_string(),
            pid,
            tid,
            args: NameArgs { name },
        });
    }

    /// Append one event.
    pub fn push(&mut self, event: &impl Serialize) {
        let json = serde_json::to_string(event).expect("trace events serialize infallibly");
        self.events.push(json);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        format!("{{\"traceEvents\":[{}]}}", self.events.join(","))
    }
}

#[derive(Serialize)]
struct SlotArgs {
    task: u32,
    step: u64,
    duplicate: bool,
}

#[derive(Serialize)]
struct CountersEvent {
    name: String,
    ph: String,
    s: String,
    pid: u32,
    tid: u32,
    ts: f64,
    args: Counters,
}

/// Serialize `trace` as a Chrome-trace JSON document (object form,
/// `{"traceEvents": [...]}`) with one lane per processor.
///
/// `n_procs` fixes the lane count so idle processors still get a named
/// lane — the schedule visualisation then always shows the full machine.
pub fn to_chrome_trace(trace: &Trace, n_procs: usize) -> String {
    let mut doc = ChromeTrace::default();
    doc.meta("process_name", 0, 0, "schedule".to_string());
    for p in 0..n_procs {
        doc.meta("thread_name", 0, p as u32, format!("proc {p}"));
    }
    for e in &trace.events {
        if let Event::Placed {
            step,
            task,
            proc,
            start,
            finish,
            duplicate,
        } = *e
        {
            let mark = if duplicate { "*" } else { "" };
            let (ts, dur) = (start * 1e6, (finish - start) * 1e6);
            let slot = Complete::new(format!("t{task}{mark}"), "slot", (0, proc), (ts, dur));
            doc.push(&slot.with_args(SlotArgs {
                task,
                step,
                duplicate,
            }));
        }
    }

    doc.meta("process_name", 1, 0, "profile".to_string());
    doc.meta("thread_name", 1, 0, "phases".to_string());
    for ph in &trace.phases {
        let (ts, dur) = (ph.start_ns as f64 / 1e3, ph.dur_ns as f64 / 1e3);
        doc.push(&Complete::new(ph.name.clone(), "phase", (1, 0), (ts, dur)));
    }
    doc.push(&CountersEvent {
        name: "engine_counters".to_string(),
        ph: "i".to_string(),
        s: "g".to_string(),
        pid: 1,
        tid: 0,
        ts: 0.0,
        args: trace.counters,
    });
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.events.push(Event::Placed {
            step: 0,
            task: 0,
            proc: 0,
            start: 0.0,
            finish: 2.0,
            duplicate: false,
        });
        t.events.push(Event::Placed {
            step: 1,
            task: 1,
            proc: 1,
            start: 2.5,
            finish: 3.5,
            duplicate: true,
        });
        t.counters.timeline_inserts = 2;
        t.phases.push(crate::PhaseSpan {
            name: "rank".to_string(),
            start_ns: 1000,
            dur_ns: 500,
        });
        t
    }

    #[test]
    fn lanes_group_and_sort_placements() {
        let mut t = sample_trace();
        t.events.push(Event::Placed {
            step: 2,
            task: 2,
            proc: 0,
            start: 3.0,
            finish: 4.0,
            duplicate: false,
        });
        // out-of-order arrival on proc 0
        t.events.swap(0, 2);
        let l = lanes(&t, 3);
        assert_eq!(l.len(), 3);
        assert_eq!(l[0], vec![(0.0, 2.0), (3.0, 4.0)]);
        assert_eq!(l[1], vec![(2.5, 3.5)]);
        assert!(l[2].is_empty());
    }

    #[test]
    fn chrome_trace_has_one_named_lane_per_processor() {
        let doc = to_chrome_trace(&sample_trace(), 3);
        assert!(doc.starts_with("{\"traceEvents\":["));
        for p in 0..3 {
            assert!(doc.contains(&format!("\"name\":\"proc {p}\"")), "{doc}");
        }
        // slot events land on the right lanes with µs timestamps
        assert!(doc.contains("\"name\":\"t0\""), "{doc}");
        assert!(doc.contains("\"name\":\"t1*\""), "{doc}");
        assert!(doc.contains("\"ts\":2500000.0"), "{doc}");
        // profile pid carries phases and counters
        assert!(doc.contains("\"name\":\"rank\""), "{doc}");
        assert!(doc.contains("\"engine_counters\""), "{doc}");
        assert!(doc.contains("\"timeline_inserts\":2"), "{doc}");
    }

    #[test]
    fn chrome_trace_parses_as_json() {
        let doc = to_chrome_trace(&sample_trace(), 2);
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        let events = v
            .get("traceEvents")
            .and_then(serde_json::Value::as_array)
            .expect("traceEvents array");
        assert!(events.len() >= 5);
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(serde_json::Value::as_str).is_some()));
    }
}
