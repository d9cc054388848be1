//! `fleet-unique` and `fleet-repeat`: request traffic through the
//! gateway to two shards.
//!
//! Both workloads share one shape. Set-up spawns the fleet, says `hello`
//! on both client connections and warms it. Then an open loop sends
//! seeded exponential arrivals at one fixed rate below the knee, timing
//! every request from its due time, and a closed loop with a fixed
//! in-flight window per connection measures throughput. The measured time
//! is cut into [`ROUNDS`] rounds, each running every phase for its share,
//! so each phase samples the whole run.
//!
//! - `fleet-unique`: every request is an ILS-H `schedule` of a distinct
//!   200-task problem with an explicit ETC matrix, so every cache misses.
//!   Its patch class is measured alone, before each round's open loop:
//!   `patch` ops against the warm-up problems at seeded exponential
//!   arrivals.
//! - `fleet-repeat`: HEFT on 50-task problems; 80% exact repeats from a
//!   hot set well inside the default caches, 20% `patch` ops each
//!   carrying one distinct `etc_entry` delta against a hot parent.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hetsched_core::ProblemInstance;

use crate::fleet::{
    latencies, poisson_dues, Class, Client, Fleet, Job, Outcome, Pace, Record, Tally, SHARDS,
};
use crate::problems::{instance_seed, patch_case, schedule_case, Case};
use crate::stats::{mean, median, quantile, sorted, windowed_median, windowed_tail};
use crate::{peak_rss_mb, Metric, Report, SETUPS};

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fleet-unique`.
    Unique,
    /// `fleet-repeat`.
    Repeat,
}

/// Open-loop arrival rate of `fleet-unique`, requests/s: about half the
/// closed-loop throughput (about 265/s) measured on a 2-core host, and
/// enough arrivals for a 1000-sample p99 window. Latency here is mostly
/// the two hops and the reactors' wake-ups, not queueing: at 80/s the p50
/// read the same.
pub const UNIQUE_RATE: f64 = 130.0;
/// Open-loop arrival rate of `fleet-repeat`, requests/s: under a quarter
/// of the closed-loop throughput (about 1840/s) measured on a 2-core host.
/// The gateway reactor sleeps 1, 2, 4, 8 ms... while idle; at 800/s the
/// share of arrivals meeting its 8 ms step was near 1%, so the p99 flipped
/// between the 4 and 8 ms steps from run to run. At 400/s about 6% meet
/// it and the p99 sits inside that step.
pub const REPEAT_RATE: f64 = 400.0;
/// Distinct problems `fleet-unique` cycles through. Each shard sees more
/// than its reply memo (256) and instance cache (64) hold between two
/// uses of one problem, so a reuse misses every cache like a new one.
const UNIQUE_POOL: usize = 1600;
/// Hot problems of `fleet-repeat`, half homed on each shard.
const HOT: usize = 32;
/// Share of `patch` ops in `fleet-repeat`.
const PATCH_SHARE: f64 = 0.2;
/// Warm-up problems of `fleet-unique` (also the patch probe's parents).
const WARM_UNIQUE: usize = 8;
/// Arrival rate of `fleet-unique`'s patch probe, requests/s. Seeded
/// exponential gaps keep probe requests from locking onto the gateway
/// reactor's sleep cycle, as a sequential probe would.
const PROBE_RATE: f64 = 200.0;
/// Share of the measured time `fleet-unique` spends in its patch probe.
/// A patch's latency is mostly the reactors' wake-up delay, so it spreads
/// from 2 to 12 ms; its median needs most of a thousand samples to hold
/// still from run to run (300 spread it 3.4-5.2 ms over five seeds).
const PROBE_SHARE: f64 = 0.15;
/// Rounds the measured time is cut into. Each round runs the patch probe,
/// the open loop and the closed loop for its share of the time. The
/// host's other tenants slow it for stretches of seconds to minutes; run
/// one phase after another, a 10-second stretch could cover the whole
/// closed loop, and `ops_per_s` spread 4-14% over five seeds. In rounds a
/// stretch shorter than half the run slows a minority of every phase's
/// samples, and the medians below pass over it.
const ROUNDS: usize = 5;
/// Windows each round's closed loop is cut into; `ops_per_s` is the
/// median of every window's completion rate, so a passing stall of the
/// host moves a few windows, not the figure.
const RATE_WINDOWS: usize = 2;
/// In-flight requests per connection in the closed loop.
pub const WINDOW: usize = 2;
/// Share of the measured time spent in the open loop; the closed loop
/// gets the rest, after `fleet-unique`'s patch probe.
const OPEN_SHARE: f64 = 0.7;
/// Closed-loop requests prepared per second of closed-loop time: above
/// either workload's throughput, so the pool outlasts the phase.
const CLOSED_PER_S: f64 = 5_000.0;

impl Kind {
    /// Tasks per problem.
    fn tasks(self) -> usize {
        match self {
            Kind::Unique => 200,
            Kind::Repeat => 50,
        }
    }

    /// Algorithm every request asks for.
    fn algorithm(self) -> &'static str {
        match self {
            Kind::Unique => "ILS-H",
            Kind::Repeat => "HEFT",
        }
    }

    /// Open-loop rate.
    pub fn rate(self) -> f64 {
        match self {
            Kind::Unique => UNIQUE_RATE,
            Kind::Repeat => REPEAT_RATE,
        }
    }

    /// Share of the measured time spent in the open loop: [`OPEN_SHARE`]
    /// less the patch probe's share.
    pub fn open_share(self) -> f64 {
        OPEN_SHARE - self.probe_share()
    }

    /// Share of the measured time spent in the patch probe: only
    /// `fleet-unique` has one, since `fleet-repeat` patches in its open
    /// loop.
    pub fn probe_share(self) -> f64 {
        match self {
            Kind::Unique => PROBE_SHARE,
            Kind::Repeat => 0.0,
        }
    }
}

/// Prepared, checked inputs of one fleet run. Built before any timing.
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Set-up traffic: the warm-up problems (`fleet-unique`) or the hot
    /// set (`fleet-repeat`, sent twice so repeats reach the wire caches).
    pub warm: Vec<Case>,
    /// Patch probe run alone (`fleet-unique` only).
    pub probe: Vec<Case>,
    /// Due times of the patch probe.
    pub probe_dues: Vec<Duration>,
    /// Every request case; `open` and `closed` index into it.
    pub cases: Vec<Case>,
    /// Open-loop requests in send order.
    pub open: Vec<(Class, usize)>,
    /// Open-loop due times, relative to the phase start.
    pub dues: Vec<Duration>,
    /// Closed-loop requests in send order.
    pub closed: Vec<(Class, usize)>,
}

/// Schedule cases for `count` seeded problems, with their instances.
fn schedule_cases(
    kind: Kind,
    base: u64,
    count: usize,
) -> Vec<(Case, Arc<ProblemInstance<'static>>)> {
    (0..count)
        .map(|i| {
            schedule_case(
                instance_seed(base, i as u64, 0),
                kind.tasks(),
                kind.algorithm(),
            )
        })
        .collect()
}

impl Inputs {
    /// Generate the inputs for `seed`, with `probe_span` of patch-probe
    /// arrivals (`fleet-unique` only), `open_span` of open-loop arrivals
    /// and enough closed-loop requests for `closed_span`.
    pub fn prepare(
        kind: Kind,
        seed: u64,
        probe_span: Duration,
        open_span: Duration,
        closed_span: Duration,
    ) -> Inputs {
        let dues = poisson_dues(seed ^ 0xd0e5, kind.rate(), open_span);
        let closed_count = (CLOSED_PER_S * closed_span.as_secs_f64()) as usize;
        match kind {
            Kind::Unique => {
                let warm = schedule_cases(kind, seed ^ 0x3a3a, WARM_UNIQUE);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9a7c);
                let probe_dues = poisson_dues(seed ^ 0x9a7d, PROBE_RATE, probe_span);
                let probe = (0..probe_dues.len())
                    .map(|k| {
                        let parent = &warm[k % warm.len()].1;
                        patch_case(parent, kind.algorithm(), k as u64, &mut rng)
                    })
                    .collect();
                let pool = UNIQUE_POOL.max(dues.len());
                let cases: Vec<Case> = schedule_cases(kind, seed ^ 0x0f1e, pool)
                    .into_iter()
                    .map(|(c, _)| c)
                    .collect();
                let open = (0..dues.len()).map(|i| (Class::Unique, i)).collect();
                let closed = (0..closed_count)
                    .map(|i| (Class::Unique, (dues.len() + i) % pool))
                    .collect();
                Inputs {
                    kind,
                    warm: warm.into_iter().map(|(c, _)| c).collect(),
                    probe,
                    probe_dues,
                    cases,
                    open,
                    dues,
                    closed,
                }
            }
            Kind::Repeat => {
                // the hot set, split evenly across the shards by the
                // gateway's routing (content fingerprint mod shards)
                let mut hot: Vec<(Case, Arc<ProblemInstance<'static>>)> = Vec::with_capacity(HOT);
                let mut per_shard = [0usize; SHARDS];
                let mut i = 0u64;
                while hot.len() < HOT {
                    let (case, inst) = schedule_case(
                        instance_seed(seed ^ 0x4070, i, 0),
                        kind.tasks(),
                        kind.algorithm(),
                    );
                    i += 1;
                    let shard = (case.expect.problem % SHARDS as u64) as usize;
                    if per_shard[shard] < HOT / SHARDS {
                        per_shard[shard] += 1;
                        hot.push((case, inst));
                    }
                }
                let mut cases: Vec<Case> = hot.iter().map(|(c, _)| c.clone()).collect();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x3115);
                let mut patches = 0u64;
                // patches take their parents round robin, so every hot
                // parent is touched long before the instance cache could
                // evict it
                let mut mix = |n: usize, cases: &mut Vec<Case>| -> Vec<(Class, usize)> {
                    (0..n)
                        .map(|_| {
                            if rng.gen::<f64>() < PATCH_SHARE {
                                let parent = &hot[patches as usize % HOT].1;
                                cases.push(patch_case(parent, kind.algorithm(), patches, &mut rng));
                                patches += 1;
                                (Class::Patch, cases.len() - 1)
                            } else {
                                (Class::Repeat, rng.gen_range(0..HOT))
                            }
                        })
                        .collect()
                };
                let open = mix(dues.len(), &mut cases);
                let closed = mix(closed_count, &mut cases);
                Inputs {
                    kind,
                    warm: hot.into_iter().map(|(c, _)| c).collect(),
                    probe: Vec::new(),
                    probe_dues: Vec::new(),
                    cases,
                    open,
                    dues,
                    closed,
                }
            }
        }
    }

    /// Job `i` of a request list.
    fn job<'a>(&'a self, list: &[(Class, usize)], i: usize) -> Option<Job<'a>> {
        list.get(i).map(|&(class, k)| Job {
            case: &self.cases[k],
            class,
        })
    }

    /// Send the open loop.
    pub fn drive_open(&self, client: &mut Client) -> io::Result<Vec<Record>> {
        let pace = Pace::Open(self.dues.clone());
        client.drive(&pace, |i| self.job(&self.open, i))
    }
}

/// Spawn and warm a fleet; returns it with the client and the set-up
/// seconds.
pub fn setup(inputs: &Inputs) -> io::Result<(Fleet, Client, f64)> {
    let t0 = std::time::Instant::now();
    let fleet = Fleet::spawn()?;
    let mut client = Client::connect(&fleet.addr)?;
    client.hello()?;
    let passes = match inputs.kind {
        Kind::Unique => 1,
        // the first pass computes, the second is a shard memo hit whose
        // reply the gateway keeps; later repeats are gateway wire hits
        Kind::Repeat => 2,
    };
    for _ in 0..passes {
        warm(&mut client, &inputs.warm)?;
    }
    Ok((fleet, client, t0.elapsed().as_secs_f64()))
}

/// Send `cases` once in a closed loop, untimed; an error if any failed.
fn warm(client: &mut Client, cases: &[Case]) -> io::Result<()> {
    let pace = Pace::Closed {
        window: WINDOW,
        cap: Duration::from_secs(60),
    };
    let records = client.drive(&pace, |i| {
        cases.get(i).map(|case| Job {
            case,
            class: Class::Unique,
        })
    })?;
    let tally = Tally::of(&records);
    if tally.failed > 0 {
        return Err(io::Error::other(format!(
            "warm-up: {} of {} requests failed",
            tally.failed, tally.attempted
        )));
    }
    Ok(())
}

/// Mean SLR of the `ok` records, summed in send order so the same seed
/// gives the same bits.
pub fn slr_mean(records: &[Record]) -> f64 {
    let slrs: Vec<f64> = records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok)
        .map(|r| r.slr)
        .collect();
    mean(&slrs).unwrap_or(0.0)
}

/// Completed `ok` requests per second in each of [`RATE_WINDOWS`] equal
/// windows between the first send and the last reply of `records`.
pub fn window_rates(records: &[Record]) -> Vec<f64> {
    let (Some(first), Some(last)) = (
        records.iter().map(|r| r.sent).min(),
        records.iter().filter_map(|r| r.done).max(),
    ) else {
        return Vec::new();
    };
    let width = last.duration_since(first).as_secs_f64() / RATE_WINDOWS as f64;
    let mut counts = [0usize; RATE_WINDOWS];
    for r in records.iter().filter(|r| r.outcome == Outcome::Ok) {
        let at = r
            .done
            .expect("answered")
            .duration_since(first)
            .as_secs_f64();
        counts[((at / width) as usize).min(RATE_WINDOWS - 1)] += 1;
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// Round `round` of [`ROUNDS`] of an open loop whose `dues` span `span`:
/// the index of its first request and its due times, relative to the
/// round's start.
fn round_dues(dues: &[Duration], span: Duration, round: usize) -> (usize, Vec<Duration>) {
    let from = span.mul_f64(round as f64 / ROUNDS as f64);
    let to = span.mul_f64((round + 1) as f64 / ROUNDS as f64);
    let first = dues.partition_point(|&d| d < from);
    let end = if round + 1 == ROUNDS {
        dues.len()
    } else {
        dues.partition_point(|&d| d < to)
    };
    (first, dues[first..end].iter().map(|&d| d - from).collect())
}

/// Run a fleet workload for `span`.
pub fn run(kind: Kind, seed: u64, span: Duration) -> io::Result<Report> {
    let probe_span = span.mul_f64(kind.probe_share());
    let open_span = span.mul_f64(kind.open_share());
    let closed_span = span - probe_span - open_span;
    let inputs = Inputs::prepare(kind, seed, probe_span, open_span, closed_span);

    let mut setups = Vec::new();
    let mut kept: Option<(Fleet, Client)> = None;
    for _ in 0..SETUPS {
        let (fleet, client, secs) = setup(&inputs)?;
        setups.push(secs);
        if let Some((old, _)) = kept.replace((fleet, client)) {
            old.shutdown();
        }
    }
    let (fleet, mut client) = kept.expect("at least one set-up");

    let (mut probe, mut open, mut closed, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        if kind == Kind::Unique && round > 0 {
            // the last round's unique traffic evicted the probe's parents
            // from every cache
            warm(&mut client, &inputs.warm)?;
        }
        let (first, dues) = round_dues(&inputs.probe_dues, probe_span, round);
        probe.extend(client.drive(&Pace::Open(dues), |i| {
            inputs.probe.get(first + i).map(|case| Job {
                case,
                class: Class::Patch,
            })
        })?);
        let (first, dues) = round_dues(&inputs.dues, open_span, round);
        open.extend(client.drive(&Pace::Open(dues), |i| inputs.job(&inputs.open, first + i))?);
        let pace = Pace::Closed {
            window: WINDOW,
            cap: closed_span / ROUNDS as u32,
        };
        let first = closed.len();
        let records = client.drive(&pace, |i| inputs.job(&inputs.closed, first + i))?;
        rates.extend(window_rates(&records));
        closed.extend(records);
    }
    drop(client);
    fleet.shutdown();

    let all: Vec<Record> = probe.iter().chain(&open).chain(&closed).copied().collect();
    let tally = Tally::of(&all);
    let mut report = Report::new(tally.attempted, tally.failed, tally.wrong == 0);
    let open_lat = latencies(&open, None);
    let p99 = windowed_tail(&open_lat, 0.99);
    let patch_lat = match kind {
        Kind::Unique => latencies(&probe, None),
        Kind::Repeat => latencies(&open, Some(Class::Patch)),
    };
    let late = sorted(open.iter().map(Record::late_ms).collect());
    report.note(format!(
        "open loop: {} requests at {} /s ({} patch), generator late p99 {:.4} ms; \
         closed loop: {} requests, window {} x {} connections; patch probe: {}",
        open.len(),
        kind.rate(),
        open.iter().filter(|r| r.class == Class::Patch).count(),
        quantile(&late, 0.99).unwrap_or(0.0),
        closed.len(),
        WINDOW,
        crate::fleet::CONNS,
        probe.len(),
    ));
    report.note(format!(
        "outcomes: {} attempted, {} failed ({} wrong, {} shed, {} busy, {} unknown_parent)",
        tally.attempted, tally.failed, tally.wrong, tally.shed, tally.busy, tally.unknown_parent
    ));
    report.push(Metric::new(
        "setup_s",
        median(&setups).expect("set-up times"),
        "s",
    ));
    report.push(Metric::new(
        "ops_per_s",
        median(&rates).unwrap_or(0.0),
        "1/s",
    ));
    report.push(Metric::new(
        "p50_ms",
        windowed_median(&open_lat).unwrap_or(0.0),
        "ms",
    ));
    report.push_tail("p99_ms", p99);
    match windowed_median(&patch_lat) {
        Some(p) => report.push(Metric::new("patch_p50_ms", p, "ms")),
        None => report.invalidate("no patch op was answered"),
    }
    report.push(Metric::new(
        "ok_ratio",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
        "ratio",
    ));
    report.push(Metric::new("slr_mean", slr_mean(&open), "ratio"));
    report.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_split_the_dues_in_order() {
        let span = Duration::from_secs(10);
        let dues = poisson_dues(7, 50.0, span);
        let mut next = 0;
        for round in 0..ROUNDS {
            let (first, part) = round_dues(&dues, span, round);
            assert_eq!(first, next);
            let from = span.mul_f64(round as f64 / ROUNDS as f64);
            for (k, &d) in part.iter().enumerate() {
                assert_eq!(d + from, dues[first + k]);
                assert!(d < span / ROUNDS as u32);
            }
            next += part.len();
        }
        assert_eq!(next, dues.len());
    }
}
