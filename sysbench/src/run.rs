//! One run of a workload: set-up and warm-up, then the measured window
//! with route queries at fixed simulated instants, then the protocol's
//! own counters. The untraced run drives the stock `SimNode`; the traced
//! run drives [`TracedNode`] and keeps its spans.

use crate::trace::{Recorder, Span, TracedNode};
use crate::workload::{subseed, Spec, Timeline, START_SPREAD_S};
use apor_linkstate::LinkStateStore;
use apor_netsim::{Simulator, TrafficClass, CORE_TELEMETRY_NODE};
use apor_overlay::simnode::{populate, SimNode};
use apor_overlay::OverlayNode;
use apor_quorum::NodeId;
use apor_routing::onehop;
use apor_telemetry::{HistogramSnapshot, Snapshot};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Ordered pairs queried at every instant.
const QUERY_PAIRS: usize = 2000;
/// Cross-partition pairs whose routes define `restore_s`.
const CROSS_PAIRS: usize = 512;

/// Every simulated-time output of a run. A pure function of the
/// workload, the seed and `--seconds`: two runs with the same arguments
/// must agree bit for bit.
#[derive(Debug, PartialEq)]
pub struct SimOutputs {
    /// Route queries made on included pairs.
    pub queries: u64,
    /// Of those, queries answered with a next hop.
    pub answered: u64,
    /// Answered share at the last instant of the window.
    pub end_availability: f64,
    /// Lowest answered share at any instant, and that instant (s).
    pub min_availability: (f64, f64),
    /// Mean achieved / optimal one-hop latency over answered queries.
    pub mean_stretch: f64,
    /// Route-age median and 99th percentile over answered queries, s.
    pub route_age_p50_s: f64,
    /// See `route_age_p50_s`.
    pub route_age_p99_s: f64,
    /// Route-age samples behind the two percentiles.
    pub route_age_samples: u64,
    /// Fleet-mean bps per node over the window, in + out, per class.
    pub routing_bps: f64,
    /// See `routing_bps`.
    pub probing_bps: f64,
    /// See `routing_bps`.
    pub membership_bps: f64,
    /// Simulated seconds from the heal until every sampled cross pair
    /// routes both ways (churn workload; `None` if never in the window).
    pub restore_s: Option<f64>,
    /// Simulator events processed in the window.
    pub window_events: u64,
    /// Protocol counters over the whole run.
    pub counts: Counts,
    /// `linkstate/rows_merged` inside the window.
    pub window_rows_merged: u64,
    /// Largest link-state row count any live quorum node holds at the
    /// end (0 for full-mesh, whose dense table reports no rows).
    pub max_rows: u64,
}

/// Protocol telemetry totals over the fleet, from the nodes' and the
/// simulator's registries.
#[derive(Debug, PartialEq)]
pub struct Counts {
    /// `routing/failovers_selected`.
    pub failovers: u64,
    /// `routing/ls_sent`.
    pub ls_sent: u64,
    /// `routing/recs_sent`.
    pub recs_sent: u64,
    /// `routing/rec_entries_received`.
    pub rec_entries: u64,
    /// `routing/routes_retracted`.
    pub routes_retracted: u64,
    /// `routing/loops_detected`.
    pub loops_detected: u64,
    /// `linkstate/rows_merged`.
    pub rows_merged: u64,
    /// `linkstate/rows_evicted`.
    pub rows_evicted: u64,
    /// `membership/probe_sent`.
    pub swim_probes_sent: u64,
    /// `membership/probe_acked`.
    pub swim_probes_acked: u64,
    /// `membership/suspicion_raised`.
    pub suspicions: u64,
    /// `membership/sync_digest_rounds`.
    pub sync_digest_rounds: u64,
    /// `membership/sync_digest_skips`.
    pub sync_digest_skips: u64,
    /// `membership/sync_full_pushes`.
    pub sync_full_pushes: u64,
    /// `netsim/pkt_delivered`.
    pub pkt_delivered: u64,
    /// Sum of the `netsim/drop_*` counters.
    pub drops: u64,
    /// `netsim/event_queue_depth`, the depth after every insertion.
    pub queue_depth: HistogramSnapshot,
}

impl Counts {
    fn from_snapshot(s: &Snapshot) -> Counts {
        let c = |component: &str, name: &str| s.counter_total(component, name);
        Counts {
            failovers: c("routing", "failovers_selected"),
            ls_sent: c("routing", "ls_sent"),
            recs_sent: c("routing", "recs_sent"),
            rec_entries: c("routing", "rec_entries_received"),
            routes_retracted: c("routing", "routes_retracted"),
            loops_detected: c("routing", "loops_detected"),
            rows_merged: c("linkstate", "rows_merged"),
            rows_evicted: c("linkstate", "rows_evicted"),
            swim_probes_sent: c("membership", "probe_sent"),
            swim_probes_acked: c("membership", "probe_acked"),
            suspicions: c("membership", "suspicion_raised"),
            sync_digest_rounds: c("membership", "sync_digest_rounds"),
            sync_digest_skips: c("membership", "sync_digest_skips"),
            sync_full_pushes: c("membership", "sync_full_pushes"),
            pkt_delivered: c("netsim", "pkt_delivered"),
            drops: [
                "drop_link_down",
                "drop_unreachable",
                "drop_loss",
                "drop_queue_overflow",
                "drop_receiver_down",
            ]
            .iter()
            .map(|name| c("netsim", name))
            .sum(),
            queue_depth: s
                .histogram(CORE_TELEMETRY_NODE, "netsim", "event_queue_depth")
                .cloned()
                .unwrap_or_else(HistogramSnapshot::empty),
        }
    }
}

/// Wall-clock results of a run.
#[derive(Debug)]
pub struct Timing {
    /// Inputs, node construction and simulated warm-up, seconds, once
    /// per set-up.
    pub setup_s: Vec<f64>,
    /// Did every set-up reach the identical warm-up state (events
    /// processed and protocol counters)?
    pub setups_agree: bool,
    /// `run_until` wall time over the measured window, seconds.
    pub wall_s: f64,
}

/// What the traced run adds.
pub struct Traced {
    /// One span per timed call in the window, plus the boot calls.
    pub spans: Vec<Span>,
    /// `routing/round_two_us` observed inside the window.
    pub round_two_us: HistogramSnapshot,
}

/// Everything one run produced.
pub struct Outcome {
    /// Simulated-time outputs.
    pub sim: SimOutputs,
    /// Wall-clock results.
    pub timing: Timing,
    /// Spans and the round-two histogram (traced runs only).
    pub traced: Option<Traced>,
}

/// The overlay node in simulator slot `i`, whichever adapter hosts it.
fn overlay(sim: &Simulator, i: usize) -> &OverlayNode {
    let any = sim.node(i).as_any();
    any.downcast_ref::<SimNode>()
        .map(SimNode::overlay)
        .or_else(|| any.downcast_ref::<TracedNode>().map(TracedNode::overlay))
        .expect("every slot hosts an overlay node")
}

/// The fleet's telemetry: simulator core and links plus every node.
fn fleet_snapshot(sim: &Simulator, n: usize) -> Snapshot {
    let mut snap = sim.telemetry_snapshot();
    for i in 0..n {
        snap.merge(&overlay(sim, i).telemetry().snapshot());
    }
    snap
}

/// `a − b` for two snapshots of the same cumulative histogram (the
/// maximum cannot be differenced; `a`'s is kept).
fn histogram_since(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = a.clone();
    d.count -= b.count;
    d.sum -= b.sum;
    for (x, y) in d.buckets.iter_mut().zip(b.buckets.iter()) {
        *x -= y;
    }
    d
}

/// Nearest-rank quantile of sorted `v` (0 when empty).
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Uniformly sampled distinct ordered pairs.
fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let idx: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (&i, &j) = (
            idx.choose(&mut rng).expect("n > 0"),
            idx.choose(&mut rng).expect("n > 0"),
        );
        if i != j {
            out.push((i, j));
        }
    }
    out
}

/// Running tallies of the route queries.
#[derive(Default)]
struct Tally {
    queries: u64,
    answered: u64,
    last_queries: u64,
    last_answered: u64,
    min_availability: Option<(f64, f64)>,
    stretch_sum: f64,
    stretch_n: u64,
    ages: Vec<f64>,
}

impl Tally {
    /// Query every included pair at `now`. A pair is included while
    /// both endpoints are up and no partition separates them.
    fn query(&mut self, sim: &Simulator, pairs: &[(usize, usize)], optimal: &[f64], now: f64) {
        let m = sim.latency();
        self.last_queries = 0;
        self.last_answered = 0;
        for (&(i, j), &best) in pairs.iter().zip(optimal) {
            if !sim.schedule().is_link_up(i, j, now) {
                continue;
            }
            self.last_queries += 1;
            let node = overlay(sim, i);
            let Some(hop) = node.best_hop(NodeId(j as u16), now) else {
                continue;
            };
            self.last_answered += 1;
            let hop = usize::from(hop.0);
            let achieved = if hop == j {
                m.rtt(i, j)
            } else {
                m.rtt(i, hop) + m.rtt(hop, j)
            };
            if achieved.is_finite() && best.is_finite() && best > 0.0 {
                self.stretch_sum += achieved / best;
                self.stretch_n += 1;
            }
            if let Some(age) = node.route_age(NodeId(j as u16), now) {
                self.ages.push(age);
            }
        }
        self.queries += self.last_queries;
        self.answered += self.last_answered;
        let share = self.last_answered as f64 / self.last_queries.max(1) as f64;
        if self.min_availability.is_none_or(|(min, _)| share < min) {
            self.min_availability = Some((share, now));
        }
    }
}

/// Do all `cross` pairs route in both directions at `now`?
fn cross_restored(sim: &Simulator, cross: &[(usize, usize)], now: f64) -> bool {
    cross.iter().all(|&(i, j)| {
        overlay(sim, i).best_hop(NodeId(j as u16), now).is_some()
            && overlay(sim, j).best_hop(NodeId(i as u16), now).is_some()
    })
}

/// Build the fleet from the seed's inputs and warm it up to the window
/// start.
fn set_up(
    spec: &Spec,
    seed: u64,
    timeline: &Timeline,
    recorder: Option<&Rc<RefCell<Recorder>>>,
) -> Simulator {
    let mut sim = spec.simulator(seed, timeline);
    let n = spec.n;
    match recorder {
        None => populate(&mut sim, n, START_SPREAD_S, |i| spec.node_config(i, seed)),
        Some(rec) => {
            for i in 0..n {
                let node = OverlayNode::new(spec.node_config(i, seed));
                let start = START_SPREAD_S * i as f64 / n as f64;
                sim.add_node(Box::new(TracedNode::new(node, Rc::clone(rec))), start);
            }
        }
    }
    sim.run_until(timeline.window_start_s);
    sim
}

/// Run `spec` once with `seed`, measuring a window sized for `seconds`:
/// set up `setups` times (at least once), then measure the last fleet.
#[must_use]
pub fn run(spec: &Spec, seed: u64, seconds: u64, setups: usize, traced: bool) -> Outcome {
    let n = spec.n;
    let timeline = spec.timeline(seconds);
    let recorder = traced.then(Recorder::new);
    let setups = setups.max(1);

    let mut setup_s = Vec::with_capacity(setups);
    let mut warm_states = Vec::with_capacity(setups);
    let mut fleet = None;
    let mut warm_snap = Snapshot::default();
    for _ in 0..setups {
        drop(fleet.take()); // one fleet in memory at a time
        let started = Instant::now();
        let sim = set_up(spec, seed, &timeline, recorder.as_ref());
        setup_s.push(started.elapsed().as_secs_f64());
        warm_snap = fleet_snapshot(&sim, n);
        warm_states.push((sim.events_processed(), Counts::from_snapshot(&warm_snap)));
        fleet = Some(sim);
    }
    let mut sim = fleet.expect("at least one set-up");
    let setups_agree = warm_states.windows(2).all(|w| w[0] == w[1]);

    // Query plan, built outside every timed region.
    let pairs = sample_pairs(n, QUERY_PAIRS, subseed(seed, 6));
    let optimal: Vec<f64> = pairs
        .iter()
        .map(|&(i, j)| {
            let m = sim.latency();
            onehop::effective_latency(m, i, j, onehop::best_one_hop_excluding_top(m, i, j, 0.0))
        })
        .collect();
    let cross: Vec<(usize, usize)> = spec.churn.map_or_else(Vec::new, |c| {
        let mut rng = ChaCha8Rng::seed_from_u64(subseed(seed, 7));
        let (crashed, minority) = (c.crashed(n), c.minority(n));
        let majority: Vec<usize> = (0..n)
            .filter(|i| !crashed.contains(i) && !minority.contains(i))
            .collect();
        let minority: Vec<usize> = minority.collect();
        (0..CROSS_PAIRS)
            .map(|_| {
                (
                    *majority.choose(&mut rng).expect("majority nonempty"),
                    *minority.choose(&mut rng).expect("minority nonempty"),
                )
            })
            .collect()
    });

    if let Some(rec) = &recorder {
        rec.borrow_mut().start_window();
    }
    let events_before = sim.events_processed();
    let mut tally = Tally::default();
    let mut restore_s = None;
    let mut wall_s = 0.0;
    for &t in &timeline.query_at_s {
        let lap = Instant::now();
        sim.run_until(t);
        wall_s += lap.elapsed().as_secs_f64();
        tally.query(&sim, &pairs, &optimal, t);
        if let Some(heal) = timeline.heal_at_s {
            if t > heal && restore_s.is_none() && cross_restored(&sim, &cross, t) {
                restore_s = Some(t - heal);
            }
        }
    }
    let window_events = sim.events_processed() - events_before;

    let (ws, we) = (timeline.window_start_s, timeline.window_end_s);
    let bps = |class| sim.stats().fleet_mean_bps(&[class], ws, we);
    let end_snap = fleet_snapshot(&sim, n);
    let max_rows = (0..n)
        .filter(|&i| sim.schedule().is_node_up(i, we))
        .filter_map(|i| overlay(&sim, i).quorum_router())
        .map(|r| r.table().row_count() as u64)
        .max()
        .unwrap_or(0);
    tally.ages.sort_by(f64::total_cmp);
    let sim_out = SimOutputs {
        queries: tally.queries,
        answered: tally.answered,
        end_availability: tally.last_answered as f64 / tally.last_queries.max(1) as f64,
        min_availability: tally.min_availability.unwrap_or((1.0, we)),
        mean_stretch: tally.stretch_sum / tally.stretch_n.max(1) as f64,
        route_age_p50_s: quantile(&tally.ages, 0.5),
        route_age_p99_s: quantile(&tally.ages, 0.99),
        route_age_samples: tally.ages.len() as u64,
        routing_bps: bps(TrafficClass::Routing),
        probing_bps: bps(TrafficClass::Probing),
        membership_bps: bps(TrafficClass::Membership),
        restore_s,
        window_events,
        counts: Counts::from_snapshot(&end_snap),
        window_rows_merged: end_snap.counter_total("linkstate", "rows_merged")
            - warm_snap.counter_total("linkstate", "rows_merged"),
        max_rows,
    };
    let round_two = |s: &Snapshot| s.histogram_total("routing", "round_two_us");
    let round_two_us = histogram_since(&round_two(&end_snap), &round_two(&warm_snap));
    drop(sim); // the nodes hold the other references to the recorder
    let traced = recorder.map(|rec| Traced {
        spans: Rc::try_unwrap(rec)
            .ok()
            .expect("the simulator was the recorder's only other owner")
            .into_inner()
            .into_spans(),
        round_two_us,
    });
    Outcome {
        sim: sim_out,
        timing: Timing {
            setup_s,
            setups_agree,
            wall_s,
        },
        traced,
    }
}
