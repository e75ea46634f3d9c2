//! Metrics by name and unit, the output checks, and the tables and
//! JSON line the benchmark prints.

use crate::run::{quantile, Outcome, SimOutputs};
use crate::trace::{Kind, Span};
use crate::workload::Spec;
use apor_analysis::theory;
use apor_overlay::Algorithm;
use apor_telemetry::HistogramSnapshot;
use std::fmt::Write as _;

/// A metric value: counts print as integers, everything else as the
/// shortest decimal that reads back to the same `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count.
    Int(u64),
    /// A measurement.
    Real(f64),
}

impl Value {
    fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Real(v) => v,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
        }
    }
}

/// One named metric.
#[derive(Debug)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The value.
    pub value: Value,
}

fn metric(name: impl Into<String>, unit: &'static str, value: Value) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Median of `v` (the mean of the middle two for an even count).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = s.len();
    if k == 0 {
        0.0
    } else if k % 2 == 1 {
        s[k / 2]
    } else {
        (s[k / 2 - 1] + s[k / 2]) / 2.0
    }
}

/// The end-to-end metrics of an untraced run, `rss_mb` being the
/// process's peak resident set.
#[must_use]
pub fn end_to_end(o: &Outcome, rss_mb: f64) -> Vec<Metric> {
    let s = &o.sim;
    vec![
        metric("setup_s", "s", Value::Real(median(&o.timing.setup_s))),
        metric("wall_s", "s", Value::Real(o.timing.wall_s)),
        metric("peak_rss_mb", "MB", Value::Real(rss_mb)),
        metric(
            "availability",
            "ratio",
            Value::Real(s.answered as f64 / s.queries.max(1) as f64),
        ),
        metric("mean_stretch", "ratio", Value::Real(s.mean_stretch)),
        metric("route_age_p50_s", "s", Value::Real(s.route_age_p50_s)),
        metric("route_age_p99_s", "s", Value::Real(s.route_age_p99_s)),
        metric("routing_bps", "bps", Value::Real(s.routing_bps)),
        metric("probing_bps", "bps", Value::Real(s.probing_bps)),
    ]
}

/// Per-kind timing over spans.
#[derive(Debug, Clone, Copy)]
pub struct KindStats {
    /// Calls timed.
    pub calls: u64,
    /// Summed duration, seconds.
    pub busy_s: f64,
    /// Median duration, µs.
    pub p50_us: f64,
    /// 99th-percentile duration, µs.
    pub p99_us: f64,
    /// Summed payload bytes.
    pub bytes: u64,
}

/// Timing of every kind, indexed by the kind's id.
#[must_use]
pub fn kind_stats(spans: &[Span]) -> Vec<KindStats> {
    Kind::ALL
        .iter()
        .map(|&kind| {
            let mut us: Vec<f64> = Vec::new();
            let mut bytes = 0u64;
            for s in spans.iter().filter(|s| s.kind == kind) {
                us.push(f64::from(s.dur_ns) / 1e3);
                bytes += u64::from(s.bytes);
            }
            us.sort_by(f64::total_cmp);
            KindStats {
                calls: us.len() as u64,
                busy_s: us.iter().fold(0.0, |a, b| a + b) / 1e6,
                p50_us: quantile(&us, 0.5),
                p99_us: quantile(&us, 0.99),
                bytes,
            }
        })
        .collect()
}

/// Round two as the router's own `round_two_us` histogram saw it (log₂
/// buckets, so its percentiles are bucket upper bounds).
fn round_two_stats(h: &HistogramSnapshot) -> KindStats {
    KindStats {
        calls: h.count,
        busy_s: h.sum as f64 / 1e6,
        p50_us: h.quantile(0.5) as f64,
        p99_us: h.quantile(0.99) as f64,
        bytes: 0,
    }
}

/// The timed call kinds reported with calls, busy time and percentiles,
/// in report order; `None` marks round two, which comes from the
/// router's histogram instead of spans.
const TIMED: [(&str, Option<Kind>); 10] = [
    ("overlay.start", Some(Kind::Start)),
    ("overlay.view_rx", Some(Kind::ViewRx)),
    ("routing.tick", Some(Kind::RoutingTick)),
    ("routing.round_two", None),
    ("routing.prober_poll", Some(Kind::ProberPoll)),
    ("routing.probe_rx", Some(Kind::ProbeRx)),
    ("routing.rec_rx", Some(Kind::RecRx)),
    ("linkstate.ingest", Some(Kind::LinkstateIngest)),
    ("membership.swim_tick", Some(Kind::SwimTick)),
    ("membership.swim_rx", Some(Kind::SwimRx)),
];

/// Where the traced window's wall time went.
#[derive(Debug)]
pub struct Attribution {
    /// `(row, seconds)`: every kind timed in the window, the harness's
    /// decode, then the simulator's own time. Sums to `traced_wall_s`.
    pub rows: Vec<(&'static str, f64)>,
    /// Round two, part of `routing.tick` (not a row of its own).
    pub round_two_s: f64,
    /// `run_until` wall time of the traced window.
    pub traced_wall_s: f64,
}

impl Attribution {
    /// Attribute `traced_wall_s` over the window's kinds.
    #[must_use]
    pub fn new(stats: &[KindStats], round_two: &HistogramSnapshot, traced_wall_s: f64) -> Self {
        let mut rows: Vec<(&'static str, f64)> = Kind::ALL
            .iter()
            .filter(|&&k| k != Kind::Start) // boot calls fall in the warm-up
            .map(|&k| (k.name(), stats[k as usize].busy_s))
            .collect();
        let callbacks: f64 = rows.iter().map(|r| r.1).sum();
        rows.push(("netsim.self", traced_wall_s - callbacks));
        Attribution {
            rows,
            round_two_s: round_two.sum as f64 / 1e6,
            traced_wall_s,
        }
    }

    /// The simulator's own time: window wall minus every timed call.
    #[must_use]
    pub fn netsim_self_s(&self) -> f64 {
        self.rows.last().map_or(0.0, |r| r.1)
    }

    /// The table, one row per layer kind with its share.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.traced_wall_s.max(f64::MIN_POSITIVE);
        for &(name, s) in &self.rows {
            let _ = writeln!(
                out,
                "  {name:<22} {s:>10.4} s  {:>6.2} %",
                100.0 * s / total
            );
            if name == "routing.tick" {
                let _ = writeln!(
                    out,
                    "    of which round two {:>10.4} s  {:>6.2} %",
                    self.round_two_s,
                    100.0 * self.round_two_s / total
                );
            }
        }
        let sum: f64 = self.rows.iter().map(|r| r.1).sum();
        let _ = writeln!(
            out,
            "  {:<22} {sum:>10.4} s  (traced window wall {:.4} s)",
            "sum", total
        );
        out
    }
}

/// Share `a / b`, 0 when `b` is 0.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics of a traced run, and where its window's wall
/// time went: `spans` and `round_two` from the traced run, `untraced`
/// the same seed's untraced run.
#[must_use]
pub fn per_layer(
    traced: &Outcome,
    spans: &[Span],
    round_two: &HistogramSnapshot,
    untraced: &Outcome,
) -> (Vec<Metric>, Attribution) {
    let stats = kind_stats(spans);
    let attribution = Attribution::new(&stats, round_two, traced.timing.wall_s);
    let s = &traced.sim;
    let c = &s.counts;
    let mut out = Vec::new();
    for (name, kind) in TIMED {
        let k = kind.map_or_else(|| round_two_stats(round_two), |k| stats[k as usize]);
        out.push(metric(
            format!("{name}.calls"),
            "count",
            Value::Int(k.calls),
        ));
        out.push(metric(format!("{name}.busy_s"), "s", Value::Real(k.busy_s)));
        out.push(metric(
            format!("{name}.p50_us"),
            "us",
            Value::Real(k.p50_us),
        ));
        out.push(metric(
            format!("{name}.p99_us"),
            "us",
            Value::Real(k.p99_us),
        ));
    }
    let other = stats[Kind::Other as usize];
    let decode = stats[Kind::Decode as usize];
    let ingest_calls = stats[Kind::LinkstateIngest as usize].calls;
    out.extend([
        metric("overlay.other.calls", "count", Value::Int(other.calls)),
        metric("overlay.other.busy_s", "s", Value::Real(other.busy_s)),
        metric("linkstate.decode.busy_s", "s", Value::Real(decode.busy_s)),
        metric(
            "linkstate.decode.ns_per_byte",
            "ns/B",
            Value::Real(decode.busy_s * 1e9 / decode.bytes.max(1) as f64),
        ),
        metric("netsim.events", "count", Value::Int(s.window_events)),
        metric(
            "netsim.us_per_event",
            "us",
            Value::Real(untraced.timing.wall_s * 1e6 / s.window_events.max(1) as f64),
        ),
        metric(
            "netsim.self_s",
            "s",
            Value::Real(attribution.netsim_self_s()),
        ),
        metric(
            "netsim.queue_depth_p50",
            "count",
            Value::Int(c.queue_depth.quantile(0.5)),
        ),
        metric(
            "netsim.queue_depth_p99",
            "count",
            Value::Int(c.queue_depth.quantile(0.99)),
        ),
        metric("netsim.pkt_delivered", "count", Value::Int(c.pkt_delivered)),
        metric("netsim.drops", "count", Value::Int(c.drops)),
        metric("routing.failovers", "count", Value::Int(c.failovers)),
        metric("routing.ls_sent", "count", Value::Int(c.ls_sent)),
        metric("routing.recs_sent", "count", Value::Int(c.recs_sent)),
        metric("routing.rec_entries", "count", Value::Int(c.rec_entries)),
        metric(
            "routing.routes_retracted",
            "count",
            Value::Int(c.routes_retracted),
        ),
        metric(
            "routing.loops_detected",
            "count",
            Value::Int(c.loops_detected),
        ),
        metric("linkstate.rows_merged", "count", Value::Int(c.rows_merged)),
        metric(
            "linkstate.rows_evicted",
            "count",
            Value::Int(c.rows_evicted),
        ),
        metric("linkstate.max_rows", "count", Value::Int(s.max_rows)),
        metric(
            "linkstate.merge_ratio",
            "ratio",
            Value::Real(ratio(s.window_rows_merged, ingest_calls)),
        ),
        metric(
            "membership.probe_ack_ratio",
            "ratio",
            Value::Real(ratio(c.swim_probes_acked, c.swim_probes_sent)),
        ),
        metric("membership.suspicions", "count", Value::Int(c.suspicions)),
        metric(
            "membership.sync_full_pushes",
            "count",
            Value::Int(c.sync_full_pushes),
        ),
        metric(
            "membership.sync_skip_ratio",
            "ratio",
            Value::Real(ratio(c.sync_digest_skips, c.sync_digest_rounds)),
        ),
        metric(
            "routing.min_availability",
            "ratio",
            Value::Real(s.min_availability.0),
        ),
        metric("membership.bps", "bps", Value::Real(s.membership_bps)),
        metric(
            "churn.restore_s",
            "s",
            Value::Real(s.restore_s.unwrap_or(0.0)),
        ),
        metric("trace.wall_s", "s", Value::Real(traced.timing.wall_s)),
        metric(
            "trace.overhead_s",
            "s",
            Value::Real(traced.timing.wall_s - untraced.timing.wall_s),
        ),
    ]);
    (out, attribution)
}

/// One output check.
#[derive(Debug)]
pub struct Check {
    /// What is checked.
    pub what: String,
    /// Did it hold?
    pub ok: bool,
}

fn check(ok: bool, what: String) -> Check {
    Check { what, ok }
}

/// The output checks every run makes on its simulated outputs.
#[must_use]
pub fn checks(spec: &Spec, o: &Outcome) -> Vec<Check> {
    let s: &SimOutputs = &o.sim;
    let n = spec.n as f64;
    let mut out = vec![check(
        s.counts.loops_detected == 0,
        format!(
            "routing.loops_detected = 0 (got {})",
            s.counts.loops_detected
        ),
    )];
    if o.timing.setup_s.len() > 1 {
        out.push(check(
            o.timing.setups_agree,
            format!(
                "all {} set-ups reach the identical warm-up state",
                o.timing.setup_s.len()
            ),
        ));
    }
    match spec.churn {
        None => out.push(check(
            s.end_availability >= 0.99,
            format!(
                "availability at window end >= 0.99 (got {})",
                s.end_availability
            ),
        )),
        Some(_) => out.push(check(
            s.restore_s.is_some(),
            format!(
                "cross-partition routes restored within the window (restore_s = {:?})",
                s.restore_s
            ),
        )),
    }
    match spec.algorithm {
        Algorithm::Quorum => {
            let bound = 6.0 * n.sqrt() + 16.0;
            out.push(check(
                s.max_rows > 0 && s.max_rows as f64 <= bound,
                format!(
                    "linkstate.max_rows <= 6*sqrt(n)+16 = {bound:.1} (got {})",
                    s.max_rows
                ),
            ));
            if spec.churn.is_none() {
                let theory = theory::quorum_routing_bps(n);
                out.push(check(
                    s.routing_bps < theory,
                    format!(
                        "routing_bps below theory::quorum_routing_bps = {theory:.1} (got {})",
                        s.routing_bps
                    ),
                ));
            }
        }
        Algorithm::FullMesh => {
            for (what, got, theory) in [
                ("routing_bps", s.routing_bps, theory::ron_routing_bps(n)),
                ("probing_bps", s.probing_bps, theory::probing_bps(n)),
            ] {
                out.push(check(
                    (got - theory).abs() <= 0.05 * theory,
                    format!("{what} within 5% of theory {theory:.1} (got {got})"),
                ));
            }
        }
    }
    out
}

/// Render metrics as an aligned `name value unit` table.
#[must_use]
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<32} {:>24} {}",
            m.name,
            m.value.to_string(),
            m.unit
        );
    }
    out
}

/// Are all values finite (JSON has no NaN or infinity)?
#[must_use]
pub fn all_finite(metrics: &[Metric]) -> bool {
    metrics.iter().all(|m| m.value.as_f64().is_finite())
}

/// The result line the benchmark prints last.
#[must_use]
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Counts, Timing, Traced};

    fn outcome(wall_s: f64) -> Outcome {
        let counts = Counts {
            failovers: 1,
            ls_sent: 2,
            recs_sent: 3,
            rec_entries: 4,
            routes_retracted: 5,
            loops_detected: 0,
            rows_merged: 6,
            rows_evicted: 0,
            swim_probes_sent: 10,
            swim_probes_acked: 9,
            suspicions: 1,
            sync_digest_rounds: 4,
            sync_digest_skips: 3,
            sync_full_pushes: 1,
            pkt_delivered: 100,
            drops: 2,
            queue_depth: HistogramSnapshot::empty(),
        };
        Outcome {
            sim: SimOutputs {
                queries: 10,
                answered: 9,
                end_availability: 1.0,
                min_availability: (0.5, 2.0),
                mean_stretch: 1.5,
                route_age_p50_s: 3.0,
                route_age_p99_s: 9.0,
                route_age_samples: 9,
                routing_bps: 1e4,
                probing_bps: 1e3,
                membership_bps: 0.0,
                restore_s: None,
                window_events: 50,
                counts,
                window_rows_merged: 6,
                max_rows: 7,
            },
            timing: Timing {
                setup_s: vec![2.0, 1.0, 3.0],
                setups_agree: true,
                wall_s,
            },
            traced: None,
        }
    }

    fn span(kind: Kind, dur_ns: u32) -> Span {
        Span {
            sim_t: 1.0,
            wall_start_ns: 0,
            dur_ns,
            bytes: 10,
            node: 0,
            kind,
        }
    }

    /// `(name, unit)` of every metric one section of `BENCHMARK.json`
    /// lists, in order.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = text[start..].find(']').map_or(text.len(), |e| start + e);
        let field = |rest: &str, key: &str| -> String {
            let at = rest.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            rest[at..at + rest[at..].find('"').expect("closing quote")].to_string()
        };
        text[start..end]
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn named(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let untraced = outcome(1.0);
        assert_eq!(named(&end_to_end(&untraced, 64.0)), listed("end_to_end"));
        let traced = Outcome {
            traced: Some(Traced {
                spans: Vec::new(),
                round_two_us: HistogramSnapshot::empty(),
            }),
            ..outcome(1.2)
        };
        let (layers, _) = per_layer(&traced, &[], &HistogramSnapshot::empty(), &untraced);
        assert_eq!(named(&layers), listed("per_layer"));
    }

    #[test]
    fn attribution_rows_sum_to_the_traced_wall() {
        let spans = [
            span(Kind::Start, 9_000_000), // warm-up: not a row
            span(Kind::RoutingTick, 300_000_000),
            span(Kind::RecRx, 100_000_000),
            span(Kind::Decode, 50_000_000),
        ];
        let a = Attribution::new(&kind_stats(&spans), &HistogramSnapshot::empty(), 1.0);
        let sum: f64 = a.rows.iter().map(|r| r.1).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((a.netsim_self_s() - 0.55).abs() < 1e-12);
        let stats = kind_stats(&spans);
        assert_eq!(stats[Kind::RoutingTick as usize].calls, 1);
        assert_eq!(stats[Kind::RoutingTick as usize].p99_us, 300_000.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_exact_values() {
        let m = [
            metric("a", "s", Value::Real(0.1 + 0.2)),
            metric("b", "count", Value::Int(7)),
        ];
        assert_eq!(
            json_line(true, 10, 1, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
