//! The three workloads: what each one builds from its seed, and the
//! simulated timeline every run follows (warm-up, then a measured
//! window, with the churn workload's failures inside the window).

use apor_netsim::{Simulator, SimulatorConfig};
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::simnode::overlay_sim_config;
use apor_quorum::NodeId;
use apor_topology::{FailureParams, FailureSchedule, NodeOutage, PlanetLabParams, Topology};
use std::ops::Range;

/// Width of the traffic-accounting buckets, simulated seconds. Window
/// bounds are multiples of it, so the bps figures cover exactly the
/// window (the simulator's 60 s default would round it outwards).
pub const BUCKET_S: f64 = 5.0;

/// Failures injected into the churn workload's window, as offsets from
/// the window start.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Nodes crashed for good.
    pub crashes: usize,
    /// When the crash batch lands.
    pub crash_at_s: f64,
    /// Nodes cut off by the partition.
    pub minority: usize,
    /// When the partition starts.
    pub partition_at_s: f64,
    /// How long it lasts: long enough for the majority to confirm the
    /// minority faulty, so the heal has to merge two divorced views.
    pub partition_s: f64,
}

/// One named workload.
#[derive(Debug)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Overlay size.
    pub n: usize,
    /// Routing algorithm every node runs.
    pub algorithm: Algorithm,
    /// Entitled + sampled probing with this backoff ceiling (seconds),
    /// as in the scale study; `None` = dense full-mesh probing.
    pub subquadratic_probe_max_s: Option<f64>,
    /// SWIM membership with anti-entropy instead of a static view.
    pub swim: bool,
    /// Simulated seconds of warm-up: boot to first convergence.
    pub warmup_s: f64,
    /// Set-ups per untraced run; `setup_s` is their median. One for the
    /// 1024-node workload, whose set-up alone takes about half a minute.
    pub setups: usize,
    /// Simulated seconds of measured window per requested wall second,
    /// sized so one window takes about that long on a 2-core x86-64
    /// host. Fixed per workload, so the simulated work never depends
    /// on how fast the program runs.
    pub sim_per_wall: f64,
    /// Shortest measured window, simulated seconds.
    pub min_window_s: f64,
    /// Simulated seconds between route-query instants.
    pub query_step_s: f64,
    /// Failures inside the window.
    pub churn: Option<Churn>,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 3] = [
    // The paper's steady state at the reference size: round one, round
    // two and recommendation handling carry the load.
    Spec {
        name: "steady-quorum-1024",
        n: 1024,
        algorithm: Algorithm::Quorum,
        subquadratic_probe_max_s: Some(240.0),
        swim: false,
        warmup_s: 60.0,
        setups: 1,
        sim_per_wall: 2.0,
        min_window_s: 15.0,
        query_step_s: 5.0,
        churn: None,
    },
    // The RON baseline: no round two, dense rows from every node, so
    // link-state ingest, probing and the simulator queue dominate.
    Spec {
        name: "fullmesh-400",
        n: 400,
        algorithm: Algorithm::FullMesh,
        subquadratic_probe_max_s: None,
        swim: false,
        warmup_s: 60.0,
        setups: 3,
        sim_per_wall: 6.0,
        min_window_s: 60.0,
        query_step_s: 5.0,
        churn: None,
    },
    // Membership under churn: SWIM + anti-entropy, a crash batch, a
    // minority partition and its heal inside one window.
    Spec {
        name: "churn-swim-256",
        n: 256,
        algorithm: Algorithm::Quorum,
        subquadratic_probe_max_s: Some(240.0),
        swim: true,
        warmup_s: 90.0,
        setups: 3,
        sim_per_wall: 40.0,
        min_window_s: 400.0,
        query_step_s: 2.5,
        churn: Some(Churn {
            crashes: 8,
            crash_at_s: 10.0,
            minority: 32,
            partition_at_s: 40.0,
            partition_s: 60.0,
        }),
    },
];

/// Look a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The simulated timeline of one run.
#[derive(Debug)]
pub struct Timeline {
    /// Warm-up ends and the window starts here.
    pub window_start_s: f64,
    /// The window ends here.
    pub window_end_s: f64,
    /// Route-query instants, ascending, the last one at `window_end_s`.
    pub query_at_s: Vec<f64>,
    /// The partition heals here (churn workload only).
    pub heal_at_s: Option<f64>,
}

impl Spec {
    /// The timeline for a run asked to measure for `seconds` wall
    /// seconds: the window is `sim_per_wall · seconds` simulated seconds
    /// (at least `min_window_s`), rounded up to whole buckets.
    #[must_use]
    pub fn timeline(&self, seconds: u64) -> Timeline {
        let want = (self.sim_per_wall * seconds as f64).max(self.min_window_s);
        let window = (want / BUCKET_S).ceil() * BUCKET_S;
        let start = self.warmup_s;
        let end = start + window;
        let steps = (window / self.query_step_s).round() as usize;
        let query_at_s = (1..=steps)
            .map(|k| start + window * k as f64 / steps as f64)
            .collect();
        Timeline {
            window_start_s: start,
            window_end_s: end,
            query_at_s,
            heal_at_s: self.churn.map(|c| start + c.partition_at_s + c.partition_s),
        }
    }
}

/// Derive a sub-seed for one purpose from the run seed.
#[must_use]
pub fn subseed(seed: u64, purpose: u64) -> u64 {
    // SplitMix64 finaliser: distinct purposes give unrelated streams.
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Churn {
    /// The crashed nodes: the scale study's victims, from the middle of
    /// the index space.
    #[must_use]
    pub fn crashed(&self, n: usize) -> Range<usize> {
        n / 2..n / 2 + self.crashes
    }

    /// The partitioned minority: the highest-numbered nodes, the last
    /// grid rows. A fixed shape keeps recovery comparable across seeds;
    /// the seed still draws the topology and all protocol randomness.
    #[must_use]
    pub fn minority(&self, n: usize) -> Range<usize> {
        n - self.minority..n
    }
}

impl Spec {
    /// A simulator over the inputs `seed` draws, with no nodes yet: the
    /// program sees only this topology, this failure schedule and the
    /// node configurations.
    #[must_use]
    pub fn simulator(&self, seed: u64, timeline: &Timeline) -> Simulator {
        let n = self.n;
        let topo = Topology::generate(&PlanetLabParams {
            n,
            seed: subseed(seed, 1),
            ..Default::default()
        });
        let horizon = timeline.window_end_s + 60.0;
        let schedule = match self.churn {
            None => FailureParams::none(n, horizon),
            Some(c) => {
                let start = timeline.window_start_s;
                let mut failure = FailureParams::with_n(n);
                failure.seed = subseed(seed, 3);
                failure.median_concurrent = 1e-12; // only the scripted failures
                failure.duration_s = horizon;
                failure.node_outages = c
                    .crashed(n)
                    .map(|node| NodeOutage {
                        node,
                        start_s: start + c.crash_at_s,
                        end_s: horizon,
                    })
                    .collect();
                let minority: Vec<usize> = c.minority(n).collect();
                let failure = failure.with_partition(
                    &minority,
                    start + c.partition_at_s,
                    start + c.partition_at_s + c.partition_s,
                );
                FailureSchedule::generate(&failure)
            }
        };
        Simulator::new(
            topo.latency,
            schedule,
            SimulatorConfig {
                seed: subseed(seed, 4),
                bucket_secs: BUCKET_S,
                ..overlay_sim_config()
            },
        )
    }

    /// Node `i`'s configuration in a run with `seed`.
    #[must_use]
    pub fn node_config(&self, i: usize, seed: u64) -> NodeConfig {
        let members: Vec<NodeId> = (0..self.n as u16).map(NodeId).collect();
        let mut cfg = NodeConfig::new(NodeId(i as u16), NodeId(0), self.algorithm)
            .with_static_members(members);
        if self.swim {
            cfg = cfg.with_swim();
        }
        cfg.seed ^= subseed(seed, 5);
        if let Some(max_s) = self.subquadratic_probe_max_s {
            cfg.protocol = cfg.protocol.with_subquadratic_probing(max_s);
        }
        cfg
    }
}

/// Nodes start spread over this many simulated seconds, as in the
/// scale study.
pub const START_SPREAD_S: f64 = 10.0;
