//! The idle-aware (coalesced) scheduler must be a pure *scheduling*
//! change: with a deterministic network (no jitter, no loss) the overlay
//! must end up with bit-identical routing state whether its periodic
//! work runs off 0.5 s/0.25 s fixed polling ticks or off precise
//! `next_wake` coalesced timers — while processing strictly fewer
//! simulator events, which is the entire point of the redesign.

use allpairs_overlay::netsim::Simulator;
use allpairs_overlay::overlay::config::{Algorithm, NodeConfig, Scheduling};
use allpairs_overlay::overlay::simnode::{overlay_at, overlay_sim_config, populate};
use allpairs_overlay::quorum::NodeId;
use allpairs_overlay::routing::RoutingAlgorithm;
use allpairs_overlay::topology::{FailureParams, LatencyMatrix};

const N: usize = 32;
const HORIZON_S: f64 = 600.0;

/// A varied but fully deterministic symmetric latency matrix: distinct
/// RTTs so best hops are non-trivial, zero loss so no RNG is consumed
/// by the network model (RNG draws are the one way event *order* could
/// leak into protocol state).
fn varied_matrix() -> LatencyMatrix {
    let mut m = LatencyMatrix::uniform(N, 40.0);
    for i in 0..N {
        for j in (i + 1)..N {
            let rtt = 20.0 + ((i * 7 + j * 13) % 80) as f64;
            m.set_rtt(i, j, rtt);
        }
    }
    m
}

fn run(scheduling: Scheduling) -> (Simulator, u64) {
    let cfg = allpairs_overlay::netsim::SimulatorConfig {
        seed: 42,
        jitter_frac: 0.0,
        ..overlay_sim_config()
    };
    let mut sim = Simulator::new(varied_matrix(), FailureParams::none(N, 1e6), cfg);
    let members: Vec<NodeId> = (0..N as u16).map(NodeId).collect();
    populate(&mut sim, N, 5.0, move |i| {
        NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
            .with_static_members(members.clone())
            .with_scheduling(scheduling)
    });
    sim.run_until(HORIZON_S);
    let events = sim.events_processed();
    (sim, events)
}

#[test]
fn coalesced_replays_fixed_tick_bit_identically() {
    let (fixed, fixed_events) = run(Scheduling::FixedTick);
    let (coalesced, coalesced_events) = run(Scheduling::Coalesced);

    for i in 0..N {
        let f = overlay_at(&fixed, i);
        let c = overlay_at(&coalesced, i);

        // Identical link-state tables, down to the f64 bits of the row
        // timestamps, every wire-quantized entry, each seqno and each
        // retraction lane.
        let fr = f.quorum_router().expect("quorum node").export_rows();
        let cr = c.quorum_router().expect("quorum node").export_rows();
        assert_eq!(fr.len(), cr.len(), "node {i}: row count");
        for (fx, cx) in fr.iter().zip(cr.iter()) {
            let (fo, ft, ct) = (fx.origin, fx.received_at, cx.received_at);
            assert_eq!(fo, cx.origin, "node {i}: row origin");
            assert_eq!(
                ft.to_bits(),
                ct.to_bits(),
                "node {i}: row {fo} timestamp ({ft} vs {ct})"
            );
            assert_eq!(fx.row, cx.row, "node {i}: row {fo} lanes");
        }

        // Identical routing decisions for every destination.
        for dst in 0..N {
            if dst == i {
                continue;
            }
            let d = NodeId(dst as u16);
            assert_eq!(
                f.best_hop(d, HORIZON_S),
                c.best_hop(d, HORIZON_S),
                "node {i} → {dst}: best hop"
            );
            assert_eq!(
                f.route_age(d, HORIZON_S).map(f64::to_bits),
                c.route_age(d, HORIZON_S).map(f64::to_bits),
                "node {i} → {dst}: route age"
            );
        }

        // Identical link measurements.
        for dst in 0..N {
            let d = NodeId(dst as u16);
            assert_eq!(
                f.measured_latency_ms(d).map(f64::to_bits),
                c.measured_latency_ms(d).map(f64::to_bits),
                "node {i} → {dst}: measured latency"
            );
        }
    }

    // The idle-aware scheduler must do the same work with strictly
    // fewer simulator events. Packet deliveries dominate at n=32 (full
    // mesh probing), so the saving shows up as a solid margin rather
    // than an order of magnitude — the 0.5 s/0.25 s polling ticks are
    // what disappears.
    assert!(
        coalesced_events * 10 < fixed_events * 9,
        "coalesced {coalesced_events} vs fixed {fixed_events}: \
         expected >10% fewer events"
    );
}
