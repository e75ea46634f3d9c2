//! Shared fixtures for the Criterion benchmarks.
//!
//! Three bench suites live in `benches/`:
//!
//! * `kernels` — the computational hot paths: grid construction, the
//!   round-two best-hop kernel, the wire codec, the multi-hop iteration.
//! * `figures` — one benchmark per paper table/figure regeneration, at
//!   reduced scale (the full-scale runs live in `apor-experiments`).
//! * `ablations` — the design choices DESIGN.md calls out: routing
//!   interval, recommendation format, grid shape, staleness window.

#![forbid(unsafe_code)]

use apor_linkstate::{LinkEntry, LinkStateTable, WireEntry};
use apor_routing::onehop;
use apor_topology::{PlanetLabParams, Topology};

/// A deterministic synthetic topology of `n` nodes.
#[must_use]
pub fn bench_topology(n: usize) -> Topology {
    Topology::generate(&PlanetLabParams {
        n,
        seed: 0xBE7C4,
        ..Default::default()
    })
}

/// Node `i`'s ground-truth link-state row in `topo` (see
/// [`onehop::ground_truth_row`]).
#[must_use]
pub fn ground_truth_row(topo: &Topology, i: usize) -> Vec<LinkEntry> {
    onehop::ground_truth_row(&topo.latency, i)
}

/// [`ground_truth_row`] in its 3-byte wire form: the body of the dense
/// link-state frame node `i` would send.
#[must_use]
pub fn ground_truth_wire(topo: &Topology, i: usize) -> Vec<WireEntry> {
    ground_truth_row(topo, i)
        .iter()
        .map(LinkEntry::encode)
        .collect()
}

/// A fully populated link-state table derived from the topology's ground
/// truth (all rows fresh at t = 0).
#[must_use]
pub fn full_table(topo: &Topology) -> LinkStateTable {
    let n = topo.len();
    let mut table = LinkStateTable::new(n);
    for i in 0..n {
        table.put_dense(i, &ground_truth_wire(topo, i), 0.0);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_linkstate::LinkStateStore;

    #[test]
    fn fixtures_consistent() {
        let t = bench_topology(49);
        let table = full_table(&t);
        assert_eq!(table.len(), 49);
        assert!(table.best_one_hop(0, 48, 0.0, 45.0).is_some());
    }
}
