//! Link-state machinery for the RON-like overlay (paper section 5).
//!
//! Four concerns live here, all I/O-free:
//!
//! * [`store`] — the [`LinkStateStore`] trait (storage + the round-two
//!   best-hop kernel, written once) and the sparse [`RowStore`]: an
//!   indexed map `origin row → (receipt time, lanes)` holding exactly
//!   the rows a node's role entitles it to — its own row plus its
//!   `~2√n` rendezvous clients' rows — so per-node state is the
//!   paper's `O(n√n)` bound instead of `O(n²)`. Rows are stored
//!   struct-of-arrays ([`LaneRow`]): parallel `dst`/`latency_ms`/
//!   liveness lanes holding the exact wire bytes, ~5 B per live entry,
//!   and the round-two kernel runs integer-only over the latency lanes
//!   (`u32` adds, `u32::MAX` infinite sentinel). This is exact, not an
//!   approximation: the wire format is already fixed-point — latencies
//!   are integer milliseconds in a `u16`, loss is quantized to
//!   half-percent units — so integer cost arithmetic reproduces the
//!   `f64` kernel bit-for-bit (two `u16` legs cannot overflow or round
//!   in either domain). A rendezvous server's whole round two is one
//!   call, [`LinkStateStore::best_hops_all_pairs`]: it buckets the
//!   members' live entries by relay and min-reduces packed
//!   `(cost, hop)` keys per member pair, once per unordered pair,
//!   reproducing the per-pair kernel's hop, cost and tie-break exactly.
//!   Rows carry receipt timestamps for the
//!   3-routing-interval freshness rule of section 6.2.2; an optional
//!   row entitlement is debug-asserted so a protocol regression back
//!   to `O(n)` rows fails loudly. A [`LaneRow`] is also the one row
//!   contract: it carries the origin's seqno and retraction lane, and
//!   every whole-row write — a wire frame, the node's own row, a row
//!   carried across a view remap — enters a store through
//!   [`LinkStateStore::put_row`], which refuses stale replays.
//! * [`table`] / [`entry`] — the dense `n × n` table, kept for the
//!   full-mesh baseline (which holds every row by design and ingests
//!   its dense frames by slice copy, see [`table`] for the measured
//!   reason) and as the reference store in tests; it implements the
//!   same trait, so both stores run the identical kernel.
//! * [`estimator`] — per-neighbour latency EWMA, loss window and the
//!   5-consecutive-failed-probes liveness rule of RON.
//! * [`wire`] — the compact binary message formats. The paper's section 6
//!   bandwidth formulas (probing `49.1·n` bps; RON routing
//!   `1.6·n² + 24.5·n` bps; quorum routing
//!   `6.4·n·√n + 17.1·n + ~200·√n` bps) pin down the message sizes
//!   exactly: 18-byte probes, `21 + 3n`-byte link-state messages,
//!   `23 + 4·k`-byte recommendation messages, all riding on 28 bytes of
//!   IP+UDP framing. The codec here reproduces those sizes byte-for-byte
//!   and the tests assert them.

#![forbid(unsafe_code)]
// The numeric kernels index several arrays with one loop counter;
// iterator rewrites obscure them without changing the codegen.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod entry;
pub mod estimator;
pub mod store;
pub mod table;
pub mod wire;

pub use entry::{Cost, LinkEntry, WireEntry, DEAD_WIRE, INFINITE_COST, INFINITE_COST_U32};
pub use estimator::{LinkEstimator, ProbeOutcome};
pub use store::{
    best_one_hop_rows, seqno_newer, LaneRow, LinkStateStore, LiveEntries, PairHops, RowCursor,
    RowRef, RowStore,
};
pub use table::LinkStateTable;
pub use wire::{
    ls_trailer_size, LinkStateMsg, Message, ProbeBatchMsg, ProbeItem, ProbeMsg, ProbeReplyMsg,
    RecEntry, RecFormat, RecommendationMsg, SparseLinkStateMsg, LINKSTATE_HEADER_SIZE,
    LS_FLAG_SEQNO, LS_SEQNO_TRAILER_BASE, PROBE_BATCH_HEADER_SIZE, PROBE_FLAG_TRACE,
    PROBE_WIRE_SIZE, REC_HEADER_SIZE, SPARSE_LINKSTATE_HEADER_SIZE, UDP_IP_OVERHEAD,
};
