//! The RON-like overlay node (paper section 5).
//!
//! Three components, exactly as the paper's design section lays out:
//!
//! * **membership service** ([`membership`]) — a centralized coordinator
//!   that assigns a monotonically versioned, sorted member list; every
//!   node with the same view derives the identical quorum grid.
//! * **link monitoring** — the prober from `apor-routing`, wired to the
//!   probe/probe-reply wire messages.
//! * **router** — either the full-mesh baseline or the two-round quorum
//!   algorithm, selected per node.
//!
//! The node itself ([`node::OverlayNode`]) is a sans-io state machine:
//! `on_start` / `on_packet` / `on_timer` in, `(send, set_timer)` commands
//! out. [`simnode::SimNode`] adapts it to the deterministic
//! [`apor_netsim`] simulator (the paper's emulation); a socket driver for
//! deployment would run the same state machine unchanged.
//!
//! Membership comes in two modes ([`config::MembershipMode`]): the
//! paper's centralized coordinator ([`membership`]) and the
//! decentralized SWIM gossip plane from
//! [`apor_membership`], which removes the coordinator
//! single point of failure while preserving the identical-views ⇒
//! identical-grids invariant.
//!
//! ## View changes and the incremental remap
//!
//! Routers, probers and their link-state stores operate in *grid-index
//! space* (positions in the current sorted member list); the wire
//! carries identities. On a membership change the node rebuilds its
//! router for the new grid but does **not** start from empty: the
//! [`remap`] module translates every surviving link-state row by
//! [`NodeId`](apor_quorum::NodeId) into the new index space, dropping
//! rows that are stale (the 3-routing-interval freshness rule) or whose
//! origin departed, and the router's entitlement filter drops rows the
//! node's *new* grid role no longer grants it (a quorum node keeps only
//! its own row and its rendezvous clients' — `O(√n)` rows, `O(n√n)`
//! state). Prober estimator history is carried the same way, so a churn
//! event relabels state instead of discarding measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod membership;
pub mod node;
pub mod remap;
pub mod simnode;

pub use config::{Algorithm, MembershipMode, NodeConfig};
pub use membership::{Coordinator, MembershipView};
pub use node::{Outbox, OverlayNode};
pub use simnode::SimNode;
