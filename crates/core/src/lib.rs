//! The **cliff-edge consensus** protocol: convergent detection of crashed
//! regions, after
//!
//! > Taïani, Porter, Coulson, Raynal. *Cliff-Edge Consensus: Agreeing on
//! > the Precipice.* PaCT 2013, LNCS 7979, pp. 51–64.
//!
//! Nodes bordering a crashed region of an arbitrarily large network agree
//! on the **extent** of the region and on a common **decision value**
//! (e.g. a repair plan), touching only nodes in the region's vicinity.
//! The protocol is a superposition of flooding uniform consensus
//! instances — one per *proposed view*, indexed by the view itself — plus
//! a ranking-based arbitration that rejects lower-ranked conflicting
//! views (paper Algorithm 1).
//!
//! # Sans-io design
//!
//! [`CliffEdgeNode`] is a pure state machine: feed it an [`Event`]
//! (initialization, a failure-detector notification, or a delivered
//! [`Message`]) with [`drive`](CliffEdgeNode::drive) and it performs
//! Algorithm 1's outputs (subscribe to crashes, multicast a message,
//! decide) on the [`Host`] it is handed. The deterministic simulator
//! (`precipice-runtime`) and live threads (`precipice-net`) are one
//! `Host` each and run the same core unchanged, and so does the perfect
//! failure detector's policy, [`FailureDetector`]: both engines ask it
//! who must learn of a crash. [`handle`](CliffEdgeNode::handle), used
//! below, drives the recording host, a `Vec` of [`Action`]s.
//!
//! # Example
//!
//! A three-node path `p0 - p1 - p2` where the middle node crashes: both
//! survivors border the crashed region `{p1}` and must agree on it.
//!
//! ```
//! use precipice_core::{Action, CliffEdgeNode, Event, NodeIdValuePolicy, ProtocolConfig};
//! use precipice_graph::{Graph, NodeId};
//! use std::sync::Arc;
//!
//! let g = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2)]));
//! let mut p0 = CliffEdgeNode::new(NodeId(0), g.clone(), NodeIdValuePolicy, ProtocolConfig::default());
//! let actions = p0.handle(Event::Init);
//! // On init the node subscribes to the crashes of its neighbours.
//! assert!(matches!(&actions[0], Action::Monitor(targets) if targets == &vec![NodeId(1)]));
//!
//! // The failure detector reports p1's crash: p0 proposes the view {p1}
//! // to its border {p0, p2} by multicasting a round-1 message.
//! let actions = p0.handle(Event::Crash(NodeId(1)));
//! assert!(actions.iter().any(|a| matches!(a, Action::Multicast { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod fd;
mod instance;
pub mod json;
mod message;
mod node;
mod policy;
mod stats;
mod view;
mod wire;

pub use config::ProtocolConfig;
pub use fd::FailureDetector;
pub use message::{Message, Opinion, OpinionVector};
pub use node::{Action, CliffEdgeNode, Event, Host};
pub use policy::{ConstPolicy, DecisionPolicy, NodeIdValuePolicy};
pub use stats::ProtocolStats;
pub use view::View;
pub use wire::WireSize;
