use std::sync::Arc;

use precipice_core::{CliffEdgeNode, DecisionPolicy, Event, Host, Message, View, WireSize};
use precipice_graph::{Graph, NodeId};
use precipice_sim::{Context, MessageSize, Process, SimTime};

/// How the paper's best-effort multicast loop (§3.1: "a plain loop" of
/// point-to-point sends) is realized on the simulator.
///
/// Handlers run atomically in the simulator, so a literal loop can never
/// be cut short by a crash. `Sequential` restores the paper's weaker
/// semantics: each hop of the loop is driven by a self-message, so a
/// crash landing mid-loop leaves a **partial multicast** — the adversary
/// case the cascading-crashes argument of Lemma 3 must survive.
///
/// Per-channel FIFO is preserved in both modes: all of one node's chain
/// continuations share the FIFO self-channel, so two multicasts to the
/// same recipient list (e.g. an accept then a reject for the same view)
/// can never overtake each other — exactly the ordering Lemma 3 needs.
///
/// `Sequential` inflates message counts with chain bookkeeping (size 0,
/// but counted) and stretches multicasts over channel latencies; use it
/// for correctness testing, `Atomic` for cost measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MulticastMode {
    /// The whole recipient loop executes in the sending handler.
    #[default]
    Atomic,
    /// One recipient per self-message hop; crashes truncate the loop.
    Sequential,
}

/// Wire traffic of the adapted protocol: a protocol message, or a
/// continuation of a sequential multicast loop. Every copy of one
/// multicast holds the same `Arc`.
#[derive(Debug, Clone)]
pub enum ProtoMsg<D> {
    /// An Algorithm-1 message, with its [`Message::wire_size`]: an
    /// atomic multicast computes it once for all its copies.
    Protocol {
        /// The message.
        message: Arc<Message<D>>,
        /// Its wire size in bytes.
        bytes: usize,
    },
    /// Bookkeeping for [`MulticastMode::Sequential`]: deliver `message`
    /// to the remaining recipients, one hop at a time.
    Chain {
        /// Recipients not yet served, in order.
        remaining: Vec<NodeId>,
        /// The message being multicast.
        message: Arc<Message<D>>,
    },
}

impl<D: WireSize> MessageSize for ProtoMsg<D> {
    fn size_bytes(&self) -> usize {
        match self {
            ProtoMsg::Protocol { bytes, .. } => *bytes,
            // Loop bookkeeping, not wire traffic.
            ProtoMsg::Chain { .. } => 0,
        }
    }
}

/// A [`CliffEdgeNode`] adapted to the simulator's [`Process`] interface.
///
/// Each handler call drives the node into a `SimHost`, which turns its
/// outputs into simulator sends and failure-detector subscriptions and
/// records the decision with its virtual timestamp.
pub struct ProtocolProcess<P: DecisionPolicy> {
    node: CliffEdgeNode<Arc<Graph>, P>,
    decision: Option<(View, P::Value, SimTime)>,
    multicast_mode: MulticastMode,
}

impl<P: DecisionPolicy> std::fmt::Debug for ProtocolProcess<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolProcess")
            .field("me", &self.node.me())
            .field("decided", &self.decision.is_some())
            .field("multicast_mode", &self.multicast_mode)
            .finish()
    }
}

impl<P: DecisionPolicy> ProtocolProcess<P> {
    /// Wraps a protocol node with the given multicast realization.
    pub fn with_multicast_mode(
        node: CliffEdgeNode<Arc<Graph>, P>,
        multicast_mode: MulticastMode,
    ) -> Self {
        ProtocolProcess {
            node,
            decision: None,
            multicast_mode,
        }
    }

    /// The underlying protocol state machine.
    pub fn node(&self) -> &CliffEdgeNode<Arc<Graph>, P> {
        &self.node
    }

    /// The recorded decision (view, value, decision time), if any.
    pub fn decision(&self) -> Option<&(View, P::Value, SimTime)> {
        self.decision.as_ref()
    }

    fn drive(&mut self, event: Event<P::Value>, ctx: &mut Context<'_, ProtoMsg<P::Value>>) {
        let mut host = SimHost {
            ctx,
            mode: self.multicast_mode,
            decision: &mut self.decision,
        };
        self.node.drive(event, &mut host);
    }
}

/// The simulator as a [`Host`], for one handler call.
struct SimHost<'a, 'c, D> {
    ctx: &'a mut Context<'c, ProtoMsg<D>>,
    mode: MulticastMode,
    decision: &'a mut Option<(View, D, SimTime)>,
}

impl<D: Clone + WireSize> Host<D> for SimHost<'_, '_, D> {
    fn monitor(&mut self, targets: &[NodeId]) {
        for &target in targets {
            self.ctx.monitor(target);
        }
    }

    fn multicast(&mut self, recipients: &[NodeId], message: Arc<Message<D>>) {
        match self.mode {
            MulticastMode::Atomic => {
                let Some((&last, rest)) = recipients.split_last() else {
                    return;
                };
                let bytes = message.wire_size();
                for &to in rest {
                    let message = Arc::clone(&message);
                    self.ctx.send(to, ProtoMsg::Protocol { message, bytes });
                }
                self.ctx.send(last, ProtoMsg::Protocol { message, bytes });
            }
            MulticastMode::Sequential => chain_step(recipients, message, self.ctx),
        }
    }

    fn decide(&mut self, view: &View, value: &D) {
        debug_assert!(self.decision.is_none(), "decide emitted twice");
        *self.decision = Some((view.clone(), value.clone(), self.ctx.now()));
    }
}

/// Serves the next recipient of a sequential multicast and queues the
/// continuation (if any) back to ourselves; the last recipient gets
/// `message` itself. Each hop is its own handler, so each sizes the
/// copy it sends.
fn chain_step<D: WireSize>(
    recipients: &[NodeId],
    message: Arc<Message<D>>,
    ctx: &mut Context<'_, ProtoMsg<D>>,
) {
    let Some((&first, rest)) = recipients.split_first() else {
        return;
    };
    let bytes = message.wire_size();
    if rest.is_empty() {
        ctx.send(first, ProtoMsg::Protocol { message, bytes });
    } else {
        let copy = Arc::clone(&message);
        ctx.send(
            first,
            ProtoMsg::Protocol {
                message: copy,
                bytes,
            },
        );
        ctx.send(
            ctx.me(),
            ProtoMsg::Chain {
                remaining: rest.to_vec(),
                message,
            },
        );
    }
}

impl<P: DecisionPolicy> Process for ProtocolProcess<P> {
    type Msg = ProtoMsg<P::Value>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.drive(Event::Init, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        match msg {
            ProtoMsg::Protocol { message, .. } => self.drive(Event::Deliver { from, message }, ctx),
            ProtoMsg::Chain { remaining, message } => {
                debug_assert_eq!(from, self.node.me(), "chains are self-addressed");
                chain_step(&remaining, message, ctx);
            }
        }
    }

    fn on_crash_notification(&mut self, crashed: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        self.drive(Event::Crash(crashed), ctx);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use precipice_core::{NodeIdValuePolicy, ProtocolConfig};
    use precipice_graph::Region;
    use precipice_sim::{SimConfig, Simulation};

    type Copies = Rc<RefCell<Vec<(NodeId, Arc<Message<NodeId>>, usize)>>>;

    /// A protocol process that keeps every protocol message delivered
    /// to it alive in `copies`, with its sender and the size it was
    /// sent with, so no allocation is reused while the test compares
    /// addresses.
    struct Tap {
        inner: ProtocolProcess<NodeIdValuePolicy>,
        copies: Copies,
    }

    impl Process for Tap {
        type Msg = ProtoMsg<NodeId>;

        fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
            self.inner.on_start(ctx);
        }

        fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
            if let ProtoMsg::Protocol { message, bytes } = &msg {
                let copy = (from, Arc::clone(message), *bytes);
                self.copies.borrow_mut().push(copy);
            }
            self.inner.on_message(from, msg, ctx);
        }

        fn on_crash_notification(&mut self, crashed: NodeId, ctx: &mut Context<'_, Self::Msg>) {
            self.inner.on_crash_notification(crashed, ctx);
        }
    }

    /// Every protocol message delivered in a run on a ring where two
    /// adjacent nodes crash, taken with `Tap`.
    fn tapped_run(mode: MulticastMode) -> Copies {
        let g = Arc::new(precipice_graph::ring(8));
        let copies = Copies::default();
        let processes = (0..g.len())
            .map(|i| {
                let node = CliffEdgeNode::new(
                    NodeId::from_index(i),
                    Arc::clone(&g),
                    NodeIdValuePolicy,
                    ProtocolConfig::default(),
                );
                Tap {
                    inner: ProtocolProcess::with_multicast_mode(node, mode),
                    copies: Rc::clone(&copies),
                }
            })
            .collect();
        let mut sim = Simulation::new(SimConfig::default(), processes);
        sim.schedule_crash(NodeId(3), SimTime::from_millis(1));
        sim.schedule_crash(NodeId(4), SimTime::from_millis(1));
        assert!(sim.run().is_quiescent());
        copies
    }

    /// Every copy of one multicast is the one `Arc` the node built, in
    /// both multicast modes: two delivered copies share an allocation
    /// exactly when they came from the same sender with the same
    /// message (no sender multicasts one message twice).
    #[test]
    fn copies_of_one_multicast_share_one_allocation() {
        for mode in [MulticastMode::Atomic, MulticastMode::Sequential] {
            let copies = tapped_run(mode);
            let copies = copies.borrow();
            let mut shared = 0;
            for (i, (from, a, _)) in copies.iter().enumerate() {
                for (to, b, _) in &copies[i + 1..] {
                    let same = from == to && a == b;
                    assert_eq!(Arc::ptr_eq(a, b), same, "{mode:?}: {from} -> {a:?}");
                    shared += usize::from(same);
                }
            }
            assert!(shared > 0, "{mode:?}: no multicast reached two recipients");
        }
    }

    /// A protocol copy is sized as its message's wire size, in both
    /// multicast modes (an atomic multicast sizes the message once for
    /// all its copies, a sequential one at each hop); a chain
    /// continuation is not wire traffic.
    #[test]
    fn proto_msg_size_matches_wire_size() {
        for mode in [MulticastMode::Atomic, MulticastMode::Sequential] {
            let copies = tapped_run(mode);
            let copies = copies.borrow();
            assert!(!copies.is_empty());
            for (_, message, bytes) in copies.iter() {
                assert_eq!(*bytes, message.wire_size(), "{mode:?}");
            }
        }
        let message: Message<NodeId> = Message {
            round: 1,
            view: Region::from_iter([NodeId(1)]),
            border: Region::from_iter([NodeId(0), NodeId(2)]),
            opinions: Default::default(),
        };
        let bytes = message.wire_size();
        let copy = ProtoMsg::Protocol {
            message: message.clone().into(),
            bytes,
        };
        assert_eq!(copy.size_bytes(), bytes);
        let chain: ProtoMsg<NodeId> = ProtoMsg::Chain {
            remaining: vec![NodeId(0)],
            message: message.into(),
        };
        assert_eq!(chain.size_bytes(), 0);
    }

    #[test]
    fn adapter_exposes_node_state() {
        let g = Arc::new(Graph::from_edges(2, [(0, 1)]));
        let node = CliffEdgeNode::new(NodeId(0), g, NodeIdValuePolicy, ProtocolConfig::default());
        let proc = ProtocolProcess::with_multicast_mode(node, MulticastMode::Atomic);
        assert_eq!(proc.node().me(), NodeId(0));
        assert!(proc.decision().is_none());
        assert_eq!(proc.multicast_mode, MulticastMode::Atomic);
    }

    #[test]
    fn sequential_mode_is_selectable() {
        let g = Arc::new(Graph::from_edges(2, [(0, 1)]));
        let node = CliffEdgeNode::new(NodeId(0), g, NodeIdValuePolicy, ProtocolConfig::default());
        let proc = ProtocolProcess::with_multicast_mode(node, MulticastMode::Sequential);
        assert_eq!(proc.multicast_mode, MulticastMode::Sequential);
    }
}
