//! The batching mix node.

use dcp_core::{EntityId, KeyId, Label};
use dcp_crypto::hpke;
use dcp_runtime::{wire, Ctx, FleetRelay, HopMap, Message, Node, NodeId, ROTATE_TOKEN};
use dcp_transport::onion::{self, Unwrapped};
use rand::seq::SliceRandom;

/// Timer token for the flush deadline.
const FLUSH_TIMER: u64 = 1;

/// Direction bit on fleet-mode ack frames. Plain chains infer direction
/// from topology (an ack can only arrive from the node a mix forwards
/// to); directory-drawn chains give every mix a full-mesh address map,
/// where that inference misreads a forward copy from the previous mix as
/// an ack. Fleet acks therefore carry the direction explicitly.
pub(crate) const RESP_BIT: u64 = 1 << 63;

/// A mix's decryption material: one fixed keypair (plain runs) or an
/// epoch keyring fed by the fleet directory (fleet runs), whose
/// rotations publish to the `home` directory node.
enum MixKeys {
    Plain { kp: hpke::Keypair, key_id: KeyId },
    Fleet { relay: FleetRelay, home: NodeId },
}

/// A threshold mix: it pools incoming messages, and once `batch_size`
/// messages are queued (or the deadline expires) it peels one onion layer
/// from each, shuffles them, and forwards the whole batch at once —
/// destroying the arrival/departure order correlation.
pub struct MixNode {
    entity: EntityId,
    keys: MixKeys,
    batch_size: usize,
    /// Shuffle each batch before flushing (a FIFO "mix" that batches but
    /// preserves order is the classic broken-mix ablation).
    shuffle: bool,
    /// Flush any partial pool after this many µs of inactivity.
    max_wait_us: u64,
    /// addr → node for forwarding.
    addr_map: Vec<(u16, NodeId)>,
    pool: Vec<(u16, Message)>,
    timer_armed: bool,
    /// Batch sizes at each flush (anonymity-set record).
    pub flush_sizes: Vec<usize>,
    /// Recovery wiring: unframe hop seqs forward, route acks backward.
    recover: bool,
    /// Per-copy ack back-routes keyed by the hop seq this mix minted.
    /// Take-once, so a duplicated ack cannot ride another copy's route.
    hop: HopMap<(NodeId, u64)>,
}

impl MixNode {
    /// Create a mix.
    pub fn new(
        entity: EntityId,
        kp: hpke::Keypair,
        key_id: KeyId,
        batch_size: usize,
        max_wait_us: u64,
        addr_map: Vec<(u16, NodeId)>,
    ) -> Self {
        assert!(batch_size >= 1);
        MixNode {
            entity,
            keys: MixKeys::Plain { kp, key_id },
            batch_size,
            shuffle: true,
            max_wait_us,
            addr_map,
            pool: Vec::new(),
            timer_armed: false,
            flush_sizes: Vec::new(),
            recover: false,
            hop: HopMap::new(),
        }
    }

    /// Disable batch shuffling (ablation: batching alone does not mix).
    pub fn without_shuffle(mut self) -> Self {
        self.shuffle = false;
        self
    }

    /// Create a fleet-mode mix: decryption material comes from the
    /// directory's epoch keyring instead of a fixed keypair. The mix
    /// rotates keys on the directory's schedule, publishing each epoch
    /// to its `home` directory node, and peels layers by their cleartext
    /// epoch tag, fail-closed on stale or future epochs.
    pub fn new_fleet(
        entity: EntityId,
        relay: FleetRelay,
        home: NodeId,
        batch_size: usize,
        max_wait_us: u64,
        addr_map: Vec<(u16, NodeId)>,
    ) -> Self {
        assert!(batch_size >= 1);
        MixNode {
            entity,
            keys: MixKeys::Fleet { relay, home },
            batch_size,
            shuffle: true,
            max_wait_us,
            addr_map,
            pool: Vec::new(),
            timer_armed: false,
            flush_sizes: Vec::new(),
            recover: false,
            hop: HopMap::new(),
        }
    }

    /// Enable the recovery wire protocol: framed hop seqs on the forward
    /// path, end-to-end acks routed back hop by hop, and a flush deadline
    /// re-armed on every arrival (a churned mix can lose a timer, so one
    /// armed timer is not enough under faults).
    pub fn with_recovery(mut self, enabled: bool) -> Self {
        self.recover = enabled;
        self
    }

    fn flush(&mut self, ctx: &mut Ctx) {
        if self.pool.is_empty() {
            return;
        }
        self.flush_sizes.push(self.pool.len());
        let mut batch = std::mem::take(&mut self.pool);
        if self.shuffle {
            batch.shuffle(ctx.rng);
        }
        for (next_addr, msg) in batch {
            // An unroutable next hop (malformed or misdirected under
            // faults) is dropped, never misdelivered.
            let Some(node) = self
                .addr_map
                .iter()
                .find(|(a, _)| *a == next_addr)
                .map(|(_, n)| *n)
            else {
                continue;
            };
            ctx.send(node, msg);
        }
    }
}

impl Node for MixNode {
    fn entity(&self) -> EntityId {
        self.entity
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if let MixKeys::Fleet { relay, .. } = &self.keys {
            if let Some(delay_us) = relay.first_tick_us() {
                ctx.set_timer(delay_us, ROTATE_TOKEN);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        // Recovery: route acks back to the sender along the stored route.
        // Plain chains recognize an ack by topology (it arrives from the
        // node this mix forwards to); fleet chains are full-mesh, so acks
        // are recognized by their explicit direction bit instead.
        if self.recover {
            let fleet = matches!(self.keys, MixKeys::Fleet { .. });
            let is_ack = if fleet {
                wire::unframe(&msg.bytes).is_some_and(|(s, _)| s & RESP_BIT != 0)
            } else {
                self.addr_map.iter().any(|(_, n)| *n == from)
            };
            if is_ack {
                let Some((pseq, body)) = wire::unframe(&msg.bytes) else {
                    return; // unframed ack on a recovered run: drop
                };
                let Some((prev, prev_seq)) = self.hop.take(pseq & !RESP_BIT) else {
                    return; // duplicated ack: its route was consumed
                };
                // Mix-bound acks keep the direction bit; the final hop
                // back to the sender carries the bare ARQ seq.
                let to_mix = fleet && self.addr_map.iter().any(|(_, n)| *n == prev);
                let out_seq = if to_mix {
                    prev_seq | RESP_BIT
                } else {
                    prev_seq
                };
                let label = msg.label.clone();
                ctx.send(prev, Message::new(wire::frame(out_seq, body), label));
                return;
            }
        }
        let (cseq, cipher): (u64, &[u8]) = if self.recover {
            match wire::unframe(&msg.bytes) {
                Some((s, b)) => (s, b),
                None => return, // unframed message on a recovered run: drop
            }
        } else {
            (0, &msg.bytes)
        };
        // Peel one layer of bytes and label. Anything that fails to peel
        // (tampered, truncated, or not for us) is dropped: a mix fails
        // closed rather than forwarding plaintext it cannot vouch for.
        ctx.world.crypto_op("hpke_open");
        let (unwrapped, layer_key) = match &mut self.keys {
            MixKeys::Plain { kp, key_id } => match onion::unwrap_layer(kp, cipher) {
                Ok(u) => (u, *key_id),
                Err(_) => return,
            },
            MixKeys::Fleet { relay: f, .. } => {
                // Fleet layers carry their sealing epoch in the clear:
                // select the matching keypair first, fail-closed — a
                // stale or future epoch is a typed rejection (counted in
                // the run stats), never a guessed key.
                let Ok((epoch, sealed)) = onion::read_epoch(cipher) else {
                    return; // missing epoch tag: drop
                };
                let Ok((kp, key_id)) = f.open_epoch(epoch) else {
                    return; // stale/future epoch: typed, fail-closed
                };
                match onion::unwrap_layer(kp, sealed) {
                    Ok(u) => (u, key_id),
                    Err(_) => return,
                }
            }
        };
        let outer_label = match &msg.label {
            Label::Bundle(parts) if parts.len() == 2 => parts[1].clone(),
            other => other.clone(),
        };
        // Label desync means bytes and labels no longer describe the same
        // message: fail closed and drop, like a failed peel.
        let Ok(inner_label) = onion::unwrap_label(&outer_label, layer_key) else {
            return;
        };
        let (next, bytes) = match unwrapped {
            Unwrapped::Forward { next, bytes } => (next, bytes),
            // A terminal layer addressed to a mix is a protocol error;
            // drop it rather than guessing a destination.
            Unwrapped::Deliver { .. } => return,
        };
        let body = if self.recover {
            // Mint a hop seq for this copy and remember the way back, so
            // the receiver's ack can retrace the chain without the mix
            // ever learning the end-to-end pairing.
            let pseq = self.hop.insert((from, cseq));
            wire::frame(pseq, &bytes)
        } else {
            bytes
        };
        let mut fwd = Message::new(body, inner_label);
        fwd.flow = msg.flow;
        self.pool.push((next, fwd));

        if self.pool.len() >= self.batch_size {
            self.flush(ctx);
        } else if self.recover {
            // Re-arm on every arrival: a single armed deadline can be
            // lost to relay churn, stranding the pool forever.
            ctx.set_timer(self.max_wait_us, FLUSH_TIMER);
        } else if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(self.max_wait_us, FLUSH_TIMER);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token == ROTATE_TOKEN {
            if let MixKeys::Fleet { relay, home } = &mut self.keys {
                if let Some(rot) = relay.rotate() {
                    ctx.send(*home, Message::public(rot.frame));
                    if let Some(delay_us) = rot.next_us {
                        ctx.set_timer(delay_us, ROTATE_TOKEN);
                    }
                }
            }
            return;
        }
        if token == FLUSH_TIMER {
            self.timer_armed = false;
            // Deadline flush: trade some anonymity for bounded latency.
            self.flush(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    // MixNode behaviour is exercised end-to-end in `scenario`; the unit
    // tests here cover the pool/flush bookkeeping via a tiny harness.
    use super::*;
    use dcp_core::World;
    use dcp_runtime::{LinkParams, Network, SimTime};
    use dcp_transport::onion::Hop;
    use rand::SeedableRng;

    type Received = std::rc::Rc<std::cell::RefCell<Vec<(u64, Vec<u8>)>>>;

    struct Sink {
        entity: EntityId,
        received: Received,
    }
    impl Node for Sink {
        fn entity(&self) -> EntityId {
            self.entity
        }
        fn on_message(&mut self, ctx: &mut Ctx, _f: NodeId, msg: Message) {
            self.received
                .borrow_mut()
                .push((ctx.now.as_us(), msg.bytes));
        }
    }

    #[test]
    fn batch_is_held_until_threshold() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut world = World::new();
        let org = world.add_org("o");
        let mix_e = world.add_entity("Mix", org, None);
        let sink_e = world.add_entity("Sink", org, None);
        let key = world.new_key(&[mix_e]);
        let kp = hpke::Keypair::generate(&mut rng);

        let received = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut net = Network::new(world, 3);
        net.set_default_link(LinkParams {
            latency_us: 1000,
            jitter_us: 0,
            bytes_per_us: 1000,
        });
        let mix_id = net.add_node(Box::new(MixNode::new(
            mix_e,
            kp.clone(),
            key,
            3,
            1_000_000,
            vec![(7, NodeId(1))],
        )));
        let _sink = net.add_node(Box::new(Sink {
            entity: sink_e,
            received: received.clone(),
        }));

        // Three onions injected at t = 0, 10ms, 20ms.
        let hop = [Hop {
            addr: 7,
            pk: kp.public,
            key_id: key,
        }];
        for i in 0..3u64 {
            let mut srng = rand::rngs::StdRng::seed_from_u64(100 + i);
            // The payload still carries the next-hop address after peeling,
            // so wrap payload for delivery at the *sink*: one mix layer,
            // then DELIVER at sink is encoded as addr 7 in the mix layer.
            let (bytes, label) =
                onion::wrap(&mut srng, &hop, format!("m{i}").as_bytes(), Label::Public).unwrap();
            // Rewrite: single-hop onion delivers locally, but the mix
            // topology forwards to addr 7 — re-wrap with an explicit
            // forward layer instead.
            let _ = (bytes, label);
            let mut plain = 7u16.to_be_bytes().to_vec();
            plain.extend_from_slice(format!("m{i}").as_bytes());
            let sealed = hpke::seal(&mut srng, &kp.public, b"dcp-onion", b"", &plain).unwrap();
            net.post_at(
                mix_id,
                Message::new(sealed, Label::Public.sealed(key)),
                SimTime(i * 10_000),
            );
        }
        net.run();
        let got = received.borrow();
        assert_eq!(got.len(), 3);
        // All three delivered at the same flush time (+1 link delay):
        // the first two messages were *held* until the third arrived.
        let flush_time = got[0].0;
        assert!(got.iter().all(|(t, _)| *t == flush_time), "{got:?}");
        assert!(flush_time >= 20_000, "flush waits for the batch");
    }

    #[test]
    fn deadline_flush_bounds_latency() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut world = World::new();
        let org = world.add_org("o");
        let mix_e = world.add_entity("Mix", org, None);
        let sink_e = world.add_entity("Sink", org, None);
        let key = world.new_key(&[mix_e]);
        let kp = hpke::Keypair::generate(&mut rng);
        let received = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut net = Network::new(world, 3);
        net.set_default_link(LinkParams {
            latency_us: 1000,
            jitter_us: 0,
            bytes_per_us: 1000,
        });
        let mix_id = net.add_node(Box::new(MixNode::new(
            mix_e,
            kp.clone(),
            key,
            64, // threshold never reached
            50_000,
            vec![(7, NodeId(1))],
        )));
        let _sink = net.add_node(Box::new(Sink {
            entity: sink_e,
            received: received.clone(),
        }));
        let mut srng = rand::rngs::StdRng::seed_from_u64(9);
        let mut plain = 7u16.to_be_bytes().to_vec();
        plain.extend_from_slice(b"lonely");
        let sealed = hpke::seal(&mut srng, &kp.public, b"dcp-onion", b"", &plain).unwrap();
        net.post_at(
            mix_id,
            Message::new(sealed, Label::Public.sealed(key)),
            SimTime(0),
        );
        net.run();
        let got = received.borrow();
        assert_eq!(got.len(), 1, "deadline flush released the message");
        assert!(got[0].0 >= 50_000, "held until the deadline");
    }
}
