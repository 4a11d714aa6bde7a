//! The layer battery: each layer's public calls, timed from outside at
//! the shapes a workload uses. Combined with the per-unit call counts
//! from the workload's own `MetricsReport`s these give each layer's
//! estimated share of the end-to-end time.

use std::hint::black_box;
use std::time::Instant;

use dcp_core::{DataKind, InfoItem, Label, World};
use dcp_crypto::hpke;
use dcp_runtime::{wire, Ctx, Message, Network, Node, NodeId};
use dcp_serve::FrameReader;
use dcp_simnet::TimerWheel;
use dcp_transport::frame::{Frame, FrameRef, FrameType};
use dcp_worlds::{Poisson, SplitMix64, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCHES: u64 = 7;
const INFO: &[u8] = b"dcp-benchmark";

/// Per-call time of `f` in its fastest of `BATCHES` batches, ns: the
/// uncontended cost, comparable with the per-world minimum the
/// simulated workloads report. `f` receives the call index so each call
/// can use fresh input.
pub fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let batch = (iters / BATCHES).max(1);
    (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            for i in 0..batch {
                f(b * batch + i);
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

pub struct HpkeCosts {
    pub seal_ns: f64,
    pub open_ns: f64,
    pub session_seal_ns: f64,
    pub session_open_ns: f64,
}

/// Single-shot HPKE seal/open (x25519 encap/decap + AEAD) and the AEAD
/// alone on an established session, for a `payload`-byte plaintext.
pub fn hpke_costs(payload: usize, iters: u64) -> HpkeCosts {
    let mut rng = StdRng::seed_from_u64(0x4b9e);
    let kp = hpke::Keypair::generate(&mut rng);
    let msg = vec![0x5a; payload];
    let seal_ns = ns_per_call(iters, |_| {
        black_box(hpke::seal(&mut rng, &kp.public, INFO, b"", &msg).expect("seal"));
    });
    let sealed = hpke::seal(&mut rng, &kp.public, INFO, b"", &msg).expect("seal");
    let open_ns = ns_per_call(iters, |_| {
        black_box(hpke::open(&kp, INFO, b"", &sealed).expect("open"));
    });

    let session_iters = iters * 20;
    let (enc, mut sender) = hpke::setup_base_s(&mut rng, &kp.public, INFO).expect("setup");
    let session_seal_ns = ns_per_call(session_iters, |_| {
        black_box(sender.seal(b"", &msg));
    });
    // Open in sequence order: a recipient context only opens the
    // ciphertext carrying its next nonce.
    let (enc2, mut sender2) = hpke::setup_base_s(&mut rng, &kp.public, INFO).expect("setup");
    let cts: Vec<Vec<u8>> = (0..session_iters)
        .map(|_| sender2.seal(b"", &msg))
        .collect();
    let mut receiver = hpke::setup_base_r(&enc2, &kp, INFO).expect("setup");
    let session_open_ns = ns_per_call(session_iters, |i| {
        black_box(receiver.open(b"", &cts[i as usize]).expect("open"));
    });
    black_box(enc);
    HpkeCosts {
        seal_ns,
        open_ns,
        session_seal_ns,
        session_open_ns,
    }
}

/// `(encode, decode)` ns of the simulator's sequence-number framing
/// (`dcp_recover::wire`), the codec simulated wirings put on messages.
pub fn wire_codec_ns(payload: usize, iters: u64) -> (f64, f64) {
    let body = vec![0x33; payload];
    let enc = ns_per_call(iters, |i| {
        black_box(wire::frame(i, black_box(&body)));
    });
    let framed = wire::frame(7, &body);
    let dec = ns_per_call(iters, |_| {
        black_box(wire::unframe(black_box(&framed)));
    });
    (enc, dec)
}

/// `(encode, decode)` ns of the typed socket frame (`Frame::encode`,
/// zero-copy `FrameRef::decode`), the codec the served engine writes.
pub fn frame_codec_ns(payload: usize, iters: u64) -> (f64, f64) {
    let body = vec![0x33; payload];
    let enc = ns_per_call(iters, |_| {
        black_box(
            Frame::new(FrameType::Data, body.clone())
                .encode()
                .expect("encode"),
        );
    });
    let bytes = Frame::new(FrameType::Data, body).encode().expect("encode");
    let dec = ns_per_call(iters, |_| {
        black_box(FrameRef::decode(black_box(&bytes)).expect("decode"));
    });
    (enc, dec)
}

/// ns per frame through the served engine's hardened stream reader.
pub fn frame_reader_ns(payload: usize, iters: u64) -> f64 {
    let bytes = Frame::new(FrameType::Data, vec![0x33; payload])
        .encode()
        .expect("encode");
    let mut reader = FrameReader::new();
    ns_per_call(iters, |_| {
        black_box(reader.push(&bytes).expect("one whole frame"));
    })
}

/// One side of a two-node ping-pong: echoes until its budget is spent.
struct Pong {
    entity: dcp_core::EntityId,
    serve: Option<(NodeId, usize)>,
    left: u64,
}

impl Node for Pong {
    fn entity(&self) -> dcp_core::EntityId {
        self.entity
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        if let Some((peer, bytes)) = self.serve {
            ctx.send(peer, Message::public(vec![0u8; bytes]));
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, Message::public(msg.bytes));
        }
    }
}

/// ns per message of the simulator's send → queue → deliver → dispatch
/// path: a benchmark-owned two-node `Network` ping-pong at `bytes` per
/// message.
pub fn simnet_dispatch_ns(bytes: usize, messages: u64) -> f64 {
    (0..BATCHES)
        .map(|b| {
            let mut world = World::new();
            let org = world.add_org("bench");
            let a = world.add_entity("A", org, None);
            let z = world.add_entity("B", org, None);
            let mut net = Network::new(world, b);
            let each = (messages / BATCHES / 2).max(1);
            let b_id = NodeId(0);
            net.add_node(Box::new(Pong {
                entity: z,
                serve: None,
                left: each,
            }));
            net.add_node(Box::new(Pong {
                entity: a,
                serve: Some((b_id, bytes)),
                left: each,
            }));
            let t = Instant::now();
            let processed = net.run();
            t.elapsed().as_nanos() as f64 / processed.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// ns per operation (a pop and a push each count one) of a `TimerWheel`
/// held at `depth` entries in the steady state of a discrete-event
/// queue: each popped entry is re-armed `hop_us` ahead (a link hop), or
/// with probability `far_share` up to `2 × far_us` ahead (a user's next
/// arrival).
pub fn wheel_ns_per_op(depth: usize, hop_us: u64, far_share: f64, far_us: u64, iters: u64) -> f64 {
    let mut rng = SplitMix64::new(0x77);
    let mut delay = move || {
        if rng.next_f64() < far_share {
            1 + rng.next_u64() % (2 * far_us).max(1)
        } else {
            hop_us + rng.next_u64() % 64
        }
    };
    let mut wheel = TimerWheel::new();
    for seq in 0..depth as u64 {
        wheel.push(delay(), seq, seq);
    }
    let mut seq = depth as u64;
    ns_per_call(iters, |_| {
        let (t, _, item) = wheel.pop().expect("wheel holds depth entries");
        wheel.push(t + delay(), seq, black_box(item));
        seq += 1;
    }) / 2.0
}

/// ns per `World::observe` on a clone of `world`, by the entity holding
/// the most keys, of a label sealed once under one of those keys.
pub fn observe_ns(world: &World, iters: u64) -> f64 {
    let mut w = world.clone();
    let Some(entity) = w
        .entities()
        .iter()
        .map(|e| e.id)
        .max_by_key(|&e| w.keys_of(e).len())
    else {
        return 0.0;
    };
    let (Some(&key), Some(&user)) = (w.keys_of(entity).first(), w.users().first()) else {
        return 0.0;
    };
    let label = Label::item(InfoItem::sensitive_data(user, DataKind::Payload)).sealed(key);
    ns_per_call(iters, |_| {
        black_box(w.observe(entity, &label));
    })
}

/// `(zipf sample, poisson inter-arrival)` ns, the per-query generator
/// draws of the population engine.
pub fn generator_ns(names: usize, name_exponent: f64, rate_hz: f64, iters: u64) -> (f64, f64) {
    let zipf = Zipf::new(names, name_exponent).expect("valid zipf");
    let poisson = Poisson::new(rate_hz);
    let mut rng = SplitMix64::new(0x99);
    let z = ns_per_call(iters, |_| {
        black_box(zipf.sample(&mut rng));
    });
    let p = ns_per_call(iters, |_| {
        black_box(poisson.next_interarrival_us(&mut rng));
    });
    (z, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_calls_cost_something() {
        assert!(
            ns_per_call(10, |i| {
                black_box(i);
            }) >= 0.0
        );
        let c = hpke_costs(32, 5);
        assert!(c.seal_ns > c.session_seal_ns && c.open_ns > c.session_open_ns);
        assert!(simnet_dispatch_ns(64, 100) > 0.0);
        assert!(wheel_ns_per_op(100, 1000, 0.1, 10_000, 100) > 0.0);
    }
}
