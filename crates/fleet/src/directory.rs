//! Directory nodes: seeded gossip-based membership.
//!
//! A fleet run registers a small set of directory nodes on the simnet.
//! Each holds a [`DirectoryState`] — the signed descriptor map — and
//! runs bounded anti-entropy: every `gossip_interval_us` it pushes its
//! full signed state to one deterministically-chosen peer, for
//! `gossip_rounds` rounds. Because descriptor merge is a join
//! semilattice (see [`crate::descriptor`]), any connected gossip
//! schedule converges; the run asserts convergence by comparing
//! [`DirectoryState::state_hash`] across directories.
//!
//! The **lead** directory (index 0) doubles as the churn authority:
//! each gossip tick it draws join/leave events from the run's fault
//! injector — the same seeded RNG stream as every wire fault — so
//! directory churn is a first-class, replayable fault.
//!
//! Everything on the wire is HMAC-authenticated and decoded fail-closed:
//! a record that does not verify is counted and dropped, never merged.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dcp_core::EntityId;
use dcp_faults::FaultKind;
use dcp_simnet::{Ctx, Message, Node, NodeId};
use rand::{rngs::StdRng, Rng};

use crate::descriptor::{DescriptorError, RelayDescriptor, SIGNED_LEN};
use crate::dst::{lock, FleetStats};

/// Timer token for the gossip/churn tick.
pub const GOSSIP_TOKEN: u64 = 0xD1F0;

/// The lead directory stops authoring churn this many rounds before the
/// gossip budget runs out, leaving a quiet tail of anti-entropy pushes
/// so every edit propagates before the run quiesces (the convergence
/// assertion depends on it).
pub const CHURN_QUIET_ROUNDS: u32 = 8;

/// Wire tag: full signed state snapshot (directory → directory).
pub const MSG_STATE: u8 = 0x01;

/// Wire tag: one signed descriptor (relay → home directory).
pub const MSG_DESCRIPTOR: u8 = 0x02;

/// One directory's view of the fleet: the descriptor map plus the
/// shared secret used to sign and verify it.
pub struct DirectoryState {
    secret: [u8; 32],
    descs: BTreeMap<u16, RelayDescriptor>,
    /// Records that failed verification or decode and were dropped.
    pub rejects: u64,
}

impl DirectoryState {
    /// An empty state holding the fleet secret.
    pub fn new(secret: [u8; 32]) -> DirectoryState {
        DirectoryState {
            secret,
            descs: BTreeMap::new(),
            rejects: 0,
        }
    }

    /// Install a genesis descriptor (trusted local seeding at setup).
    pub fn seed(&mut self, d: RelayDescriptor) {
        self.descs.insert(d.relay, d);
    }

    /// The descriptor for `relay`, if known.
    pub fn get(&self, relay: u16) -> Option<&RelayDescriptor> {
        self.descs.get(&relay)
    }

    /// All descriptors, ascending by relay index.
    pub fn descriptors(&self) -> impl Iterator<Item = &RelayDescriptor> {
        self.descs.values()
    }

    /// Number of known relays (servable or not).
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// Whether no relays are known.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Relay indices currently admitted for selection.
    pub fn servable(&self) -> Vec<u16> {
        self.descs
            .values()
            .filter(|d| d.servable)
            .map(|d| d.relay)
            .collect()
    }

    /// Relay indices currently tombstoned.
    pub fn departed(&self) -> Vec<u16> {
        self.descs
            .values()
            .filter(|d| !d.servable)
            .map(|d| d.relay)
            .collect()
    }

    /// Highest epoch across all descriptors (drives per-epoch load
    /// counter resets in selection).
    pub fn max_epoch(&self) -> u64 {
        self.descs.values().map(|d| d.epoch).max().unwrap_or(0)
    }

    /// Tombstone `relay` (churn leave). Returns `false` if unknown.
    pub fn tombstone(&mut self, relay: u16) -> bool {
        match self.descs.get_mut(&relay) {
            Some(d) => {
                d.member_seq += 1;
                d.servable = false;
                true
            }
            None => false,
        }
    }

    /// Re-admit `relay` (churn join). Returns `false` if unknown.
    pub fn readmit(&mut self, relay: u16) -> bool {
        match self.descs.get_mut(&relay) {
            Some(d) => {
                d.member_seq += 1;
                d.servable = true;
                true
            }
            None => false,
        }
    }

    /// Serialize the full state as a signed gossip message.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = vec![MSG_STATE];
        out.extend_from_slice(&(self.descs.len() as u16).to_be_bytes());
        for d in self.descs.values() {
            out.extend_from_slice(&d.sign(&self.secret));
        }
        out
    }

    /// Verify and merge one signed descriptor. Unknown relays are
    /// inserted (a join we learned about from a peer). Returns whether
    /// anything changed.
    pub fn accept_signed(&mut self, bytes: &[u8]) -> Result<bool, DescriptorError> {
        let d = RelayDescriptor::verify(&self.secret, bytes)?;
        Ok(match self.descs.get_mut(&d.relay) {
            Some(mine) => mine.merge(&d),
            None => {
                self.descs.insert(d.relay, d);
                true
            }
        })
    }

    /// Apply one wire message (state snapshot or single descriptor),
    /// fail-closed: any malformed part rejects the whole message and
    /// nothing is merged. Returns the number of descriptors that
    /// changed local state.
    pub fn apply_wire(&mut self, bytes: &[u8]) -> Result<u32, DescriptorError> {
        let verified = Self::verify_wire(&self.secret, bytes)?;
        let mut changed = 0;
        for d in verified {
            match self.descs.get_mut(&d.relay) {
                Some(mine) => {
                    if mine.merge(&d) {
                        changed += 1;
                    }
                }
                None => {
                    self.descs.insert(d.relay, d);
                    changed += 1;
                }
            }
        }
        Ok(changed)
    }

    /// Verify a whole wire message before touching state (all-or-nothing).
    fn verify_wire(
        secret: &[u8; 32],
        bytes: &[u8],
    ) -> Result<Vec<RelayDescriptor>, DescriptorError> {
        let (&tag, rest) = bytes.split_first().ok_or(DescriptorError::Truncated {
            got: 0,
            need: 1 + SIGNED_LEN,
        })?;
        match tag {
            MSG_DESCRIPTOR => Ok(vec![RelayDescriptor::verify(secret, rest)?]),
            MSG_STATE => {
                if rest.len() < 2 {
                    return Err(DescriptorError::Truncated {
                        got: bytes.len(),
                        need: 3,
                    });
                }
                let count = u16::from_be_bytes([rest[0], rest[1]]) as usize;
                let body = &rest[2..];
                if body.len() != count * SIGNED_LEN {
                    return Err(DescriptorError::Truncated {
                        got: body.len(),
                        need: count * SIGNED_LEN,
                    });
                }
                body.chunks(SIGNED_LEN)
                    .map(|c| RelayDescriptor::verify(secret, c))
                    .collect()
            }
            // An unknown tag is indistinguishable from corruption: reject.
            _ => Err(DescriptorError::BadBool),
        }
    }

    /// Order-independent digest of the state (FNV-1a over canonical
    /// encodings in relay order) — equal hashes across directories is
    /// the convergence check.
    pub fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for d in self.descs.values() {
            for b in d.encode() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// A directory node on the simnet: gossips its state, merges what it
/// hears, and (if lead) draws membership churn from the fault injector.
pub struct DirectoryNode {
    entity: EntityId,
    state: Arc<Mutex<DirectoryState>>,
    peers: Vec<NodeId>,
    interval_us: u64,
    rounds_left: u32,
    lead: bool,
    /// Gossip peer choice rides its own seeded stream so adding a
    /// directory never perturbs protocol or fault randomness.
    rng: StdRng,
    stats: Arc<Mutex<FleetStats>>,
}

impl DirectoryNode {
    /// Build a directory node. `lead` directories additionally author
    /// churn events.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        entity: EntityId,
        state: Arc<Mutex<DirectoryState>>,
        peers: Vec<NodeId>,
        interval_us: u64,
        rounds: u32,
        lead: bool,
        rng: StdRng,
        stats: Arc<Mutex<FleetStats>>,
    ) -> DirectoryNode {
        DirectoryNode {
            entity,
            state,
            peers,
            interval_us,
            rounds_left: rounds,
            lead,
            rng,
            stats,
        }
    }

    /// Draw join/leave churn from the run's injector (lead only). A
    /// leave never empties the servable set: decoupling needs at least
    /// one relay, so the last one is pinned.
    fn draw_churn(&mut self, ctx: &mut Ctx) {
        let (p_leave, p_join) = match ctx.fault_config() {
            Some(f) => (f.p_relay_leave, f.p_relay_join),
            None => return,
        };
        if p_leave > 0.0 && ctx.roll_fault(p_leave) {
            let victims = lock(&self.state).servable();
            if victims.len() > 1 {
                let pick = ctx.fault_amount(victims.len() as u64);
                let relay = victims[(pick.max(1) - 1) as usize];
                lock(&self.state).tombstone(relay);
                ctx.record_fault(FaultKind::RelayLeave {
                    node: relay as usize,
                });
                lock(&self.stats).leaves += 1;
            }
        }
        if p_join > 0.0 && ctx.roll_fault(p_join) {
            let cands = lock(&self.state).departed();
            if !cands.is_empty() {
                let pick = ctx.fault_amount(cands.len() as u64);
                let relay = cands[(pick.max(1) - 1) as usize];
                lock(&self.state).readmit(relay);
                ctx.record_fault(FaultKind::RelayJoin {
                    node: relay as usize,
                });
                lock(&self.stats).joins += 1;
            }
        }
    }
}

impl Node for DirectoryNode {
    fn entity(&self) -> EntityId {
        self.entity
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.rounds_left > 0 && !self.peers.is_empty() {
            ctx.set_timer(self.interval_us, GOSSIP_TOKEN);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx, _from: NodeId, msg: Message) {
        let applied = lock(&self.state).apply_wire(&msg.bytes);
        if applied.is_err() {
            // Fail-closed: unverifiable gossip is dropped, counted, and
            // never merged — no partial state, no panic.
            lock(&self.stats).gossip_rejects += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token != GOSSIP_TOKEN || self.rounds_left == 0 {
            return;
        }
        if self.lead && self.rounds_left > CHURN_QUIET_ROUNDS {
            self.draw_churn(ctx);
        }
        let wire = lock(&self.state).encode_state();
        if self.rounds_left == 1 {
            // Final round: broadcast to every peer so the last merges
            // reach all directories regardless of earlier peer draws.
            for &peer in &self.peers {
                ctx.send(peer, Message::public(wire.clone()));
                lock(&self.stats).gossip_sends += 1;
            }
        } else {
            let peer = self.peers[self.rng.gen_range(0..self.peers.len())];
            ctx.send(peer, Message::public(wire));
            lock(&self.stats).gossip_sends += 1;
        }
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            ctx.set_timer(self.interval_us, GOSSIP_TOKEN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(secret: [u8; 32], n: u16) -> DirectoryState {
        let mut s = DirectoryState::new(secret);
        for i in 0..n {
            s.seed(RelayDescriptor {
                relay: i,
                addr: 100 + i,
                epoch: 0,
                pk: [i as u8; 32],
                key: i as u64,
                member_seq: 0,
                servable: true,
            });
        }
        s
    }

    #[test]
    fn state_snapshot_roundtrips_and_converges() {
        let secret = [7u8; 32];
        let mut a = seeded(secret, 4);
        a.tombstone(2);
        let mut b = seeded(secret, 4);

        assert_ne!(a.state_hash(), b.state_hash());
        let changed = b.apply_wire(&a.encode_state()).unwrap();
        assert_eq!(changed, 1);
        assert_eq!(a.state_hash(), b.state_hash());
        // Idempotent: replaying the same snapshot changes nothing.
        assert_eq!(b.apply_wire(&a.encode_state()).unwrap(), 0);
    }

    #[test]
    fn wire_is_all_or_nothing() {
        let secret = [7u8; 32];
        let a = seeded(secret, 3);
        let mut b = DirectoryState::new(secret);
        let mut wire = a.encode_state();
        // Corrupt the LAST descriptor: nothing (not even the first two
        // valid ones) may merge.
        let n = wire.len();
        wire[n - 1] ^= 1;
        assert!(b.apply_wire(&wire).is_err());
        assert!(b.is_empty(), "partial merge after corrupt snapshot");
    }

    #[test]
    fn unknown_tags_and_short_frames_reject() {
        let secret = [7u8; 32];
        let mut s = DirectoryState::new(secret);
        assert!(s.apply_wire(&[]).is_err());
        assert!(s.apply_wire(&[0x99]).is_err());
        assert!(s.apply_wire(&[MSG_STATE, 0, 5]).is_err());
        assert!(s.apply_wire(&[MSG_DESCRIPTOR, 1, 2, 3]).is_err());
        assert!(s.is_empty());
    }

    #[test]
    fn relay_publish_merges_via_descriptor_tag() {
        let secret = [7u8; 32];
        let mut s = seeded(secret, 2);
        let rotated = RelayDescriptor {
            relay: 1,
            addr: 101,
            epoch: 3,
            pk: [0xCC; 32],
            key: 40,
            member_seq: 0,
            servable: true,
        };
        let mut wire = vec![MSG_DESCRIPTOR];
        wire.extend_from_slice(&rotated.sign(&secret));
        assert_eq!(s.apply_wire(&wire).unwrap(), 1);
        assert_eq!(s.get(1).unwrap().epoch, 3);
        assert_eq!(s.max_epoch(), 3);
    }
}
