//! Wiring glue: everything a scenario needs to run fleet-enabled.
//!
//! [`FleetSetup::build`] mints the key material of every epoch, seeds
//! every directory with identical epoch-0 descriptors, and hands out the
//! per-role pieces:
//!
//! * [`FleetSetup::chain`] — a pinned relay chain per client, drawn from
//!   the genesis directory at t = 0 (chains survive churn because the
//!   transport's ARQ recovers through the pinned relays; re-routing
//!   mid-run would change knowledge tables, which the byte-identity
//!   probe forbids);
//! * [`FleetSetup::relay`] — a [`FleetRelay`] the relay role embeds:
//!   the epoch keyring, the bounded rotation schedule, and fail-closed
//!   epoch opening;
//! * [`FleetSetup::directory_node`] — a gossiping [`DirectoryNode`];
//! * [`FleetSetup::client`] — a [`FleetClient`] handle over the home
//!   directory ("cached consensus"): clients re-read descriptors on
//!   every wrap, so retries after a stale rejection pick up rotated
//!   keys.
//!
//! The pieces share their state through `Arc<Mutex<_>>` and never touch
//! an engine: a rotation hands its descriptor frame back to the caller,
//! so a simnet node (mixnet's mixes) and a seam role (MPR's relays) run
//! the same code.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dcp_core::{EntityId, KeyId, World};
use dcp_crypto::hmac::hmac_sha256;
use dcp_crypto::hpke;
use dcp_simnet::NodeId;
use dcp_transport::onion::{EpochHop, Hop};
use rand::{rngs::StdRng, SeedableRng};

use crate::descriptor::RelayDescriptor;
use crate::directory::{DirectoryNode, DirectoryState, MSG_DESCRIPTOR};
use crate::dst::{lock, FleetStats, FleetSummary};
use crate::epoch::{EpochError, Keyring};
use crate::select::{select_chain, LoadTracker, NotEnoughRelays, SelRng};
use crate::FleetConfig;

/// Seed salt for all fleet-side RNG streams (key material, gossip peer
/// choice, selection) — disjoint from protocol and fault streams.
pub const FLEET_SEED_SALT: u64 = 0xF1EE_7D1C;

/// Timer token for a relay's key-rotation tick. Wirings arm it with
/// [`FleetRelay::first_tick_us`] and [`Rotation::next_us`], and call
/// [`FleetRelay::rotate`] when it fires; it is chosen to collide with no
/// scenario's own tokens.
pub const ROTATE_TOKEN: u64 = 0xF1EE;

/// Shared, build-once state for one fleet-enabled run.
pub struct FleetSetup {
    /// The configuration this fleet was built from.
    pub cfg: FleetConfig,
    secret: [u8; 32],
    pool: u16,
    /// Key material per relay, taken by [`FleetSetup::relay`]: the
    /// genesis keypair, its world key, and the world keys of the epochs
    /// to come.
    genesis: Vec<Option<(hpke::Keypair, KeyId, VecDeque<KeyId>)>>,
    addrs: Vec<u16>,
    dirs: Vec<Arc<Mutex<DirectoryState>>>,
    stats: Arc<Mutex<FleetStats>>,
    sel_rng: SelRng,
    loads: LoadTracker,
    chains: Vec<Vec<u16>>,
    rng: StdRng,
}

impl FleetSetup {
    /// Mint genesis material and seed `cfg.directories` identical
    /// directory states. `relay_entities[i]` / `addrs[i]` describe fleet
    /// relay `i`. The world keys of every epoch a relay may reach (the
    /// genesis one and one per rotation, bounded by
    /// `cfg.max_rotations`) are minted for, and granted to, its entity
    /// here, so a rotation needs no world.
    pub fn build(
        world: &mut World,
        cfg: &FleetConfig,
        seed: u64,
        relay_entities: &[EntityId],
        addrs: &[u16],
    ) -> FleetSetup {
        assert_eq!(relay_entities.len(), addrs.len());
        let pool = relay_entities.len() as u16;
        let mut rng = StdRng::seed_from_u64(seed ^ FLEET_SEED_SALT);
        let secret = hmac_sha256(b"dcp-fleet-directory-secret", &seed.to_be_bytes());
        let rotations = if cfg.rotation_interval_us > 0 {
            cfg.max_rotations
        } else {
            0
        };

        let mut genesis = Vec::with_capacity(pool as usize);
        let mut descs = Vec::with_capacity(pool as usize);
        for (i, (&entity, &addr)) in relay_entities.iter().zip(addrs).enumerate() {
            let kp = hpke::Keypair::generate(&mut rng);
            let key_id = world.new_key(&[entity]);
            let epoch_keys = (0..rotations).map(|_| world.new_key(&[entity])).collect();
            descs.push(RelayDescriptor {
                relay: i as u16,
                addr,
                epoch: 0,
                pk: kp.public,
                key: key_id.0,
                member_seq: 0,
                servable: true,
            });
            genesis.push(Some((kp, key_id, epoch_keys)));
        }

        let directories = cfg.directories.max(1);
        let dirs = (0..directories)
            .map(|_| {
                let mut s = DirectoryState::new(secret);
                for d in &descs {
                    s.seed(d.clone());
                }
                Arc::new(Mutex::new(s))
            })
            .collect();

        FleetSetup {
            cfg: cfg.clone(),
            secret,
            pool,
            genesis,
            addrs: addrs.to_vec(),
            dirs,
            stats: Arc::default(),
            sel_rng: SelRng::new(seed ^ FLEET_SEED_SALT),
            loads: LoadTracker::new(),
            chains: Vec::new(),
            rng,
        }
    }

    /// Pin one client's chain from the genesis directory view. Chains
    /// are recorded for the run summary.
    pub fn chain(&mut self, k: usize) -> Result<Vec<u16>, NotEnoughRelays> {
        let chain = select_chain(
            &lock(&self.dirs[0]),
            k,
            &mut self.loads,
            self.cfg.hot_factor,
            &mut self.sel_rng,
        )?;
        self.chains.push(chain.clone());
        Ok(chain)
    }

    /// The fleet-side piece of relay `idx`. The wiring pairs it with the
    /// home directory its rotations publish to. Panics if called twice
    /// for the same relay.
    pub fn relay(&mut self, idx: u16) -> FleetRelay {
        let (kp, key_id, epoch_keys) = self.genesis[idx as usize]
            .take()
            .expect("relay material already taken");
        FleetRelay {
            idx,
            addr: self.addrs[idx as usize],
            keyring: Keyring::new(self.cfg.grace_epochs, kp, key_id),
            epoch_keys,
            interval_us: self.cfg.rotation_interval_us,
            rng: StdRng::seed_from_u64(
                (self.cfg.rotation_interval_us ^ FLEET_SEED_SALT)
                    .wrapping_add(self.rng_fork() ^ (idx as u64)),
            ),
            secret: self.secret,
            stats: Arc::clone(&self.stats),
        }
    }

    /// A directory node over state `i`, gossiping to `peers`. Index 0 is
    /// the lead (churn authority).
    pub fn directory_node(
        &mut self,
        i: usize,
        entity: EntityId,
        peers: Vec<NodeId>,
    ) -> DirectoryNode {
        DirectoryNode::new(
            entity,
            Arc::clone(&self.dirs[i]),
            peers,
            self.cfg.gossip_interval_us.max(1),
            self.cfg.gossip_rounds,
            i == 0,
            StdRng::seed_from_u64(self.rng_fork() ^ (0xD1 + i as u64)),
            Arc::clone(&self.stats),
        )
    }

    /// A client handle over home directory `i % directories` with a
    /// pinned `chain`.
    pub fn client(&self, i: usize, chain: Vec<u16>) -> FleetClient {
        FleetClient {
            view: Arc::clone(&self.dirs[i % self.dirs.len()]),
            chain,
        }
    }

    /// Assemble the run summary from the shared state.
    pub fn summary(&self) -> FleetSummary {
        let hashes: Vec<u64> = self.dirs.iter().map(|d| lock(d).state_hash()).collect();
        let converged = hashes.windows(2).all(|w| w[0] == w[1]);
        FleetSummary {
            enabled: true,
            pool: self.pool,
            directories: self.dirs.len() as u16,
            chains: self.chains.clone(),
            stats: lock(&self.stats).clone(),
            directory_hashes: hashes,
            converged,
            max_epoch: lock(&self.dirs[0]).max_epoch(),
        }
    }

    /// A derived sub-seed from the setup RNG (keeps per-role streams
    /// disjoint without threading the seed everywhere).
    fn rng_fork(&mut self) -> u64 {
        use rand::Rng;
        self.rng.gen::<u64>()
    }
}

/// The fleet-side state a relay role embeds: its epoch keyring, the
/// bounded rotation schedule, and stats-recording fail-closed opening.
///
/// Engine-free: the wiring arms [`ROTATE_TOKEN`] after
/// [`first_tick_us`](FleetRelay::first_tick_us), calls
/// [`rotate`](FleetRelay::rotate) when it fires, and sends the returned
/// [`Rotation`]'s frame to its home directory.
pub struct FleetRelay {
    /// This relay's fleet index.
    pub idx: u16,
    addr: u16,
    keyring: Keyring,
    /// World keys of the epochs still to come, next first (minted by
    /// [`FleetSetup::build`]); empty once the rotation budget is spent.
    epoch_keys: VecDeque<KeyId>,
    interval_us: u64,
    rng: StdRng,
    secret: [u8; 32],
    stats: Arc<Mutex<FleetStats>>,
}

/// What one key rotation asks of its wiring.
pub struct Rotation {
    /// The signed descriptor of the new epoch (`MSG_DESCRIPTOR ‖
    /// descriptor`), to send as public bytes to the home directory.
    pub frame: Vec<u8>,
    /// Re-arm [`ROTATE_TOKEN`] after this many µs; `None` once the
    /// budget is spent.
    pub next_us: Option<u64>,
}

impl FleetRelay {
    /// The delay to arm [`ROTATE_TOKEN`] with at start, or `None` if
    /// this relay never rotates.
    pub fn first_tick_us(&self) -> Option<u64> {
        (!self.epoch_keys.is_empty()).then_some(self.interval_us)
    }

    /// Rotate to the next epoch: a fresh keypair under the next minted
    /// world key, published as a signed descriptor that carries no
    /// membership claim (so a rotation can never resurrect a tombstone).
    /// `None` once the budget is spent.
    pub fn rotate(&mut self) -> Option<Rotation> {
        let key_id = self.epoch_keys.pop_front()?;
        let kp = hpke::Keypair::generate(&mut self.rng);
        let pk = kp.public;
        let epoch = self.keyring.rotate(kp, key_id);
        let desc = RelayDescriptor {
            relay: self.idx,
            addr: self.addr,
            epoch,
            pk,
            key: key_id.0,
            member_seq: 0,
            servable: true,
        };
        let mut frame = vec![MSG_DESCRIPTOR];
        frame.extend_from_slice(&desc.sign(&self.secret));
        lock(&self.stats).rotations += 1;
        Some(Rotation {
            frame,
            next_us: self.first_tick_us(),
        })
    }

    /// The keypair for `epoch`, fail-closed: stale and future epochs
    /// are typed rejections, recorded in the run stats, and never fall
    /// back to a guessed key.
    pub fn open_epoch(&mut self, epoch: u64) -> Result<(&hpke::Keypair, KeyId), EpochError> {
        match self.keyring.open(epoch) {
            Ok(found) => Ok(found),
            Err(e) => {
                let mut s = lock(&self.stats);
                match e {
                    EpochError::Stale { .. } => s.stale_rejected += 1,
                    EpochError::Future { .. } => s.future_rejected += 1,
                }
                Err(e)
            }
        }
    }

    /// The current epoch number (for tests and reports).
    pub fn current_epoch(&self) -> u64 {
        self.keyring.current_epoch()
    }
}

/// A client's handle on its home directory plus its pinned chain.
/// Every wrap re-reads the live descriptors, so retries after a stale
/// rejection automatically pick up rotated keys.
#[derive(Clone)]
pub struct FleetClient {
    view: Arc<Mutex<DirectoryState>>,
    chain: Vec<u16>,
}

impl FleetClient {
    /// The pinned relay chain (fleet indices).
    pub fn chain(&self) -> &[u16] {
        &self.chain
    }

    /// Current epoch-tagged hops for the pinned chain, read fresh from
    /// the home directory.
    pub fn hops(&self) -> Vec<EpochHop> {
        self.chain
            .iter()
            .map(|&r| self.hop_of(r).expect("pinned relay missing from directory"))
            .collect()
    }

    /// The current epoch-tagged hop for one relay.
    pub fn hop_of(&self, relay: u16) -> Option<EpochHop> {
        let view = lock(&self.view);
        let d = view.get(relay)?;
        Some(EpochHop {
            hop: Hop {
                addr: d.addr,
                pk: d.pk,
                key_id: KeyId(d.key),
            },
            epoch: d.epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(pool: u16, cfg: &FleetConfig) -> (World, FleetSetup) {
        let mut world = World::new();
        let org = world.add_org("relays");
        let _u = world.add_user();
        let entities: Vec<EntityId> = (0..pool)
            .map(|i| world.add_entity(&format!("Relay {}", i + 1), org, None))
            .collect();
        let addrs: Vec<u16> = (0..pool).map(|i| 100 + i).collect();
        let setup = FleetSetup::build(&mut world, cfg, 11, &entities, &addrs);
        (world, setup)
    }

    #[test]
    fn genesis_directories_agree_and_chains_pin_identity() {
        let cfg = FleetConfig::standard().directories(3);
        let (_world, mut setup) = build(3, &cfg);
        let s = setup.summary();
        assert_eq!(s.directory_hashes.len(), 3);
        assert!(s.converged, "genesis directories disagree");
        // pool == k: the chain is the identity, in index order.
        assert_eq!(setup.chain(3).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn setup_is_seed_deterministic() {
        let cfg = FleetConfig::standard();
        let run = || {
            let (_w, mut s) = build(5, &cfg);
            (s.chain(3).unwrap(), s.summary().directory_hashes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clients_see_rotated_keys_through_the_shared_view() {
        let cfg = FleetConfig::standard();
        let (_world, setup) = build(2, &cfg);
        let client = setup.client(0, vec![0, 1]);
        let before = client.hops();
        assert_eq!(before[0].epoch, 0);

        // Simulate a merged rotation arriving at the home directory.
        {
            let mut view = lock(&setup.dirs[0]);
            let mut d = view.get(0).unwrap().clone();
            d.epoch = 1;
            d.pk = [0xEE; 32];
            d.key = 77;
            let mut wire = vec![MSG_DESCRIPTOR];
            wire.extend_from_slice(&d.sign(&setup.secret));
            view.apply_wire(&wire).unwrap();
        }
        let after = client.hops();
        assert_eq!(after[0].epoch, 1);
        assert_eq!(after[0].hop.key_id, KeyId(77));
        assert_eq!(after[1].epoch, 0, "unrotated relay changed");
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn relay_material_is_single_use() {
        let cfg = FleetConfig::standard();
        let (_world, mut setup) = build(2, &cfg);
        let _a = setup.relay(0);
        let _b = setup.relay(0);
    }

    /// Rotation needs no engine: each tick installs the next epoch under
    /// a world key minted at setup and hands back a descriptor the home
    /// directory merges, until the budget is spent.
    #[test]
    fn rotation_publishes_descriptors_until_the_budget_is_spent() {
        let cfg = FleetConfig::standard().max_rotations(2);
        let (world, mut setup) = build(2, &cfg);
        let relay_1 = world.entity_by_name("Relay 2").id;
        let mut relay = setup.relay(1);
        assert_eq!(relay.first_tick_us(), Some(cfg.rotation_interval_us));
        let mut home = DirectoryState::new(setup.secret);
        for epoch in 1..=2 {
            let rot = relay.rotate().expect("budget left");
            assert_eq!(home.apply_wire(&rot.frame), Ok(1));
            let d = home.get(1).expect("published");
            assert_eq!((d.epoch, relay.current_epoch()), (epoch, epoch));
            assert!(world.has_key(relay_1, KeyId(d.key)), "minted for the relay");
            let expected_next = (epoch < 2).then_some(cfg.rotation_interval_us);
            assert_eq!(rot.next_us, expected_next);
        }
        assert!(relay.rotate().is_none(), "budget spent");
        assert_eq!(setup.summary().stats.rotations, 2);

        let frozen = FleetConfig::standard().rotation_interval_us(0);
        assert_eq!(build(1, &frozen).1.relay(0).first_tick_us(), None);
    }
}
