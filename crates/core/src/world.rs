//! The [`World`]: entities, users, keys, and per-entity knowledge ledgers.
//!
//! A `World` is the shared bookkeeping behind a simulated system run.
//! Protocol code registers entities and users, mints [`KeyId`]s alongside
//! its real cryptographic keys, and calls [`World::observe`] whenever an
//! entity sees a payload. The ledger then answers "what does entity X know
//! about user S" — the raw material for every table in the paper.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use crate::entity::{Entity, EntityId, OrgId, UserId};
use crate::label::{InfoItem, InfoSet, KeyId, Label};
use crate::obs::{ObsEvent, ObsHandle, ObsSink};
use crate::tuple::KnowledgeTuple;

/// The knowledge base for one simulated system.
#[derive(Clone, Debug, Default)]
pub struct World {
    entities: Vec<Entity>,
    orgs: BTreeMap<OrgId, String>,
    users: Vec<UserId>,
    /// Per-entity ledgers and keyrings, indexed by the dense
    /// [`EntityId`] that [`World::add_entity`] hands out.
    ledgers: Vec<InfoSet>,
    keys: Vec<BTreeSet<KeyId>>,
    next_org: u64,
    next_user: u64,
    next_key: u64,
    /// The installed observability sink (shared across clones; `None` —
    /// the default — makes every emission point a single branch).
    obs: ObsHandle,
    /// Sim-time clock for observability timestamps, advanced by the
    /// simulator's dispatch loop.
    obs_now_us: u64,
}

impl World {
    /// An empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an organization (an institutional trust domain).
    pub fn add_org(&mut self, name: &str) -> OrgId {
        let id = OrgId(self.next_org);
        self.next_org += 1;
        self.orgs.insert(id, name.to_string());
        id
    }

    /// Register a user (data subject).
    pub fn add_user(&mut self) -> UserId {
        let id = UserId(self.next_user);
        self.next_user += 1;
        self.users.push(id);
        id
    }

    /// Register an entity operated by `org`. Pass `user_domain =
    /// Some(user)` for the user's own device.
    pub fn add_entity(&mut self, name: &str, org: OrgId, user_domain: Option<UserId>) -> EntityId {
        let id = EntityId(self.entities.len() as u64);
        self.entities.push(Entity {
            id,
            name: name.to_string(),
            org,
            user_domain,
        });
        self.ledgers.push(InfoSet::new());
        self.keys.push(BTreeSet::new());
        id
    }

    /// Mint a fresh key capability and grant it to `holders`.
    pub fn new_key(&mut self, holders: &[EntityId]) -> KeyId {
        let id = KeyId(self.next_key);
        self.next_key += 1;
        for h in holders {
            self.keys
                .get_mut(h.0 as usize)
                .expect("unknown entity granted key")
                .insert(id);
        }
        id
    }

    /// Grant an existing key to another entity (e.g. key distribution, or a
    /// modeled compromise).
    pub fn grant_key(&mut self, entity: EntityId, key: KeyId) {
        self.keys
            .get_mut(entity.0 as usize)
            .expect("unknown entity")
            .insert(key);
    }

    /// Does `entity` hold `key`?
    pub fn has_key(&self, entity: EntityId, key: KeyId) -> bool {
        self.keys
            .get(entity.0 as usize)
            .is_some_and(|s| s.contains(&key))
    }

    /// Every key `entity` currently holds (e.g. to model a compromise
    /// that leaks a victim's whole keyring).
    pub fn keys_of(&self, entity: EntityId) -> Vec<KeyId> {
        self.keys
            .get(entity.0 as usize)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Record that `entity` observed a payload with the given label:
    /// everything its keys can open is added to its ledger. Returns the
    /// newly-learned items.
    ///
    /// The label is walked in place against the borrowed keyring, and
    /// only items the ledger lacks are copied, so a delivery that teaches
    /// nothing new allocates nothing.
    pub fn observe(&mut self, entity: EntityId, label: &Label) -> InfoSet {
        let slot = entity.0 as usize;
        let keys = self.keys.get(slot).expect("unknown entity");
        let ledger = self.ledgers.get_mut(slot).expect("unknown entity");
        let mut fresh = InfoSet::new();
        label.visit(&|k| keys.contains(&k), &mut |item| {
            if ledger.insert(item.clone()) {
                fresh.insert(item.clone());
            }
        });
        if self.obs.is_enabled() {
            for item in &fresh {
                self.obs.emit(
                    self.obs_now_us,
                    &ObsEvent::Knowledge {
                        entity,
                        item: item.clone(),
                    },
                );
            }
        }
        fresh
    }

    /// Record an out-of-band fact (e.g. "the ISP knows the subscriber's
    /// name from the billing relationship").
    pub fn record(&mut self, entity: EntityId, item: InfoItem) {
        let fresh = self
            .ledgers
            .get_mut(entity.0 as usize)
            .expect("unknown entity")
            .insert(item.clone());
        if fresh && self.obs.is_enabled() {
            self.obs
                .emit(self.obs_now_us, &ObsEvent::Knowledge { entity, item });
        }
    }

    /// Install an observability sink; every subsequent ledger accrual,
    /// simulator wire event, and protocol emission flows through it.
    pub fn install_obs(&mut self, sink: Arc<Mutex<dyn ObsSink>>) {
        self.obs = ObsHandle::new(sink);
    }

    /// Remove the installed sink (retained `World`s stop emitting).
    pub fn clear_obs(&mut self) {
        self.obs.clear();
    }

    /// Is an observability sink installed?
    #[inline]
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_enabled()
    }

    /// Advance the observability clock (the simulator calls this as its
    /// event loop advances sim-time).
    #[inline]
    pub fn set_obs_now(&mut self, us: u64) {
        self.obs_now_us = us;
    }

    /// Current observability clock, µs of sim-time.
    #[inline]
    pub fn obs_now(&self) -> u64 {
        self.obs_now_us
    }

    /// Emit an event at the current observability clock. One branch when
    /// no sink is installed.
    #[inline]
    pub fn emit(&self, event: &ObsEvent) {
        self.obs.emit(self.obs_now_us, event);
    }

    /// Emit an event at an explicit sim-time.
    #[inline]
    pub fn emit_at(&self, at_us: u64, event: &ObsEvent) {
        self.obs.emit(at_us, event);
    }

    /// Count one cryptographic operation (protocol code calls this next
    /// to the real crypto invocation).
    #[inline]
    pub fn crypto_op(&self, op: &'static str) {
        if self.obs.is_enabled() {
            self.obs.emit(self.obs_now_us, &ObsEvent::CryptoOp { op });
        }
    }

    /// Record a completed protocol-phase span `[start_us, end_us]`.
    #[inline]
    pub fn span(&self, name: &'static str, start_us: u64, end_us: u64) {
        if self.obs.is_enabled() {
            self.obs.emit(
                end_us,
                &ObsEvent::Span {
                    name,
                    start_us,
                    end_us,
                },
            );
        }
    }

    /// The full ledger of `entity`.
    pub fn ledger(&self, entity: EntityId) -> &InfoSet {
        self.ledgers.get(entity.0 as usize).expect("unknown entity")
    }

    /// Knowledge tuple of `entity` about `subject`.
    pub fn tuple(&self, entity: EntityId, subject: UserId) -> KnowledgeTuple {
        KnowledgeTuple::from_items(self.ledger(entity).iter().filter(|i| i.subject == subject))
    }

    /// Combined tuple of a coalition about `subject` (collusion closure of
    /// their union of ledgers).
    pub fn coalition_tuple(&self, coalition: &[EntityId], subject: UserId) -> KnowledgeTuple {
        KnowledgeTuple::from_items(
            coalition
                .iter()
                .flat_map(|e| self.ledger(*e).iter())
                .filter(|i| i.subject == subject),
        )
    }

    /// All registered entities, in registration order.
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// Look up an entity.
    pub fn entity(&self, id: EntityId) -> &Entity {
        self.entities.get(id.0 as usize).expect("unknown entity")
    }

    /// Find an entity by name (panics if absent — table assertions use
    /// stable names).
    pub fn entity_by_name(&self, name: &str) -> &Entity {
        self.entities
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no entity named {name:?}"))
    }

    /// All registered users.
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// Organization name.
    pub fn org_name(&self, org: OrgId) -> &str {
        self.orgs.get(&org).map(String::as_str).unwrap_or("?")
    }

    /// Entities operated by `org`.
    pub fn entities_of_org(&self, org: OrgId) -> Vec<EntityId> {
        self.entities
            .iter()
            .filter(|e| e.org == org)
            .map(|e| e.id)
            .collect()
    }

    /// All organizations.
    pub fn orgs(&self) -> impl Iterator<Item = OrgId> + '_ {
        self.orgs.keys().copied()
    }

    /// Assert the §2.4 decoupling invariant: no entity outside a user's
    /// own trust domain holds a coupled `(▲, ●)` tuple about them. Panics
    /// with the full offender list otherwise — the safety check the DST
    /// harness runs after every faulted simulation.
    pub fn assert_decoupled_except_user(&self) {
        let verdict = crate::analysis::analyze(self);
        assert!(
            verdict.decoupled,
            "decoupling violated: {}",
            verdict
                .violations
                .iter()
                .map(|v| format!(
                    "{} knows {} about user {}",
                    v.entity_name, v.tuple, v.subject.0
                ))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{DataKind, IdentityKind};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference `observe`: clone the keyring, collect everything it
    /// opens, and diff that against the ledger. `World::observe` walks
    /// the label in place instead and must agree with this exactly.
    fn observe_by_diff(w: &mut World, entity: EntityId, label: &Label) -> InfoSet {
        let slot = entity.0 as usize;
        let keys = w.keys[slot].clone();
        let learned = label.observe(|k| keys.contains(&k));
        let ledger = &mut w.ledgers[slot];
        let fresh: InfoSet = learned.difference(ledger).cloned().collect();
        ledger.extend(learned);
        for item in &fresh {
            w.obs.emit(
                w.obs_now_us,
                &ObsEvent::Knowledge {
                    entity,
                    item: item.clone(),
                },
            );
        }
        fresh
    }

    /// Records every knowledge event, in order.
    #[derive(Default)]
    struct Accruals(Vec<(u64, EntityId, InfoItem)>);

    impl ObsSink for Accruals {
        fn on_event(&mut self, at_us: u64, event: &ObsEvent) {
            if let ObsEvent::Knowledge { entity, item } = event {
                self.0.push((at_us, *entity, item.clone()));
            }
        }
    }

    /// A random label of nesting depth at most `depth`, drawing items
    /// from a small `pool` so that one item often sits in several parts.
    fn random_label(rng: &mut StdRng, pool: &[InfoItem], keys: &[KeyId], depth: u32) -> Label {
        match rng.gen_range(0..if depth == 0 { 2 } else { 4 }) {
            0 => Label::Public,
            1 => Label::items(
                (0..rng.gen_range(0..4)).map(|_| pool[rng.gen_range(0..pool.len())].clone()),
            ),
            2 => {
                random_label(rng, pool, keys, depth - 1).sealed(keys[rng.gen_range(0..keys.len())])
            }
            _ => Label::Bundle(
                (0..rng.gen_range(0..4))
                    .map(|_| random_label(rng, pool, keys, depth - 1))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random labels (depth ≤ 4), random key grants and repeated
        /// observations, with and without a sink: the in-place walk and
        /// the clone-and-diff reference return the same fresh sets, leave
        /// the same ledgers and emit the same knowledge events.
        #[test]
        fn observe_matches_the_clone_and_diff_reference(
            seed in any::<u64>(),
            with_sink in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut world = World::new();
            let org = world.add_org("o");
            let users: Vec<UserId> = (0..2).map(|_| world.add_user()).collect();
            let entities: Vec<EntityId> =
                (0..3).map(|i| world.add_entity(&format!("E{i}"), org, None)).collect();
            let keys: Vec<KeyId> = (0..4).map(|_| world.new_key(&[])).collect();
            for &e in &entities {
                for &k in &keys {
                    if rng.gen_bool(0.5) {
                        world.grant_key(e, k);
                    }
                }
            }
            let pool: Vec<InfoItem> = users
                .iter()
                .flat_map(|&u| {
                    [
                        InfoItem::sensitive_identity(u, IdentityKind::Network),
                        InfoItem::sensitive_data(u, DataKind::Payload),
                        InfoItem::plain_data(u, DataKind::Destination),
                    ]
                })
                .collect();
            let labels: Vec<Label> =
                (0..4).map(|_| random_label(&mut rng, &pool, &keys, 4)).collect();

            let mut reference = world.clone();
            let sinks = [(); 2].map(|_| Arc::new(Mutex::new(Accruals::default())));
            if with_sink {
                world.install_obs(sinks[0].clone());
                reference.install_obs(sinks[1].clone());
            }
            for step in 0..16 {
                if rng.gen_bool(0.25) {
                    let e = entities[rng.gen_range(0..entities.len())];
                    let k = keys[rng.gen_range(0..keys.len())];
                    world.grant_key(e, k);
                    reference.grant_key(e, k);
                }
                let entity = entities[rng.gen_range(0..entities.len())];
                let label = &labels[rng.gen_range(0..labels.len())];
                world.set_obs_now(step);
                reference.set_obs_now(step);
                prop_assert_eq!(
                    world.observe(entity, label),
                    observe_by_diff(&mut reference, entity, label)
                );
            }
            for &e in &entities {
                prop_assert_eq!(world.ledger(e), reference.ledger(e));
            }
            let [ours, theirs] = sinks.map(|s| std::mem::take(&mut s.lock().unwrap().0));
            prop_assert_eq!(ours, theirs);
        }
    }

    #[test]
    fn observe_respects_keys() {
        let mut w = World::new();
        let org = w.add_org("acme");
        let user = w.add_user();
        let a = w.add_entity("A", org, None);
        let b = w.add_entity("B", org, None);
        let key = w.new_key(&[b]);

        let secret = InfoItem::sensitive_data(user, DataKind::Payload);
        let label = Label::item(secret.clone()).sealed(key);

        assert!(w.observe(a, &label).is_empty(), "A lacks the key");
        let learned = w.observe(b, &label);
        assert!(learned.contains(&secret));
        assert!(w.ledger(b).contains(&secret));
        assert!(w.ledger(a).is_empty());
    }

    #[test]
    fn observe_reports_only_fresh_items() {
        let mut w = World::new();
        let org = w.add_org("o");
        let user = w.add_user();
        let e = w.add_entity("E", org, None);
        let item = InfoItem::plain_data(user, DataKind::Payload);
        let l = Label::item(item);
        assert_eq!(w.observe(e, &l).len(), 1);
        assert_eq!(w.observe(e, &l).len(), 0, "second observation not fresh");
    }

    #[test]
    fn tuples_are_per_subject() {
        let mut w = World::new();
        let org = w.add_org("o");
        let u1 = w.add_user();
        let u2 = w.add_user();
        let e = w.add_entity("E", org, None);
        w.record(e, InfoItem::sensitive_identity(u1, IdentityKind::Any));
        w.record(e, InfoItem::sensitive_data(u2, DataKind::Payload));
        assert!(w.tuple(e, u1).has_sensitive_identity());
        assert!(!w.tuple(e, u1).has_sensitive_data());
        assert!(w.tuple(e, u2).has_sensitive_data());
        assert!(!w.tuple(e, u2).has_sensitive_identity());
        // Neither subject is coupled at E.
        assert!(!w.tuple(e, u1).is_coupled() && !w.tuple(e, u2).is_coupled());
    }

    #[test]
    fn coalition_tuple_unions_knowledge() {
        let mut w = World::new();
        let org = w.add_org("o");
        let user = w.add_user();
        let a = w.add_entity("A", org, None);
        let b = w.add_entity("B", org, None);
        w.record(a, InfoItem::sensitive_identity(user, IdentityKind::Any));
        w.record(b, InfoItem::sensitive_data(user, DataKind::Payload));
        assert!(!w.tuple(a, user).is_coupled());
        assert!(!w.tuple(b, user).is_coupled());
        assert!(
            w.coalition_tuple(&[a, b], user).is_coupled(),
            "collusion re-couples"
        );
    }

    #[test]
    fn key_grant_extends_visibility() {
        let mut w = World::new();
        let org = w.add_org("o");
        let user = w.add_user();
        let a = w.add_entity("A", org, None);
        let key = w.new_key(&[]);
        let label = Label::item(InfoItem::sensitive_data(user, DataKind::Payload)).sealed(key);
        assert!(w.observe(a, &label).is_empty());
        w.grant_key(a, key);
        assert_eq!(w.observe(a, &label).len(), 1);
    }

    #[test]
    fn keys_of_enumerates_the_keyring() {
        let mut w = World::new();
        let org = w.add_org("o");
        let a = w.add_entity("A", org, None);
        let b = w.add_entity("B", org, None);
        let k1 = w.new_key(&[a]);
        let k2 = w.new_key(&[a, b]);
        assert_eq!(w.keys_of(a), vec![k1, k2]);
        assert_eq!(w.keys_of(b), vec![k2]);
        // A modeled compromise: copy A's keyring to B.
        for k in w.keys_of(a) {
            w.grant_key(b, k);
        }
        assert_eq!(w.keys_of(b), vec![k1, k2]);
    }

    #[test]
    fn assert_decoupled_passes_with_user_exemption() {
        let mut w = World::new();
        let org = w.add_org("user-org");
        let u = w.add_user();
        let client = w.add_entity("Client", org, Some(u));
        w.record(client, InfoItem::sensitive_identity(u, IdentityKind::Any));
        w.record(client, InfoItem::sensitive_data(u, DataKind::Payload));
        w.assert_decoupled_except_user();
    }

    #[test]
    #[should_panic(expected = "decoupling violated")]
    fn assert_decoupled_panics_on_third_party_coupling() {
        let mut w = World::new();
        let org = w.add_org("vpn");
        let u = w.add_user();
        let e = w.add_entity("VPN Server", org, None);
        w.record(e, InfoItem::sensitive_identity(u, IdentityKind::Any));
        w.record(e, InfoItem::sensitive_data(u, DataKind::Destination));
        w.assert_decoupled_except_user();
    }

    #[test]
    fn entity_lookup() {
        let mut w = World::new();
        let org = w.add_org("org-x");
        let e = w.add_entity("Resolver", org, None);
        assert_eq!(w.entity_by_name("Resolver").id, e);
        assert_eq!(w.org_name(org), "org-x");
        assert_eq!(w.entities_of_org(org), vec![e]);
    }
}
