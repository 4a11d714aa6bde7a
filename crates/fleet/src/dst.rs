//! Fleet-side DST artifacts: run counters, the per-run summary embedded
//! in scenario reports, and the restricted knowledge-fingerprint used by
//! the `dst_fleet` byte-identity probe.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use dcp_core::World;

/// Counters shared (via `Arc<Mutex<_>>`) between the directory nodes,
/// the relay keyrings, and the wiring that assembles the final report.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct FleetStats {
    /// Ciphertexts rejected because their epoch aged out of grace.
    pub stale_rejected: u64,
    /// Ciphertexts rejected for claiming an epoch not yet reached.
    pub future_rejected: u64,
    /// Key rotations performed across all relays.
    pub rotations: u64,
    /// Churn joins authored by the lead directory.
    pub joins: u64,
    /// Churn leaves authored by the lead directory.
    pub leaves: u64,
    /// Gossip records dropped fail-closed (bad tag / truncation).
    pub gossip_rejects: u64,
    /// Gossip snapshots pushed between directories.
    pub gossip_sends: u64,
}

/// Lock a piece of shared fleet state.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("no fleet role panicked holding shared state")
}

/// What a fleet-enabled run reports: configuration echoes, the chains
/// that were pinned, the shared counters, and the convergence verdict.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct FleetSummary {
    /// Whether the fleet layer was active at all this run.
    pub enabled: bool,
    /// Relay pool size the directory was seeded with.
    pub pool: u16,
    /// Number of directory nodes.
    pub directories: u16,
    /// The chain (relay indices) pinned for each client, in client order.
    pub chains: Vec<Vec<u16>>,
    /// Shared run counters.
    pub stats: FleetStats,
    /// Final state hash of every directory, in directory order.
    pub directory_hashes: Vec<u64>,
    /// Whether all directories ended on the same state hash.
    pub converged: bool,
    /// Highest key epoch reached (as seen by directory 0).
    pub max_epoch: u64,
}

impl FleetSummary {
    /// The summary of a run with the fleet layer off.
    pub fn disabled() -> FleetSummary {
        FleetSummary::default()
    }
}

/// Knowledge rows (entity name → rendered per-user tuples) restricted
/// to `names`, in entity registration order. The `dst_fleet` probe
/// compares a fleet-enabled run against the fixed-relay baseline on the
/// baseline's entities only — directory entities exist solely in the
/// fleet run and are checked separately for silence.
pub fn restricted_fingerprint(
    world: &World,
    names: &BTreeSet<String>,
) -> Vec<(String, Vec<String>)> {
    world
        .entities()
        .iter()
        .filter(|e| names.contains(&e.name))
        .map(|e| {
            let tuples = world
                .users()
                .iter()
                .map(|&u| world.tuple(e.id, u).render())
                .collect();
            (e.name.clone(), tuples)
        })
        .collect()
}

/// `true` iff every entity whose name starts with `prefix` has an empty
/// knowledge ledger — the directory layer must learn nothing about
/// users (its traffic is `Label::Public`).
pub fn entities_silent(world: &World, prefix: &str) -> bool {
    world
        .entities()
        .iter()
        .filter(|e| e.name.starts_with(prefix))
        .all(|e| world.ledger(e.id).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_summary_is_inert() {
        let s = FleetSummary::disabled();
        assert!(!s.enabled);
        assert!(s.chains.is_empty());
        assert_eq!(s.stats, FleetStats::default());
    }

    #[test]
    fn restricted_fingerprint_filters_and_orders() {
        let mut w = World::new();
        let org = w.add_org("org");
        let u = w.add_user();
        let a = w.add_entity("A", org, None);
        let _dir = w.add_entity("Directory 1", org, None);
        let b = w.add_entity("B", org, None);

        let names: BTreeSet<String> = ["A", "B"].iter().map(|s| s.to_string()).collect();
        let fp = restricted_fingerprint(&w, &names);
        assert_eq!(fp.len(), 2);
        assert_eq!(fp[0].0, "A");
        assert_eq!(fp[1].0, "B");
        assert_eq!(fp[0].1.len(), 1);

        assert!(entities_silent(&w, "Directory"));
        let _ = (a, b, u);
    }
}
