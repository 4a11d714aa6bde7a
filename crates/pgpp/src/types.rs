//! Label-bounded wire types and typed roles for the PGPP wiring.
//!
//! Every [`WireLabel`] impl for this crate lives in this module (the CI
//! layering lint holds wiring crates to that). The scenario runs the
//! *same* role code in two modes, so the cores are two distinct typed
//! roles: [`PgppCore`] is bounded at `(△, ⊙/●)` — shuffled pseudonyms,
//! cell-granularity location — while [`LegacyCore`] must say
//! [`KnowledgeCap::coupled_by_design`] out loud, because a permanent
//! IMSI plus the billing database *is* the paper's §3.2.3 coupling.

use dcp_core::cap::{Addressed, Blinded, KnowledgeCap, WireLabel};
use dcp_core::role::{Role, RoleKind};
use dcp_core::Sensitivity;

/// An attach as content: the subscriber's serving cell — sensitive
/// location data with no identity of its own.
pub struct LocationUpdate;

impl WireLabel for LocationUpdate {
    const IDENTITY: Sensitivity = Sensitivity::NonSensitive;
    const DATA: Sensitivity = Sensitivity::Sensitive;
}

/// A legacy attach: the permanent IMSI (resolvable to the human via the
/// billing database) rides the envelope, bound to the serving cell —
/// `(▲, ●)`, stated in the type.
pub type LegacyAttach = Addressed<LocationUpdate>;

/// A PGPP attach: an epoch-shuffled pseudonym (`△`) bound to
/// cell-granularity location (`⊙/●`) — a cap no marker combinator
/// produces, so it is declared directly.
pub struct PgppAttach;

impl WireLabel for PgppAttach {
    const IDENTITY: Sensitivity = Sensitivity::NonSensitive;
    const DATA: Sensitivity = Sensitivity::Partial;
}

/// The token-issuance leg phone → gateway: billing identity
/// authenticates (▲ on the envelope), the batch is blinded (⊙).
pub type IssueTokensReq = Addressed<Blinded<LocationUpdate>>;

/// The verification leg core → gateway: a bare unlinkable token.
pub type VerifyTokenReq = Blinded<LocationUpdate>;

/// The subscriber's handset (initiator).
pub struct Handset;

impl Role for Handset {
    const KIND: RoleKind = RoleKind::Initiator;
    const NAME: &'static str = "pgpp-handset";
}

/// The PGPP gateway: bills the human (`▲_H`) but sees only blinded
/// token traffic (`⊙`) — `(▲, ⊙)` declared as an override of the
/// service default.
pub struct PgppGateway;

impl Role for PgppGateway {
    const KIND: RoleKind = RoleKind::Service;
    const NAME: &'static str = "pgpp-gateway";
    const CAP: KnowledgeCap = KnowledgeCap::new(Sensitivity::Sensitive, Sensitivity::NonSensitive);
}

/// The cellular core under PGPP: pseudonymous attaches, coarse location
/// — `(△, ⊙/●)`.
pub struct PgppCore;

impl Role for PgppCore {
    const KIND: RoleKind = RoleKind::Service;
    const NAME: &'static str = "pgpp-core";
    const CAP: KnowledgeCap = KnowledgeCap::new(Sensitivity::NonSensitive, Sensitivity::Partial);
}

/// The legacy cellular core: the permanent IMSI resolves to the
/// subscriber, every attach is a tracked location — the §3.2.3 negative
/// example, admissible only as an explicit coupling.
pub struct LegacyCore;

impl Role for LegacyCore {
    const KIND: RoleKind = RoleKind::Service;
    const NAME: &'static str = "legacy-core";
    const CAP: KnowledgeCap = KnowledgeCap::coupled_by_design();
}

/// Entity-name rows (matched by prefix) → declared caps for a PGPP-mode
/// run, reconciled against runtime ledgers by the cap-reconciliation
/// proptest.
pub fn pgpp_declared_caps() -> Vec<(&'static str, KnowledgeCap)> {
    vec![
        ("User", Handset::CAP),
        ("PGPP-GW", PgppGateway::CAP),
        ("NGC", PgppCore::CAP),
    ]
}

/// Entity-name rows → declared caps for a legacy-mode run.
pub fn legacy_declared_caps() -> Vec<(&'static str, KnowledgeCap)> {
    vec![
        ("User", Handset::CAP),
        ("PGPP-GW", PgppGateway::CAP),
        ("NGC", LegacyCore::CAP),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_cores_differ_exactly_in_coupling() {
        assert_eq!(PgppCore::CAP.render(), "(△, ⊙/●)");
        assert!(LegacyCore::CAP.is_coupled());
        assert_eq!(PgppGateway::CAP.render(), "(▲, ⊙)");
        assert!(!PgppCore::CAP.admits(
            <LegacyAttach as WireLabel>::IDENTITY,
            <LegacyAttach as WireLabel>::DATA
        ));
        assert!(PgppCore::CAP.admits(PgppAttach::IDENTITY, PgppAttach::DATA));
    }
}
