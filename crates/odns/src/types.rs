//! Label-bounded wire types and typed roles for the oblivious-DNS
//! wirings.
//!
//! Every [`WireLabel`] impl for this crate lives in this module (the CI
//! layering lint holds wiring crates to that). Three wirings share these
//! types, each written once as seam roles and served as is by `serve`:
//! ODoH (`scenario::odoh`), the original ODNS (`scenario::legacy`,
//! where the ciphertext hides in the queried *name* and the
//! [`ObliviousProxy`] is ODoH's proxy, unmodified), and the plain-DNS
//! coupled baseline (`scenario::direct`).
//! The paper's §3.2.2 table is stated here once, as caps:
//!
//! | Client | Resolver | Oblivious Resolver | Origin |
//! |--------|----------|--------------------|--------|
//! | (▲, ●) | (▲, ⊙)   | (△, ⊙/●)           | (△, ●) |

use dcp_core::cap::{Addressed, KnowledgeCap, Sealed, WireLabel};
use dcp_core::role::{Role, RoleKind};
use dcp_core::Sensitivity;

/// A DNS query as content: what is being asked — sensitive data with no
/// identity of its own. Also the target→origin leg verbatim: the origin
/// reads the question from the resolver's (anonymous-aggregate) address.
pub struct DnsQuery;

impl WireLabel for DnsQuery {
    const IDENTITY: Sensitivity = Sensitivity::NonSensitive;
    const DATA: Sensitivity = Sensitivity::Sensitive;
}

/// The client's first hop, both protocols: the access link names the
/// client (▲) around a query sealed to the target's key (⊙) — whether
/// the ciphertext rides an ODoH body or hex inside a domain name.
pub type SealedQuery = Addressed<Sealed<DnsQuery>>;

/// The proxy→target leg: the target opens a query it cannot attribute.
/// Its view is partial by construction — the question, never the asker —
/// so the data half is `⊙/●`, declared directly (no wrapper produces a
/// partial cap).
pub struct ObliviousQuery;

impl WireLabel for ObliviousQuery {
    const IDENTITY: Sensitivity = Sensitivity::NonSensitive;
    const DATA: Sensitivity = Sensitivity::Partial;
}

/// Plain DNS on the wire: the client's address around a readable
/// question — `(▲, ●)`, the coupling the oblivious protocols remove.
pub type CoupledQuery = Addressed<DnsQuery>;

/// A stub-resolver client (initiator).
pub struct StubClient;

impl Role for StubClient {
    const KIND: RoleKind = RoleKind::Initiator;
    const NAME: &'static str = "odns-client";
}

/// The recursive resolver the client actually talks to — ODoH's proxy,
/// or legacy ODNS's unmodified recursive. Sees who asks, never what:
/// the relay default `(▲, ⊙)`.
pub struct ObliviousProxy;

impl Role for ObliviousProxy {
    const KIND: RoleKind = RoleKind::Relay;
    const NAME: &'static str = "odns-proxy";
}

/// The oblivious resolver (ODoH target / ODNS authority): reads queries
/// it cannot attribute — `(△, ⊙/●)`, narrower than the service default.
pub struct ObliviousTarget;

impl Role for ObliviousTarget {
    const KIND: RoleKind = RoleKind::Service;
    const NAME: &'static str = "odns-target";
    const CAP: KnowledgeCap = KnowledgeCap::new(Sensitivity::NonSensitive, Sensitivity::Partial);
}

/// The authoritative origin behind the oblivious resolver: full
/// questions from an anonymous aggregate — `(△, ●)`, the service
/// default.
pub struct AuthOrigin;

impl Role for AuthOrigin {
    const KIND: RoleKind = RoleKind::Service;
    const NAME: &'static str = "odns-origin";
}

/// The plain-DNS resolver of the coupled baseline: sees both who and
/// what — declared loudly, because the coupling *is* the baseline.
pub struct CoupledResolver;

impl Role for CoupledResolver {
    const KIND: RoleKind = RoleKind::Service;
    const NAME: &'static str = "odns-plain-resolver";
    const CAP: KnowledgeCap = KnowledgeCap::coupled_by_design();
}

/// The origin of the coupled baseline: plain DNS hides nothing anywhere
/// on the path, so the label arrives intact — coupled by design too.
pub struct ExposedOrigin;

impl Role for ExposedOrigin {
    const KIND: RoleKind = RoleKind::Service;
    const NAME: &'static str = "odns-plain-origin";
    const CAP: KnowledgeCap = KnowledgeCap::coupled_by_design();
}

/// Entity-name rows (matched by prefix) → declared caps for the two
/// oblivious wirings (ODoH and legacy ODNS share one table, and the
/// proptest reconciles both against it). "Resolver" matches the backup
/// proxies' `Resolver N` rows; "Oblivious Resolver" is listed too since
/// prefix matching would otherwise fold it into "Resolver".
pub fn declared_caps() -> Vec<(&'static str, KnowledgeCap)> {
    vec![
        ("Client", StubClient::CAP),
        ("Resolver", ObliviousProxy::CAP),
        ("Oblivious Resolver", ObliviousTarget::CAP),
        ("Origin", AuthOrigin::CAP),
    ]
}

/// Declared caps for the plain-DNS baseline: every non-client row is a
/// coupling, stated as such.
pub fn direct_declared_caps() -> Vec<(&'static str, KnowledgeCap)> {
    vec![
        ("Client", StubClient::CAP),
        ("Resolver", CoupledResolver::CAP),
        ("Origin", ExposedOrigin::CAP),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_restate_the_paper_table() {
        assert_eq!(StubClient::CAP.render(), "(▲, ●)");
        assert_eq!(ObliviousProxy::CAP.render(), "(▲, ⊙)");
        assert_eq!(ObliviousTarget::CAP.render(), "(△, ⊙/●)");
        assert_eq!(AuthOrigin::CAP.render(), "(△, ●)");
        // The proxy may carry sealed queries, never readable ones.
        assert!(ObliviousProxy::CAP.admits(
            <SealedQuery as WireLabel>::IDENTITY,
            <SealedQuery as WireLabel>::DATA
        ));
        assert!(!ObliviousProxy::CAP.admits(DnsQuery::IDENTITY, DnsQuery::DATA));
        // The target's partial view fits its cap; a plain coupled query
        // fits only the baseline's loudly-coupled roles.
        assert!(ObliviousTarget::CAP.admits(ObliviousQuery::IDENTITY, ObliviousQuery::DATA));
        assert!(!AuthOrigin::CAP.admits(
            <CoupledQuery as WireLabel>::IDENTITY,
            <CoupledQuery as WireLabel>::DATA
        ));
        assert!(CoupledResolver::CAP.admits(
            <CoupledQuery as WireLabel>::IDENTITY,
            <CoupledQuery as WireLabel>::DATA
        ));
        assert!(ExposedOrigin::CAP.is_coupled());
    }
}
