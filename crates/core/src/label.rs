//! Information atoms, sensitivity lattices, and payload label trees.
//!
//! Every plaintext that flows through the simulator carries an [`InfoSet`]:
//! the set of facts an observer learns by reading it. Encryption wraps that
//! set inside a [`Label::Sealed`] node keyed by a [`KeyId`]; only entities
//! holding the key can descend into the node. This mirrors the *real*
//! cryptographic structure built by `dcp-transport` (HPKE layers, onion
//! wrapping) so that "who learns what" is a computation over labels, never
//! a hand-written assertion.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::entity::UserId;

/// Sensitivity of a piece of information, per §2.4 of the paper.
///
/// The paper's footnote 1 acknowledges that sensitivity is not binary; we
/// add `Partial` for data that is "limited information about the user's
/// request (such as the FQDN of the origin server)" — rendered `⊙/●` in
/// the MPR and blind-signature tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Sensitivity {
    /// `⊙` / `△` — non-sensitive.
    NonSensitive,
    /// `⊙/●` — limited sensitive content (data only).
    Partial,
    /// `●` / `▲` — sensitive.
    Sensitive,
}

/// Which *kind* of user identity an item names. §3.2.3 (PGPP) decomposes
/// `▲` into a human identity `▲_H` (name, billing) and a network identity
/// `▲_N` (IMSI, IP address); other systems use a single undifferentiated
/// identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IdentityKind {
    /// Undifferentiated user identity (most tables in the paper).
    Any,
    /// Human identity: legal name, billing relationship (`▲_H`).
    Human,
    /// Network identity: IP address, IMSI, account id (`▲_N`).
    Network,
}

/// Which kind of user data an item describes. Used for reporting and for
/// fine-grained experiments (e.g. DNS striping measures `DnsQuery` items).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DataKind {
    /// Generic application payload.
    Payload,
    /// A DNS query name.
    DnsQuery,
    /// The destination/origin a user is contacting (FQDN or address).
    Destination,
    /// Message content in a messaging system.
    Message,
    /// A financial transaction (amount, merchandise).
    Purchase,
    /// Physical location (cell, geo-area).
    Location,
    /// An individual telemetry/measurement contribution.
    Measurement,
    /// Browsing or usage history in aggregate.
    Activity,
}

/// The aspect of the user an [`InfoItem`] describes: an identity or data.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Aspect {
    /// A user identity of the given kind.
    Identity(IdentityKind),
    /// User data of the given kind.
    Data(DataKind),
}

/// One labeled atom of knowledge: *entity X knows this aspect of user S
/// at this sensitivity*.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InfoItem {
    /// The user (data subject) the item is about.
    pub subject: UserId,
    /// Identity or data, and which kind.
    pub aspect: Aspect,
    /// How sensitive the item is.
    pub sensitivity: Sensitivity,
}

impl InfoItem {
    /// A sensitive identity item (`▲`).
    pub fn sensitive_identity(subject: UserId, kind: IdentityKind) -> Self {
        InfoItem {
            subject,
            aspect: Aspect::Identity(kind),
            sensitivity: Sensitivity::Sensitive,
        }
    }

    /// A non-sensitive identity item (`△`), e.g. "an anonymous member of a
    /// network aggregate".
    pub fn plain_identity(subject: UserId, kind: IdentityKind) -> Self {
        InfoItem {
            subject,
            aspect: Aspect::Identity(kind),
            sensitivity: Sensitivity::NonSensitive,
        }
    }

    /// A sensitive data item (`●`).
    pub fn sensitive_data(subject: UserId, kind: DataKind) -> Self {
        InfoItem {
            subject,
            aspect: Aspect::Data(kind),
            sensitivity: Sensitivity::Sensitive,
        }
    }

    /// A partially-sensitive data item (`⊙/●`), e.g. an origin FQDN.
    pub fn partial_data(subject: UserId, kind: DataKind) -> Self {
        InfoItem {
            subject,
            aspect: Aspect::Data(kind),
            sensitivity: Sensitivity::Partial,
        }
    }

    /// A non-sensitive data item (`⊙`).
    pub fn plain_data(subject: UserId, kind: DataKind) -> Self {
        InfoItem {
            subject,
            aspect: Aspect::Data(kind),
            sensitivity: Sensitivity::NonSensitive,
        }
    }

    /// Is this an identity item?
    pub fn is_identity(&self) -> bool {
        matches!(self.aspect, Aspect::Identity(_))
    }
}

/// A set of information atoms.
pub type InfoSet = BTreeSet<InfoItem>;

/// Identifier of a decryption capability. A [`Label::Sealed`] node can only
/// be opened by entities that hold its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct KeyId(pub u64);

/// The information structure of a payload, mirroring its encryption
/// structure.
///
/// `dcp-transport` keeps labels in lock-step with real ciphertext: sealing
/// bytes under an HPKE key also wraps the label in [`Label::Sealed`] with
/// the corresponding [`KeyId`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Label {
    /// No user information at all (padding, control traffic).
    Public,
    /// Plaintext carrying these facts.
    Clear(InfoSet),
    /// Ciphertext: the inner label is only visible to holders of `key`.
    Sealed {
        /// The decryption capability required.
        key: KeyId,
        /// What the ciphertext protects.
        inner: Box<Label>,
    },
    /// Concatenation of independently-visible parts (e.g. an envelope's
    /// clear header plus its sealed body).
    Bundle(Vec<Label>),
}

impl Label {
    /// Convenience: a clear label with a single item.
    pub fn item(item: InfoItem) -> Self {
        Label::items([item])
    }

    /// Convenience: a clear label from items. They are inserted one by
    /// one: collecting would first buffer and sort them in a `Vec`, a
    /// second allocation for the handful of items a label carries.
    pub fn items<I: IntoIterator<Item = InfoItem>>(items: I) -> Self {
        let mut set = InfoSet::new();
        for item in items {
            set.insert(item);
        }
        Label::Clear(set)
    }

    /// Seal this label under `key`.
    pub fn sealed(self, key: KeyId) -> Self {
        Label::Sealed {
            key,
            inner: Box::new(self),
        }
    }

    /// Bundle with another label.
    pub fn and(self, other: Label) -> Self {
        match self {
            Label::Bundle(mut v) => {
                v.push(other);
                Label::Bundle(v)
            }
            l => Label::Bundle(vec![l, other]),
        }
    }

    /// Everything an observer holding `keys` learns from this payload.
    ///
    /// Sealed nodes are opaque to non-holders: they contribute nothing
    /// (envelope metadata such as source address must be modeled as clear
    /// parts of a [`Label::Bundle`], which is exactly what `dcp-simnet`
    /// does for packet headers).
    pub fn observe<F: Fn(KeyId) -> bool + Copy>(&self, has_key: F) -> InfoSet {
        let mut out = InfoSet::new();
        self.visit(&has_key, &mut |item| {
            out.insert(item.clone());
        });
        out
    }

    /// Hand every item an observer holding `has_key` can see to `f`, in
    /// place and in label order. An item that appears in several visible
    /// parts is handed over once per part.
    pub(crate) fn visit(&self, has_key: &impl Fn(KeyId) -> bool, f: &mut impl FnMut(&InfoItem)) {
        match self {
            Label::Public => {}
            Label::Clear(items) => items.iter().for_each(f),
            Label::Sealed { key, inner } => {
                if has_key(*key) {
                    inner.visit(has_key, f);
                }
            }
            Label::Bundle(parts) => {
                for p in parts {
                    p.visit(has_key, f);
                }
            }
        }
    }

    /// The full information content (what an omniscient observer —
    /// equivalently, a coalition holding every key — would learn).
    pub fn full_content(&self) -> InfoSet {
        self.observe(|_| true)
    }

    /// Depth of the deepest sealed nesting (onion layer count).
    pub fn seal_depth(&self) -> usize {
        match self {
            Label::Public | Label::Clear(_) => 0,
            Label::Sealed { inner, .. } => 1 + inner.seal_depth(),
            Label::Bundle(parts) => parts.iter().map(Label::seal_depth).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(n: u64) -> UserId {
        UserId(n)
    }

    #[test]
    fn sensitivity_is_ordered() {
        assert!(Sensitivity::Sensitive > Sensitivity::Partial);
        assert!(Sensitivity::Partial > Sensitivity::NonSensitive);
    }

    #[test]
    fn clear_label_is_visible_to_all() {
        let item = InfoItem::sensitive_data(uid(1), DataKind::Payload);
        let l = Label::item(item.clone());
        let seen = l.observe(|_| false);
        assert!(seen.contains(&item));
        assert_eq!(seen.len(), 1);
    }

    #[test]
    fn sealed_label_requires_key() {
        let item = InfoItem::sensitive_data(uid(1), DataKind::Payload);
        let l = Label::item(item.clone()).sealed(KeyId(7));
        assert!(l.observe(|_| false).is_empty());
        assert!(l.observe(|k| k == KeyId(7)).contains(&item));
        assert!(l.observe(|k| k == KeyId(8)).is_empty());
    }

    #[test]
    fn nested_sealing_requires_all_keys_on_path() {
        let item = InfoItem::sensitive_data(uid(1), DataKind::Message);
        let onion = Label::item(item.clone()).sealed(KeyId(1)).sealed(KeyId(2));
        // Outer key only: still opaque.
        assert!(onion.observe(|k| k == KeyId(2)).is_empty());
        // Inner key only: can't get past the outer layer.
        assert!(onion.observe(|k| k == KeyId(1)).is_empty());
        // Both: visible.
        assert!(onion.observe(|_| true).contains(&item));
        assert_eq!(onion.seal_depth(), 2);
    }

    #[test]
    fn bundle_unions_visible_parts() {
        let hdr = InfoItem::sensitive_identity(uid(1), IdentityKind::Network);
        let body = InfoItem::sensitive_data(uid(1), DataKind::Payload);
        let pkt = Label::item(hdr.clone()).and(Label::item(body.clone()).sealed(KeyId(3)));
        let outside = pkt.observe(|_| false);
        assert!(outside.contains(&hdr), "envelope is visible");
        assert!(!outside.contains(&body), "body is sealed");
        let holder = pkt.observe(|k| k == KeyId(3));
        assert!(holder.contains(&hdr) && holder.contains(&body));
    }

    #[test]
    fn full_content_sees_everything() {
        let a = InfoItem::plain_data(uid(1), DataKind::Activity);
        let b = InfoItem::sensitive_data(uid(2), DataKind::Location);
        let l =
            Label::item(a.clone()).and(Label::item(b.clone()).sealed(KeyId(1)).sealed(KeyId(2)));
        let all = l.full_content();
        assert!(all.contains(&a) && all.contains(&b));
    }

    #[test]
    fn public_label_carries_nothing() {
        assert!(Label::Public.full_content().is_empty());
        assert_eq!(Label::Public.seal_depth(), 0);
    }

    #[test]
    fn and_flattens_bundles() {
        let l = Label::Public.and(Label::Public).and(Label::Public);
        match l {
            Label::Bundle(v) => assert_eq!(v.len(), 3),
            _ => panic!("expected bundle"),
        }
    }
}
