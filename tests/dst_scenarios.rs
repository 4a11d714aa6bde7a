//! DST sweep: every registered wiring under every fault preset.
//!
//! Each test drives one entry of [`decoupling::REGISTRY`] through
//! [`decoupling::run_battery`], which builds the full simulation from
//! `(FaultConfig, seed)` and runs it twice per preset, asserting:
//!
//! * **determinism** — identical [`FaultLog`] and knowledge fingerprint
//!   across the two runs;
//! * **safety** — no coupling appears under faults that the calm baseline
//!   does not already have (baseline-relative, so the intentionally
//!   coupled §3.3 VPN and ECH's TLS server still pass);
//! * **liveness degradation** — under `moderate()` the workload still
//!   makes end-to-end progress for these seeds; under `harsh()` (with the
//!   `dcp-recover` layer the harness always enables) the bar rises to
//!   full completion with knowledge tables byte-identical to the calm
//!   baseline; under `chaos()` only safety is promised.
//!
//! One test per wiring, so each battery runs on its own test thread and
//! a failure names its wiring; the last test keeps that list equal to
//! the registry.

use decoupling::{run_battery, DstReport, REGISTRY};

/// Run registry entry `name` (at index `i`) at seed `1001 + i`.
fn battery(name: &str) {
    let (i, reg) = REGISTRY
        .iter()
        .enumerate()
        .find(|(_, reg)| reg.name == name)
        .unwrap_or_else(|| panic!("{name} is not registered"));
    check(&run_battery(reg.name, 1001 + i as u64, reg.run));
}

/// Every preset report for one scenario, with the tiered liveness checks.
fn check(reports: &[DstReport]) {
    // Presets come back in calm / moderate / harsh / chaos order.
    assert_eq!(reports.len(), 4);
    for r in reports {
        assert!(
            r.new_couplings.is_empty(),
            "{}/{}: {:?}",
            r.scenario,
            r.preset,
            r.new_couplings
        );
    }
    assert!(
        reports[0].completed,
        "{}: must complete without faults",
        reports[0].scenario
    );
    assert!(
        reports[1].completed,
        "{}: no end-to-end progress under moderate faults",
        reports[1].scenario
    );
    // The harsh completion bar (also asserted inside the harness): the
    // recovery layer finishes the whole workload, and the knowledge
    // tables match the fault-free baseline byte for byte.
    let harsh = &reports[2];
    assert_eq!(harsh.preset, "harsh");
    assert!(
        harsh.completed,
        "{}: harsh must complete with recovery on",
        harsh.scenario
    );
    if let Some(expected) = harsh.expected_units {
        assert_eq!(
            harsh.completed_units, expected,
            "{}: harsh completed {}/{} units",
            harsh.scenario, harsh.completed_units, expected
        );
    }
    assert!(
        harsh.tables_match_baseline,
        "{}: harsh knowledge tables drifted from the calm baseline",
        harsh.scenario
    );
    // Fault schedules must actually fire. (Chaos can inject *fewer* events
    // than moderate — early crashes and drops leave less traffic to fault —
    // so only "nonzero" is asserted, not monotonicity.)
    assert_eq!(reports[0].faults_injected, 0);
    assert!(reports[1].faults_injected > 0, "moderate injected nothing");
    assert!(reports[2].faults_injected > 0, "harsh injected nothing");
    assert!(reports[3].faults_injected > 0, "chaos injected nothing");
}

#[test]
fn dst_blindcash() {
    battery("blindcash");
}

#[test]
fn dst_mixnet() {
    battery("mixnet");
}

#[test]
fn dst_privacypass() {
    battery("privacypass");
}

#[test]
fn dst_odoh() {
    battery("odoh");
}

#[test]
fn dst_pgpp() {
    battery("pgpp");
}

#[test]
fn dst_mpr() {
    battery("mpr");
}

#[test]
fn dst_ppm() {
    battery("ppm");
}

#[test]
fn dst_vpn() {
    battery("vpn");
}

#[test]
fn dst_ech() {
    battery("ech");
}

#[test]
fn dst_odns_legacy() {
    battery("odns_legacy");
}

#[test]
fn dst_dns_direct() {
    battery("dns_direct");
}

/// A new registration fails here until it has its own test above.
#[test]
fn every_registration_has_a_dst_test() {
    let tests = include_str!("dst_scenarios.rs");
    for reg in REGISTRY {
        // The call as the whole body of a test fn: a mention in a
        // comment does not count.
        let call = format!("battery(\"{}\");", reg.name);
        assert!(
            tests.contains(&format!("{{\n    {call}\n}}\n")),
            "{}: add a test whose body is {call}",
            reg.name
        );
    }
}

/// §4.2: key compromise is the one fault the framework *detects* rather
/// than tolerates — granting a relay's keys to the wrong entity must
/// surface as a coupling in the analysis, not pass silently.
#[test]
fn dst_key_compromise_is_detected() {
    use decoupling::core::{DataKind, IdentityKind, InfoItem, Label, World};
    use decoupling::simnet::{Ctx, LinkParams, Message, Network, Node, NodeId};

    struct Fwd {
        entity: decoupling::core::EntityId,
        next: Option<NodeId>,
    }
    impl Node for Fwd {
        fn entity(&self) -> decoupling::core::EntityId {
            self.entity
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, msg: Message) {
            if let Some(next) = self.next {
                // Strip the client-identifying envelope like a real relay:
                // downstream sees only the sealed inner label.
                let inner = match &msg.label {
                    Label::Bundle(parts) if parts.len() == 2 => parts[1].clone(),
                    other => other.clone(),
                };
                ctx.send(next, Message::new(msg.bytes, inner));
            }
        }
    }

    let build = |compromise: bool| {
        let mut world = World::new();
        let uo = world.add_org("users");
        let ro = world.add_org("relay-co");
        let so = world.add_org("server-co");
        let user = world.add_user();
        let client_e = world.add_entity("Client", uo, Some(user));
        let relay_e = world.add_entity("Relay", ro, None);
        let server_e = world.add_entity("Server", so, None);
        let key = world.new_key(&[server_e]);
        world.record(
            client_e,
            InfoItem::sensitive_identity(user, IdentityKind::Any),
        );
        world.record(client_e, InfoItem::sensitive_data(user, DataKind::Payload));

        let mut net = Network::new(world, 77);
        net.set_default_link(LinkParams::wan_ms(5));
        // Zero-probability config: no random faults, but the injector is
        // live so the key compromise below lands in the replay log.
        let mut quiet = decoupling::FaultConfig::calm();
        quiet.enabled = true;
        net.enable_faults(quiet, 77);
        let relay = net.add_node(Box::new(Fwd {
            entity: relay_e,
            next: Some(NodeId(1)),
        }));
        let server = net.add_node(Box::new(Fwd {
            entity: server_e,
            next: None,
        }));
        let _ = server;
        if compromise {
            // The relay obtains the server's decryption key: §4.2
            // collusion modeled as a fault.
            net.inject_key_compromise(server_e, relay_e);
        }
        // Client → relay → server, payload sealed to the server's key. The
        // relay's ledger records the sealed item; only key holders read it.
        let label = Label::items([InfoItem::sensitive_identity(user, IdentityKind::Any)])
            .and(Label::items([InfoItem::sensitive_data(user, DataKind::Payload)]).sealed(key));
        net.post_at(
            relay,
            Message::new(b"secret".to_vec(), label),
            decoupling::simnet::SimTime::ZERO,
        );
        net.run();
        let log = net.fault_log();
        let (world, _) = net.into_parts();
        (world, log)
    };

    let (baseline, base_log) = build(false);
    assert!(base_log.is_empty());
    assert!(decoupling::core::analyze(&baseline).decoupled);

    let (compromised, log) = build(true);
    assert!(!log.is_empty(), "compromise must be logged for replay");
    let fresh = decoupling::faults::dst::new_couplings(&baseline, &compromised);
    assert!(
        fresh.iter().any(|c| c.starts_with("Relay")),
        "key compromise must surface as a Relay coupling, got {fresh:?}"
    );
    // And the World-level assertion trips on the compromised run.
    // `World` holds an `Arc<Mutex<dyn ObsSink>>` observability hook whose
    // trait object is not `RefUnwindSafe`; the closure only reads the
    // knowledge ledger.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        compromised.assert_decoupled_except_user()
    }))
    .expect_err("assert_decoupled_except_user must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("decoupling violated"), "{msg}");
}
