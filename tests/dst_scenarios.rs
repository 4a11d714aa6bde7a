//! DST sweep: every §3 scenario under every fault preset.
//!
//! Each test drives the unified [`decoupling::Scenario`] API through
//! [`decoupling::run_scenario_for`], which builds the full simulation from
//! `(FaultConfig, seed)` and runs it twice per preset, asserting:
//!
//! * **determinism** — identical [`FaultLog`] and knowledge fingerprint
//!   across the two runs;
//! * **safety** — no coupling appears under faults that the calm baseline
//!   does not already have (baseline-relative, so the intentionally
//!   coupled §3.3 VPN still passes);
//! * **liveness degradation** — under `moderate()` the workload still
//!   makes end-to-end progress for these seeds; under `harsh()` (with the
//!   `dcp-recover` layer the harness always enables) the bar rises to
//!   full completion with knowledge tables byte-identical to the calm
//!   baseline; under `chaos()` only safety is promised.

use decoupling::{run_scenario_for, DstReport};

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
    let cfg = decoupling::BlindcashConfig::new(2, 2, 512);
    check(&run_scenario_for::<decoupling::Blindcash>(1001, &cfg));
}

#[test]
fn dst_mixnet() {
    let cfg = decoupling::MixnetConfig {
        senders: 6,
        mixes: 2,
        batch_size: 3,
        window_us: 100_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: None,
        seed: 0, // overridden by the harness seed
    };
    check(&run_scenario_for::<decoupling::Mixnet>(1002, &cfg));
}

#[test]
fn dst_privacypass() {
    let cfg = decoupling::PrivacypassConfig::new(3, 2);
    check(&run_scenario_for::<decoupling::Privacypass>(1003, &cfg));
}

#[test]
fn dst_odns() {
    let cfg = decoupling::OdohConfig::new(3, 4);
    check(&run_scenario_for::<decoupling::Odoh>(1004, &cfg));
}

#[test]
fn dst_pgpp() {
    let cfg = decoupling::PgppConfig {
        mode: decoupling::pgpp::Mode::Pgpp,
        users: 5,
        cells: 2,
        epochs: 2,
        moves_per_epoch: 2,
        seed: 0, // overridden by the harness seed
    };
    check(&run_scenario_for::<decoupling::Pgpp>(1005, &cfg));
}

#[test]
fn dst_mpr() {
    let cfg = decoupling::ChainConfig {
        relays: 2,
        users: 3,
        fetches_each: 2,
        geohint: false,
        seed: 0, // overridden by the harness seed
    };
    check(&run_scenario_for::<decoupling::Mpr>(1006, &cfg));
}

#[test]
fn dst_ppm() {
    // The aggregate only releases if every share survived; any verified
    // submission reaching both aggregators is progress.
    let cfg = decoupling::PpmConfig {
        clients: 5,
        bits: 4,
        malicious: 0,
        seed: 0, // overridden by the harness seed
    };
    check(&run_scenario_for::<decoupling::Ppm>(1007, &cfg));
}

#[test]
fn dst_vpn() {
    // The VPN is the paper's cautionary tale: it is *coupled* in the calm
    // baseline. The harness's baseline-relative invariant is exactly what
    // lets this scenario participate — faults must not couple anyone new
    // (e.g. the network observer), while the VPN server's pre-existing
    // coupling is not charged to the fault injector.
    let cfg = decoupling::VpnConfig::new(3, 2);
    check(&run_scenario_for::<decoupling::Vpn>(1008, &cfg));
}

#[test]
fn dst_ech() {
    // §4.1 ECH hides the SNI from the network observer but the TLS server
    // stays coupled by design — baseline-relative safety is what lets it
    // ride the same battery as the decoupled systems.
    let cfg = decoupling::EchConfig::default().ech(true);
    check(&run_scenario_for::<decoupling::Ech>(1009, &cfg));
}

#[test]
fn dst_odns_legacy() {
    let cfg = decoupling::odns::OdnsLegacyConfig::new(3, 4);
    check(&run_scenario_for::<decoupling::odns::OdnsLegacy>(
        1010, &cfg,
    ));
}

#[test]
fn dst_dns_direct() {
    // Striped over two resolvers: the harsh bar holds only because a
    // call's resolver does not depend on what the faults did.
    let cfg = decoupling::DirectDnsConfig::new(3, 4, 2);
    check(&run_scenario_for::<decoupling::DirectDns>(1011, &cfg));
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
