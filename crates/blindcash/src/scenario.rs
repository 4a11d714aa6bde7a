//! The §3.1.1 flow — withdraw, spend, deposit — written once as seam
//! roles: buyers, the bank's signer and verifier, and the seller. One
//! `wiring` builds them; the simulator hosts them ([`Blindcash`]) and
//! [`Blindcash::REGISTRATION`] hands the same roles to `dcp-serve`. The
//! information-flow labels let the framework *derive* the paper's table.
//!
//! Every leg carries an 8-byte sequence number (`dcp_runtime::wire`
//! framing) on every run. The seller keys each deposit by the buyer's
//! `(peer, seq)` and hands it to the verifier under a number of its own
//! ([`CheckForwarder`]), so a receipt returns to the buyer whose coin was
//! deposited, and a duplicated or retransmitted coin is answered from the
//! first deposit instead of being verified again. A run's
//! `RecoverConfig` only arms the buyers' retries.
//!
//! The signer and the seller name a sender's user from the peer a frame
//! arrives from, which both engines supply, never from its label. Every
//! RSA element a role receives must be exactly the bank modulus long.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, FaultLog, IdentityKind, InfoItem, Label, MetricsReport, RunOptions, Scenario, UserId,
    World,
};
use dcp_crypto::rsa::RsaPublicKey;
use dcp_runtime::seam::{
    lock, nth, PeerId, Registration, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole,
};
use dcp_runtime::{
    mean_us, wire, Attempt, CheckForwarder, Control, Dedup, Endpoint, Forward, Harness, LinkParams,
    ReliableCall, RetryLinkage, TimerVerdict, Trace,
};

use crate::bank::{Bank, Withdrawal};
use crate::coin::Coin;
use crate::types::{
    declared_caps, BankSigner, BankVerifier, CoinBuyer, CoinDeposit, CoinSeller, Purchase,
    WithdrawalReq,
};

/// Result of a scenario run.
pub struct ScenarioReport {
    /// The knowledge base after the run.
    pub world: World,
    /// The packet trace.
    pub trace: Trace,
    /// Number of coins successfully deposited.
    pub deposited: usize,
    /// Mean wall-clock (simulated) time from withdrawal start to deposit
    /// acknowledgment, in microseconds.
    pub mean_cycle_us: f64,
    /// The buyer user ids, in order.
    pub buyers: Vec<UserId>,
    /// Faults injected during the run (empty without fault injection).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target (`buyers × coins_each`).
    pub expected: u64,
    /// Retry-linkage violations over the re-blinded withdrawal attempts
    /// (spending retransmits the *same* one-time coin by design — see
    /// `docs/RECOVERY.md` on instruments the receiver must dedup).
    pub retry_linkage: Vec<String>,
}

impl dcp_core::ScenarioReport for ScenarioReport {
    fn world(&self) -> &World {
        &self.world
    }
    fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }
    fn metrics(&self) -> &MetricsReport {
        &self.metrics
    }
    fn packets(&self) -> usize {
        self.trace.len()
    }
    fn completed_units(&self) -> u64 {
        self.deposited as u64
    }
    fn expected_units(&self) -> Option<u64> {
        Some(self.expected)
    }
    fn retry_linkage(&self) -> &[String] {
        &self.retry_linkage
    }
}

/// Config for the [`Blindcash`] scenario.
#[derive(Clone, Debug)]
pub struct BlindcashConfig {
    /// Number of buyers.
    pub buyers: usize,
    /// Withdraw/spend/deposit cycles per buyer.
    pub coins_each: usize,
    /// Bank RSA modulus size (512 for tests, 2048 for realistic benches).
    pub rsa_bits: usize,
}

impl Default for BlindcashConfig {
    fn default() -> Self {
        BlindcashConfig {
            buyers: 1,
            coins_each: 1,
            rsa_bits: 512,
        }
    }
}

impl BlindcashConfig {
    /// `buyers` buyers completing `coins_each` cycles on an `rsa_bits` key.
    pub fn new(buyers: usize, coins_each: usize, rsa_bits: usize) -> Self {
        BlindcashConfig {
            buyers,
            coins_each,
            rsa_bits,
        }
    }

    /// Set the buyer count.
    pub fn buyers(mut self, buyers: usize) -> Self {
        self.buyers = buyers;
        self
    }

    /// Set the per-buyer cycle count.
    pub fn coins_each(mut self, coins_each: usize) -> Self {
        self.coins_each = coins_each;
        self
    }

    /// Set the bank key size.
    pub fn rsa_bits(mut self, rsa_bits: usize) -> Self {
        self.rsa_bits = rsa_bits;
        self
    }
}

/// §3.1.1 blind-signature e-cash: withdraw, spend, deposit.
pub struct Blindcash;

impl Scenario for Blindcash {
    type Config = BlindcashConfig;
    type Report = ScenarioReport;
    const NAME: &'static str = "blindcash";

    fn run_with(cfg: &BlindcashConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        let (world, harness) = Harness::begin(Blindcash::NAME, seed, opts);
        let w = wiring(cfg, seed, world, opts);
        let expected = w.spec.expected_units;
        let core = harness.run_spec(w.spec, LinkParams::wan_ms(10), Vec::new());
        let stats = lock(&w.stats);
        ScenarioReport {
            world: core.world,
            trace: core.trace,
            deposited: stats.deposited,
            mean_cycle_us: mean_us(&stats.cycle_times),
            buyers: w.buyers,
            fault_log: core.fault_log,
            metrics: core.metrics,
            expected,
            retry_linkage: stats.linkage.violations(),
        }
    }
}

impl Blindcash {
    /// Two buyers spending two coins each on a 512-bit bank key. Served,
    /// each client is a buyer and each query a coin, and every process of
    /// a multi-process run builds the same bank key from the seed. Role
    /// order defines peer ids: `signer` 0, `verifier` 1, `seller` 2,
    /// then `buyer`, `buyer-2`, ….
    pub const REGISTRATION: Registration = Registration {
        name: Blindcash::NAME,
        run: |seed, opts| {
            Box::new(Blindcash::run_with(
                &BlindcashConfig::new(2, 2, 512),
                seed,
                opts,
            ))
        },
        declared_caps,
        serve: Some(|clients, queries, seed| {
            let cfg = BlindcashConfig::default()
                .buyers(clients)
                .coins_each(queries);
            let spec = wiring(&cfg, seed, World::new(), &RunOptions::default()).spec;
            Ok((spec, Box::new(move || Blindcash::run(&cfg, seed).world)))
        }),
    };
}

impl ScenarioReport {
    /// Derive the §3.1.1 decoupling table for buyer `i`.
    pub fn table(&self, i: usize) -> DecouplingTable {
        DecouplingTable::derive(
            &self.world,
            self.buyers[i],
            &["Buyer", "Signer (Bank)", "Verifier (Bank)", "Seller"],
        )
    }

    /// The paper's expected table.
    pub fn paper_table() -> DecouplingTable {
        DecouplingTable::expect(&[
            ("Buyer", "(▲, ●)"),
            ("Signer (Bank)", "(▲, ⊙)"),
            ("Verifier (Bank)", "(△, ⊙/●)"),
            ("Seller", "(△, ●)"),
        ])
    }
}

/// The seller's answer once a coin is deposited, and the verifier's ack.
const RECEIPT: &[u8] = b"receipt";
const ACK: &[u8] = b"ok";

/// An RSA element of the wrong length for the bank's modulus: the typed
/// refusal of a role that received one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ElementLength {
    expected: usize,
    got: usize,
}

/// A blinded element (at the signer) or a blind signature (at the
/// buyer): exactly `modulus_len` bytes, or refused.
fn rsa_element(bytes: &[u8], modulus_len: usize) -> Result<&[u8], ElementLength> {
    if bytes.len() == modulus_len {
        Ok(bytes)
    } else {
        Err(ElementLength {
            expected: modulus_len,
            got: bytes.len(),
        })
    }
}

/// What the buyers and the verifier measure, shared by every role of
/// one run.
struct Stats {
    deposited: usize,
    cycle_times: Vec<u64>,
    /// Retry-linkage check fed by every withdrawal attempt's blinded
    /// element.
    linkage: RetryLinkage,
}

/// A buyer's open call.
enum Call {
    /// The withdrawal round, re-blinded on every attempt.
    Withdraw,
    /// One spend: the *same* coin on every attempt (a fresh coin per
    /// attempt would be a second withdrawal); the seller answers copies
    /// from its first deposit.
    Spend { coin: Vec<u8> },
}

/// The buyer: withdraw, spend, and wait for the receipt, one cycle at a
/// time.
struct Buyer {
    user: UserId,
    /// The withdrawal endpoint: the typed claim that the signing bank
    /// sees `(▲, ⊙)` — an authenticated account, a blinded element.
    signer: Endpoint<WithdrawalReq, Control, BankSigner>,
    /// The spend endpoint: the seller sees `(△, ●)`.
    seller: Endpoint<Purchase, Control, CoinSeller>,
    bank_pk: RsaPublicKey,
    /// The blinding of the latest withdrawal attempt.
    blinding: Option<Withdrawal>,
    /// Cycles not yet begun.
    cycles_left: usize,
    started_at: u64,
    /// Numbers every call; arms deadlines and retries under recovery
    /// only.
    arq: ReliableCall,
    /// RetryLinkage flow id (the buyer index).
    flow: u64,
    /// The open call and its sequence number.
    inflight: Option<(u64, Call)>,
    stats: Arc<Mutex<Stats>>,
}

impl Buyer {
    /// Begin the next cycle, if one is left.
    fn start_withdrawal(&mut self, ctx: &mut WireCtx) {
        if self.cycles_left == 0 {
            return;
        }
        self.cycles_left -= 1;
        self.started_at = ctx.now_us();
        let att = self.arq.open();
        self.inflight = Some((att.seq, Call::Withdraw));
        self.transmit_withdrawal(ctx, att);
    }

    /// (Re)transmit the withdrawal: a freshly blinded element on every
    /// attempt, which is exactly what a re-randomized retransmission
    /// needs.
    fn transmit_withdrawal(&mut self, ctx: &mut WireCtx, att: Attempt) {
        ctx.crypto_op("rsa_blind");
        let w = Withdrawal::begin(ctx.rng, &self.bank_pk).expect("blind");
        let bytes = w.blinded_msg().to_vec();
        self.blinding = Some(w);
        lock(&self.stats)
            .linkage
            .record(self.flow, att.seq, att.attempt, &bytes);
        // The signing bank sees who is withdrawing (account auth ▲) but
        // only a blinded element (⊙).
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::plain_data(self.user, DataKind::Purchase),
        ]);
        ctx.send_to(
            self.signer,
            WireMsg::data(wire::frame(att.seq, &bytes), label),
        );
        ctx.arm(&self.arq, &att);
    }

    /// (Re)transmit spend `att.seq`. The coin bytes are deliberately
    /// identical across attempts — a one-time instrument cannot be
    /// re-randomized without withdrawing again — so they are *not*
    /// recorded into the linkage check.
    fn transmit_spend(&mut self, ctx: &mut WireCtx, coin: &[u8], att: Attempt) {
        // The seller sees the purchase (●) from an anonymous customer (△).
        let label = Label::items([
            InfoItem::plain_identity(self.user, IdentityKind::Any),
            InfoItem::sensitive_data(self.user, DataKind::Purchase),
        ]);
        ctx.send_to(
            self.seller,
            WireMsg::data(wire::frame(att.seq, coin), label),
        );
        ctx.arm(&self.arq, &att);
    }
}

impl WireRole for Buyer {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        // The buyer knows their own identity and purchase intentions.
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::Purchase));
        self.start_withdrawal(ctx);
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        // Only an answer numbered for the open call, from the peer that
        // call went to, completes it; a duplicated or late one changes
        // nothing.
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        match &self.inflight {
            Some((open, Call::Withdraw)) if *open == seq && from.index() == self.signer.index() => {
                let Ok(blind_sig) = rsa_element(body, self.bank_pk.modulus_len()) else {
                    return;
                };
                let Some(w) = self.blinding.take() else {
                    return;
                };
                ctx.crypto_op("rsa_unblind");
                // A superseded attempt's signature fails against the
                // re-blinded state: drop it, a retry re-blinds.
                let Ok(coin) = w.finish(&self.bank_pk, blind_sig) else {
                    return;
                };
                self.arq.complete(seq);
                let coin = coin.encode();
                let att = self.arq.open();
                self.inflight = Some((att.seq, Call::Spend { coin: coin.clone() }));
                self.transmit_spend(ctx, &coin, att);
            }
            Some((open, Call::Spend { .. }))
                if *open == seq && from.index() == self.seller.index() =>
            {
                self.inflight = None;
                self.arq.complete(seq);
                let now = ctx.now_us();
                ctx.span("cycle", self.started_at, now);
                lock(&self.stats).cycle_times.push(now - self.started_at);
                ctx.unit_done();
                self.start_withdrawal(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        match ctx.arq_timer(&mut self.arq, token) {
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
            TimerVerdict::Retry(att) => match &self.inflight {
                Some((seq, Call::Withdraw)) if *seq == att.seq => {
                    self.transmit_withdrawal(ctx, att)
                }
                Some((seq, Call::Spend { coin })) if *seq == att.seq => {
                    let coin = coin.clone();
                    self.transmit_spend(ctx, &coin, att);
                }
                _ => {}
            },
            TimerVerdict::Exhausted { seq, .. } => {
                match self.inflight.take_if(|(open, _)| *open == seq) {
                    Some((_, Call::Spend { .. })) => self.start_withdrawal(ctx),
                    // An abandoned withdrawal leaves nothing to spend:
                    // the buyer stops rather than fabricate a coin.
                    Some((_, Call::Withdraw)) | None => {}
                }
            }
        }
    }

    fn finished(&self) -> bool {
        // Every path that leaves nothing in flight has nothing left to
        // begin: the last receipt in, or a withdrawal abandoned.
        self.inflight.is_none()
    }
}

/// The signing half of the bank: signs blind and debits the account a
/// withdrawal comes from.
struct Signer {
    bank: Arc<Mutex<Bank>>,
    /// Account holders by the peer they send from.
    buyers: BTreeMap<PeerId, UserId>,
    modulus_len: usize,
    /// `(buyer, seq)` pairs whose debit succeeded: a retransmitted
    /// withdrawal is re-signed (a fresh blinded element) without a
    /// second debit, and a refused one is debited when a retry succeeds.
    debited: Dedup,
}

impl WireRole for Signer {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some(&user) = self.buyers.get(&from) else {
            return;
        };
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Ok(blinded) = rsa_element(body, self.modulus_len) else {
            return;
        };
        ctx.crypto_op("rsa_sign");
        let flow = from.index() as u64;
        let mut bank = lock(&self.bank);
        let signed = if self.debited.seen(flow, seq) {
            bank.resign(user, blinded)
        } else {
            let signed = bank.withdraw(user, blinded);
            if signed.is_ok() {
                self.debited.first(flow, seq);
            }
            signed
        };
        drop(bank);
        // An over-drawn account gets no signature: fail closed.
        let Ok(blind_sig) = signed else {
            return;
        };
        ctx.send(
            from,
            WireMsg::response(wire::frame(seq, &blind_sig), Label::Public),
        );
    }
}

/// The verifying half of the bank: checks each coin once and credits the
/// seller.
struct Verifier {
    bank: Arc<Mutex<Bank>>,
    seller_user: UserId,
    sig_len: usize,
    /// Outcome per `(seller, hop seq)`: a re-forwarded deposit replays
    /// its ack instead of reading the retransmitted coin as a double
    /// spend.
    outcomes: BTreeMap<(PeerId, u64), bool>,
    stats: Arc<Mutex<Stats>>,
}

impl WireRole for Verifier {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let ok = match self.outcomes.get(&(from, seq)) {
            Some(&ok) => ok,
            None => {
                // A truncated coin is refused without an outcome; a
                // forged or double-spent one is refused for good. Neither
                // is acknowledged.
                let Ok(coin) = Coin::decode(body, self.sig_len) else {
                    return;
                };
                ctx.crypto_op("rsa_verify");
                let ok = lock(&self.bank).deposit(self.seller_user, &coin).is_ok();
                if ok {
                    lock(&self.stats).deposited += 1;
                }
                self.outcomes.insert((from, seq), ok);
                ok
            }
        };
        if ok {
            ctx.send(
                from,
                WireMsg::response(wire::frame(seq, ACK), Label::Public),
            );
        }
    }
}

/// The seller: hands each coin to the verifier and ships the goods once
/// it is deposited.
struct Seller {
    /// The deposit endpoint: an anonymous coin with limited content,
    /// admitted by the verifier's `(△, ⊙/●)` cap.
    verifier: Endpoint<CoinDeposit, Control, BankVerifier>,
    /// Buyers by the peer they send from: the subject of a coin's
    /// deposit label (scenario bookkeeping; the seller cannot name
    /// buyers).
    buyers: BTreeMap<PeerId, UserId>,
    /// One deposit per `(buyer, buyer seq)`, keyed to the verifier leg
    /// by a number of the seller's own.
    deposits: CheckForwarder<(PeerId, u64), ()>,
}

fn receipt(buyer_seq: u64) -> WireMsg {
    WireMsg::response(wire::frame(buyer_seq, RECEIPT), Label::Public)
}

impl WireRole for Seller {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, coin)) = wire::unframe(&msg.payload) else {
            return;
        };
        if from.index() == self.verifier.index() {
            // Deposit acknowledged: the buyer gets their goods/receipt.
            if let Some(((buyer, buyer_seq), _, _)) = self.deposits.resolve(seq, ()) {
                ctx.send(buyer, receipt(buyer_seq));
            }
            return;
        }
        let Some(&user) = self.buyers.get(&from) else {
            return;
        };
        match self.deposits.forward((from, seq), coin) {
            // The goods ship once, the receipt as often as asked.
            Forward::Replay(()) => ctx.send(from, receipt(seq)),
            Forward::Upstream { hop, body } => {
                // The verifier sees a valid coin (limited sensitive
                // content ⊙/●) from an anonymous depositor chain — it
                // learns nothing that names the buyer.
                let label = Label::items([
                    InfoItem::plain_identity(user, IdentityKind::Any),
                    InfoItem::partial_data(user, DataKind::Purchase),
                ]);
                ctx.send_to(self.verifier, WireMsg::data(wire::frame(hop, body), label));
            }
        }
    }
}

/// A built blind-cash run: its roles, what they measure, and the buyers
/// (the world's users also hold the seller's account).
struct Wiring {
    spec: ServeSpec,
    stats: Arc<Mutex<Stats>>,
    buyers: Vec<UserId>,
}

/// Build the §3.1.1 world and roles for either engine. Peer ids: signer
/// 0, verifier 1, seller 2, then the buyers.
///
/// The world mutation order and the setup RNG's draws are load-bearing:
/// a metrics sink observes entity creation in sequence, and the DST
/// probes are byte-identical across refactors only if both hold.
fn wiring(cfg: &BlindcashConfig, seed: u64, mut world: World, opts: &RunOptions) -> Wiring {
    use rand::SeedableRng;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xb1bd);

    let bank_org = world.add_org("bank");
    let seller_org = world.add_org("seller");
    let user_org = world.add_org("users");
    let signer_e = world.add_entity("Signer (Bank)", bank_org, None);
    let verifier_e = world.add_entity("Verifier (Bank)", bank_org, None);
    let seller_e = world.add_entity("Seller", seller_org, None);

    let mut bank = Bank::new(&mut setup_rng, cfg.rsa_bits);
    let mut buyers = Vec::new();
    let mut buyer_entities = Vec::new();
    for i in 0..cfg.buyers {
        let u = world.add_user();
        // The first buyer is "Buyer", the paper's column.
        buyer_entities.push(world.add_entity(&nth("Buyer", ' ', i), user_org, Some(u)));
        bank.open_account(u, cfg.coins_each as i64 + 1);
        buyers.push(u);
    }
    let seller_user = world.add_user(); // the seller's own account identity
    bank.open_account(seller_user, 0);

    let bank_pk = bank.public_key().clone();
    let modulus_len = bank_pk.modulus_len();
    let bank = Arc::new(Mutex::new(bank));
    let stats = Arc::new(Mutex::new(Stats {
        deposited: 0,
        cycle_times: Vec::new(),
        linkage: RetryLinkage::new(),
    }));
    let by_peer: BTreeMap<PeerId, UserId> = buyers
        .iter()
        .enumerate()
        .map(|(i, &u)| (PeerId::at(3 + i), u))
        .collect();

    let mut roles = vec![
        RoleSpec::of::<BankSigner>(
            "signer",
            signer_e,
            Box::new(Signer {
                bank: bank.clone(),
                buyers: by_peer.clone(),
                modulus_len,
                debited: Dedup::new(),
            }),
        ),
        RoleSpec::of::<BankVerifier>(
            "verifier",
            verifier_e,
            Box::new(Verifier {
                bank,
                seller_user,
                sig_len: modulus_len,
                outcomes: BTreeMap::new(),
                stats: stats.clone(),
            }),
        ),
        RoleSpec::of::<CoinSeller>(
            "seller",
            seller_e,
            Box::new(Seller {
                verifier: Endpoint::new(1),
                buyers: by_peer,
                deposits: CheckForwarder::new(),
            }),
        ),
    ];
    for (i, (&user, &e)) in buyers.iter().zip(&buyer_entities).enumerate() {
        let buyer = Buyer {
            user,
            signer: Endpoint::new(0),
            seller: Endpoint::new(2),
            bank_pk: bank_pk.clone(),
            blinding: None,
            cycles_left: cfg.coins_each,
            started_at: 0,
            arq: ReliableCall::new(&opts.recover, derive_seed(seed, 0xb1b0 + i as u64)),
            flow: i as u64,
            inflight: None,
            stats: stats.clone(),
        };
        roles.push(RoleSpec::of::<CoinBuyer>(
            nth("buyer", '-', i),
            e,
            Box::new(buyer),
        ));
    }
    Wiring {
        spec: ServeSpec {
            scenario: Blindcash::NAME,
            world,
            roles,
            expected_units: (cfg.buyers * cfg.coins_each) as u64,
            taps: Vec::new(),
        },
        stats,
        buyers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::{analyze, FaultConfig};

    fn run(buyers: usize, coins_each: usize, rsa_bits: usize, seed: u64) -> ScenarioReport {
        Blindcash::run(&BlindcashConfig::new(buyers, coins_each, rsa_bits), seed)
    }

    #[test]
    fn instrumented_run_counts_rsa_ops() {
        let report =
            Blindcash::run_with(&BlindcashConfig::new(1, 2, 512), 7, &RunOptions::observed());
        assert_eq!(report.deposited, 2);
        assert!(report.metrics.wire_accounting_holds());
        assert_eq!(report.metrics.span_count("cycle"), 2);
        // Per cycle: buyer blinds + bank signs + buyer unblinds +
        // verifier verifies the deposit.
        for op in ["rsa_blind", "rsa_sign", "rsa_unblind", "rsa_verify"] {
            assert_eq!(report.metrics.crypto_ops[op], 2, "{op}");
        }
    }

    #[test]
    fn scenario_reproduces_paper_table() {
        let report = run(1, 1, 512, 7);
        assert_eq!(report.deposited, 1);
        let derived = report.table(0);
        let expected = ScenarioReport::paper_table();
        assert_eq!(
            derived,
            expected,
            "measured table diverged:\n{}",
            derived.diff(&expected).unwrap_or_default()
        );
    }

    #[test]
    fn scenario_is_decoupled() {
        let report = run(2, 2, 512, 8);
        assert_eq!(report.deposited, 4);
        let verdict = analyze(&report.world);
        assert!(verdict.decoupled, "violations: {:?}", verdict.offenders());
    }

    #[test]
    fn cycle_latency_reflects_four_hops() {
        // withdraw (RTT) + spend (one way) + deposit (RTT) + receipt (one
        // way) over 10 ms links ≈ 60 ms, plus serialization.
        let report = run(1, 1, 512, 9);
        assert!(report.mean_cycle_us > 55_000.0, "{}", report.mean_cycle_us);
        assert!(report.mean_cycle_us < 90_000.0, "{}", report.mean_cycle_us);
    }

    #[test]
    fn recovered_harsh_run_deposits_every_coin_exactly_once() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        let cfg = BlindcashConfig::new(2, 2, 512);
        let calm = Blindcash::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::calm()));
        let harsh = Blindcash::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::harsh()));
        assert_eq!(calm.deposited, 4, "calm recovered run deposits everything");
        assert_eq!(
            harsh.deposited as u64,
            harsh.expected_units().unwrap(),
            "under harsh faults the recovery layer still finishes the workload"
        );
        assert!(!harsh.fault_log.is_empty(), "harsh actually injected");
        assert!(
            harsh.retry_linkage().is_empty(),
            "re-blinded withdrawal attempts are never linkable: {:?}",
            harsh.retry_linkage()
        );
        assert_eq!(
            KnowledgeFingerprint::of(&harsh.world),
            KnowledgeFingerprint::of(&calm.world),
            "recovery must not change anyone's knowledge ledger"
        );
        assert_eq!(harsh.table(0), calm.table(0));
    }

    /// Without recovery, a duplicated coin is deposited and verified
    /// once: the seller keys each deposit by `(buyer, seq)` and answers
    /// copies from the first. A seller that forwards every copy, pairing
    /// the verifier's acks with waiting buyers by arrival order, has the
    /// verifier re-verify a duplicated coin at each of these seeds.
    #[test]
    fn each_coin_is_verified_once_without_recovery() {
        let cfg = BlindcashConfig::new(2, 2, 512);
        let opts = RunOptions::observed_with_faults(&FaultConfig::moderate());
        for seed in [2, 5, 11, 21] {
            let report = Blindcash::run_with(&cfg, seed, &opts);
            assert!(!report.fault_log.is_empty(), "seed {seed}: no faults");
            let verified = report.metrics.crypto_ops.get("rsa_verify").copied();
            assert_eq!(
                verified.unwrap_or(0),
                report.deposited as u64,
                "seed {seed}"
            );
        }
    }

    /// A withdrawal the bank cannot sign is neither debited nor marked
    /// as debited, so a retry of the same call is debited once — a
    /// malformed first attempt does not buy a free coin.
    #[test]
    fn a_refused_first_attempt_is_debited_on_retry() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut bank = Bank::new(&mut rng, 512);
        let user = UserId(0);
        bank.open_account(user, 2);
        let pk = bank.public_key().clone();
        let bank = Arc::new(Mutex::new(bank));
        let buyer = PeerId(3);
        let mut signer = Signer {
            bank: bank.clone(),
            buyers: BTreeMap::from([(buyer, user)]),
            modulus_len: pk.modulus_len(),
            debited: Dedup::new(),
        };
        let mut ctx_rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut sign = |element: &[u8]| {
            let mut ctx = WireCtx::new(&mut ctx_rng, PeerId(0), 0, false);
            let msg = WireMsg::data(wire::frame(0, element), Label::Public);
            signer.on_frame(&mut ctx, buyer, msg);
            ctx.finish().out.len()
        };
        let balance = || lock(&bank).balance(user);
        // Too short for the modulus, then the right length but not below
        // it: both refused, unanswered and free.
        assert_eq!(sign(&[1, 2, 3, 4, 5]), 0);
        assert_eq!(sign(&vec![0xff; pk.modulus_len()]), 0);
        assert_eq!(balance(), Some(2));
        // The retry carries a good element: signed, debited once.
        let w = Withdrawal::begin(&mut rng, &pk).unwrap();
        assert_eq!(sign(w.blinded_msg()), 1);
        assert_eq!(balance(), Some(1));
        // A later copy of the same call is re-signed without a debit.
        let w = Withdrawal::begin(&mut rng, &pk).unwrap();
        assert_eq!(sign(w.blinded_msg()), 1);
        assert_eq!(balance(), Some(1));
    }

    use proptest::prelude::*;

    proptest! {
        /// A blinded element or blind signature is accepted exactly when
        /// it is the modulus long; anything else is a typed refusal.
        #[test]
        fn rsa_elements_are_exactly_the_modulus_long(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            modulus_len in 0usize..300,
        ) {
            match rsa_element(&bytes, modulus_len) {
                Ok(element) => {
                    prop_assert_eq!(element, &bytes[..]);
                    prop_assert_eq!(bytes.len(), modulus_len);
                }
                Err(e) => prop_assert_eq!(
                    e,
                    ElementLength { expected: modulus_len, got: bytes.len() }
                ),
            }
            let mut fit = bytes.clone();
            fit.resize(modulus_len, 0);
            prop_assert_eq!(rsa_element(&fit, modulus_len), Ok(&fit[..]));
        }
    }

    #[test]
    fn recovered_calm_run_matches_plain_completion() {
        let plain = run(2, 2, 512, 7);
        let rec = Blindcash::run_with(
            &BlindcashConfig::new(2, 2, 512),
            7,
            &RunOptions::recovered(&FaultConfig::calm()),
        );
        assert_eq!(plain.deposited, rec.deposited);
        assert_eq!(plain.table(0), rec.table(0));
    }
}
