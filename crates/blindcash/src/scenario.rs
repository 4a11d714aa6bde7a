//! The §3.1.1 scenario on the simulator: buyers withdraw coins, spend them
//! at a seller, and the seller deposits them — with information-flow
//! labels that let the framework *derive* the paper's table.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, EntityId, FaultLog, IdentityKind, InfoItem, Label, MetricsReport, RunOptions,
    Scenario, UserId, World,
};
use dcp_runtime::{
    mean_us, wire, Attempt, CallEvent, Control, Ctx, Dedup, Driver, Endpoint, Harness, LinkParams,
    Message, Node, NodeId, RetryLinkage, SimTime, Trace, TypedSend,
};

use crate::bank::{Bank, Withdrawal};
use crate::coin::Coin;
use crate::types::{
    BankSigner, BankVerifier, CoinBuyer, CoinDeposit, CoinSeller, Purchase, WithdrawalReq,
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
        run_impl(cfg, seed, opts)
    }
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

struct Shared {
    bank: Bank,
    deposited: usize,
    cycle_times: Vec<u64>,
    /// Retry-linkage check fed by every withdrawal attempt's blinded
    /// element.
    linkage: RetryLinkage,
}

/// What reliable call `seq` of one buyer stands for.
enum BcInflight {
    /// The withdrawal round (re-blinded fresh on every attempt).
    Withdraw,
    /// One spend: the *same* coin is retransmitted verbatim (a fresh coin
    /// per attempt would be a second withdrawal); the seller and verifier
    /// dedup instead.
    Spend { coin: Vec<u8> },
}

struct BuyerNode {
    entity: EntityId,
    user: UserId,
    /// The withdrawal endpoint: the typed claim that the signing bank
    /// sees `(▲, ⊙)` — an authenticated account, a blinded element.
    signer: Endpoint<WithdrawalReq, Control, BankSigner>,
    /// The spend endpoint: the seller sees `(△, ●)`.
    seller: Endpoint<Purchase, Control, CoinSeller>,
    bank: Rc<RefCell<Shared>>,
    pending: Option<Withdrawal>,
    coins_to_spend: usize,
    started_at: SimTime,
    /// Per-request reliable-call driver (inert when recovery is disabled).
    calls: Driver<BcInflight>,
    flow: u64,
}

impl BuyerNode {
    /// Blind a fresh withdrawal element. Each call re-blinds from scratch
    /// — exactly what a re-randomized retransmission needs.
    fn blind_withdrawal(&mut self, ctx: &mut Ctx) -> (Vec<u8>, Label) {
        let shared = self.bank.borrow();
        ctx.world.crypto_op("rsa_blind");
        let w = Withdrawal::begin(ctx.rng, shared.bank.public_key()).expect("blind");
        drop(shared);
        let bytes = w.blinded_msg().to_vec();
        self.pending = Some(w);
        // The signing bank sees who is withdrawing (account auth ▲) but
        // only a blinded element (⊙).
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::plain_data(self.user, DataKind::Purchase),
        ]);
        (bytes, label)
    }

    fn start_withdrawal(&mut self, ctx: &mut Ctx) {
        self.started_at = ctx.now;
        if let Some(att) = self.calls.begin(BcInflight::Withdraw) {
            self.transmit_withdrawal(ctx, att);
            return;
        }
        let (bytes, label) = self.blind_withdrawal(ctx);
        ctx.send_to(self.signer, Message::new(bytes, label));
    }

    fn transmit_withdrawal(&mut self, ctx: &mut Ctx, att: Attempt) {
        let (bytes, label) = self.blind_withdrawal(ctx);
        self.bank
            .borrow_mut()
            .linkage
            .record(self.flow, att.seq, att.attempt, &bytes);
        self.calls.transmit(ctx, self.signer, &att, &bytes, label);
    }

    fn spend_label(&self) -> Label {
        // The seller sees the purchase (●) from an anonymous customer (△).
        Label::items([
            InfoItem::plain_identity(self.user, IdentityKind::Any),
            InfoItem::sensitive_data(self.user, DataKind::Purchase),
        ])
    }

    /// Retransmit spend `att.seq`. The coin bytes are deliberately
    /// identical across attempts — a one-time instrument cannot be
    /// re-randomized without withdrawing again — so they are *not*
    /// recorded into the linkage check; the seller dedups by
    /// `(buyer, seq)`.
    fn transmit_spend(&mut self, ctx: &mut Ctx, coin: &[u8], att: Attempt) {
        let label = self.spend_label();
        self.calls.transmit(ctx, self.seller, &att, coin, label);
    }

    fn cycle_done(&mut self, ctx: &mut Ctx) {
        if self.coins_to_spend > 1 {
            self.coins_to_spend -= 1;
            self.start_withdrawal(ctx);
        }
    }
}

impl Node for BuyerNode {
    fn entity(&self) -> EntityId {
        self.entity
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        // The buyer knows their own identity and purchase intentions.
        ctx.world.record(
            self.entity,
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
        );
        ctx.world.record(
            self.entity,
            InfoItem::sensitive_data(self.user, DataKind::Purchase),
        );
        self.start_withdrawal(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match self.calls.on_timer(ctx, token) {
            CallEvent::App(_) | CallEvent::Ignored => {}
            CallEvent::Retry(att) => match self.calls.get(att.seq) {
                Some(BcInflight::Withdraw) => self.transmit_withdrawal(ctx, att),
                Some(BcInflight::Spend { coin }) => {
                    let coin = coin.clone();
                    self.transmit_spend(ctx, &coin, att);
                }
                None => {}
            },
            CallEvent::Exhausted {
                call: BcInflight::Spend { .. },
                ..
            } => self.cycle_done(ctx),
            // An abandoned withdrawal leaves nothing to spend: the buyer
            // stops rather than fabricate a coin.
            CallEvent::Exhausted {
                call: BcInflight::Withdraw,
                ..
            } => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if self.calls.enabled() {
            let Some((seq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            match self.calls.get(seq) {
                Some(BcInflight::Withdraw) if from.0 == self.signer.index() => {
                    let Some(w) = self.pending.take() else { return };
                    let pk = self.bank.borrow().bank.public_key().clone();
                    ctx.world.crypto_op("rsa_unblind");
                    let Ok(coin) = w.finish(&pk, body) else {
                        // A superseded attempt's signature fails against the
                        // re-blinded state: drop it, the timer retries.
                        return;
                    };
                    if self.calls.complete(seq).is_none() {
                        return;
                    }
                    let encoded = coin.encode();
                    let att = self
                        .calls
                        .begin(BcInflight::Spend {
                            coin: encoded.clone(),
                        })
                        .expect("enabled ARQ always begins");
                    self.transmit_spend(ctx, &encoded, att);
                }
                Some(BcInflight::Spend { .. }) if from.0 == self.seller.index() => {
                    if self.calls.complete(seq).is_none() {
                        return; // duplicated receipt: counted exactly once
                    }
                    ctx.world
                        .span("cycle", self.started_at.as_us(), ctx.now.as_us());
                    self.bank
                        .borrow_mut()
                        .cycle_times
                        .push(ctx.now - self.started_at);
                    self.cycle_done(ctx);
                }
                _ => {}
            }
            return;
        }
        if from.0 == self.signer.index() {
            // Blind signature came back: unblind and spend. A duplicated
            // reply finds no pending withdrawal and is ignored; a
            // mangled one fails to unblind and the cycle stalls closed.
            let Some(w) = self.pending.take() else { return };
            let pk = self.bank.borrow().bank.public_key().clone();
            ctx.world.crypto_op("rsa_unblind");
            let Ok(coin) = w.finish(&pk, &msg.bytes) else {
                return;
            };
            let label = self.spend_label();
            ctx.send_to(self.seller, Message::new(coin.encode(), label));
        } else if from.0 == self.seller.index() {
            // Receipt. Start the next cycle if any remain.
            ctx.world
                .span("cycle", self.started_at.as_us(), ctx.now.as_us());
            self.bank
                .borrow_mut()
                .cycle_times
                .push(ctx.now - self.started_at);
            if self.coins_to_spend > 1 {
                self.coins_to_spend -= 1;
                self.start_withdrawal(ctx);
            }
        }
    }
}

struct SignerNode {
    entity: EntityId,
    bank: Rc<RefCell<Shared>>,
    node_to_user: Vec<(NodeId, UserId)>,
    /// Is the run's recovery layer on?
    recover: bool,
    /// Recovery path: debit exactly once per `(buyer, seq)` — a
    /// retransmitted withdrawal is re-signed (fresh blinded element)
    /// without a second debit.
    debited: Dedup,
}

impl Node for SignerNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let Some(user) = self
            .node_to_user
            .iter()
            .find(|(n, _)| *n == from)
            .map(|(_, u)| *u)
        else {
            return;
        };
        if self.recover {
            let Some((seq, blinded)) = wire::unframe(&msg.bytes) else {
                return;
            };
            ctx.world.crypto_op("rsa_sign");
            let mut shared = self.bank.borrow_mut();
            let signed = if self.debited.first(from.0 as u64, seq) {
                shared.bank.withdraw(user, blinded)
            } else {
                shared.bank.resign(user, blinded)
            };
            drop(shared);
            // An over-drawn account still gets no signature: fail closed.
            let Ok(blind_sig) = signed else { return };
            ctx.send(
                from,
                Message::new(wire::frame(seq, &blind_sig), Label::Public),
            );
            return;
        }
        // An over-drawn account (e.g. a duplicated withdraw request past
        // the balance) gets no signature: the bank fails closed.
        ctx.world.crypto_op("rsa_sign");
        let Ok(blind_sig) = self.bank.borrow_mut().bank.withdraw(user, &msg.bytes) else {
            return;
        };
        ctx.send(from, Message::new(blind_sig, Label::Public));
    }
}

/// One deposit the seller is driving (recovery path).
struct DepositCheck {
    /// The coin bytes, kept for re-forwarding while the verifier leg is
    /// still unresolved.
    coin: Vec<u8>,
    /// The seller's hop-local sequence on the verifier leg.
    hopseq: u64,
    /// Has the verifier acknowledged the deposit?
    acked: bool,
}

struct SellerNode {
    entity: EntityId,
    /// The deposit endpoint: an anonymous coin with limited content,
    /// admitted by the verifier's `(△, ⊙/●)` cap.
    verifier: Endpoint<CoinDeposit, Control, BankVerifier>,
    /// Deposits awaiting verifier ack: (buyer node, subject).
    outstanding: Vec<(NodeId, UserId)>,
    /// Subject attached to incoming coins by sender node.
    node_to_user: Vec<(NodeId, UserId)>,
    /// Is the run's recovery layer on?
    recover: bool,
    /// Recovery path: one deposit per `(buyer node, buyer seq)` — the
    /// buyer's ARQ drives the chain; retransmitted coins are never
    /// re-deposited.
    checks: BTreeMap<(usize, u64), DepositCheck>,
    /// Reverse map: verifier-leg hop sequence → (buyer node, buyer seq).
    by_hop: BTreeMap<u64, (NodeId, u64)>,
    next_hop: u64,
}

impl Node for SellerNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if from.0 == self.verifier.index() {
            if self.recover {
                let Some((hopseq, _body)) = wire::unframe(&msg.bytes) else {
                    return;
                };
                let Some(&(buyer, cseq)) = self.by_hop.get(&hopseq) else {
                    return;
                };
                let Some(check) = self.checks.get_mut(&(buyer.0, cseq)) else {
                    return;
                };
                check.acked = true;
                ctx.send(buyer, Message::public(wire::frame(cseq, b"receipt")));
                return;
            }
            // Deposit acknowledged: send the buyer their goods/receipt.
            if let Some((buyer, _)) = self.outstanding.pop() {
                ctx.send(buyer, Message::public(b"receipt".to_vec()));
            }
            return;
        }
        let Some(user) = self
            .node_to_user
            .iter()
            .find(|(n, _)| *n == from)
            .map(|(_, u)| *u)
        else {
            return;
        };
        // The verifier sees a valid coin (limited sensitive content ⊙/●)
        // from an anonymous depositor chain — it learns nothing that names
        // the buyer.
        let label = Label::items([
            InfoItem::plain_identity(user, IdentityKind::Any),
            InfoItem::partial_data(user, DataKind::Purchase),
        ]);
        if self.recover {
            let Some((cseq, coin)) = wire::unframe(&msg.bytes) else {
                return;
            };
            let key = (from.0, cseq);
            if let Some(check) = self.checks.get(&key) {
                if check.acked {
                    // Idempotent replay: the goods ship once, the receipt
                    // as often as asked.
                    ctx.send(from, Message::public(wire::frame(cseq, b"receipt")));
                } else {
                    // Still depositing: re-nudge the verifier leg under the
                    // *same* hop sequence (the verifier replays its ack).
                    let fwd = wire::frame(check.hopseq, &check.coin);
                    ctx.send_to(self.verifier, Message::new(fwd, label));
                }
                return;
            }
            let hopseq = self.next_hop;
            self.next_hop += 1;
            self.checks.insert(
                key,
                DepositCheck {
                    coin: coin.to_vec(),
                    hopseq,
                    acked: false,
                },
            );
            self.by_hop.insert(hopseq, (from, cseq));
            ctx.send_to(
                self.verifier,
                Message::new(wire::frame(hopseq, coin), label),
            );
            return;
        }
        self.outstanding.insert(0, (from, user));
        ctx.send_to(self.verifier, Message::new(msg.bytes, label));
    }
}

struct VerifierNode {
    entity: EntityId,
    bank: Rc<RefCell<Shared>>,
    seller_user: UserId,
    sig_len: usize,
    /// Is the run's recovery layer on?
    recover: bool,
    /// Recovery path: acks per seller hop sequence, so a re-forwarded
    /// deposit replays the ack instead of reading the retransmission as a
    /// double-spend.
    acked: BTreeMap<u64, bool>,
}

impl Node for VerifierNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if self.recover {
            let Some((hopseq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            if let Some(&ok) = self.acked.get(&hopseq) {
                // Replay: the first deposit's outcome stands — a
                // retransmitted coin is never a double-spend.
                if ok {
                    ctx.send(from, Message::public(wire::frame(hopseq, b"ok")));
                }
                return;
            }
            let Ok(coin) = Coin::decode(body, self.sig_len) else {
                return;
            };
            ctx.world.crypto_op("rsa_verify");
            let mut shared = self.bank.borrow_mut();
            let ok = shared.bank.deposit(self.seller_user, &coin).is_ok();
            if ok {
                shared.deposited += 1;
            }
            drop(shared);
            self.acked.insert(hopseq, ok);
            if ok {
                ctx.send(from, Message::public(wire::frame(hopseq, b"ok")));
            }
            return;
        }
        // Truncated coins and double spends (a duplicated deposit) are
        // rejected without acknowledgment — the verifier fails closed.
        let Ok(coin) = Coin::decode(&msg.bytes, self.sig_len) else {
            return;
        };
        ctx.world.crypto_op("rsa_verify");
        let mut shared = self.bank.borrow_mut();
        if shared.bank.deposit(self.seller_user, &coin).is_err() {
            return;
        }
        shared.deposited += 1;
        drop(shared);
        ctx.send(from, Message::public(b"ok".to_vec()));
    }
}

fn run_impl(cfg: &BlindcashConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
    use rand::SeedableRng;
    let (n_buyers, coins_each, rsa_bits) = (cfg.buyers, cfg.coins_each, cfg.rsa_bits);
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xb1bd);

    let (mut world, harness) = Harness::begin(Blindcash::NAME, seed, opts);
    let bank_org = world.add_org("bank");
    let seller_org = world.add_org("seller");
    let user_org = world.add_org("users");

    let signer_e = world.add_entity("Signer (Bank)", bank_org, None);
    let verifier_e = world.add_entity("Verifier (Bank)", bank_org, None);
    let seller_e = world.add_entity("Seller", seller_org, None);

    let mut bank = Bank::new(&mut setup_rng, rsa_bits);
    let mut buyers = Vec::new();
    let mut buyer_entities = Vec::new();
    for _ in 0..n_buyers {
        let u = world.add_user();
        // Name the first buyer "Buyer" to match the paper's column.
        let name = if buyers.is_empty() {
            "Buyer".to_string()
        } else {
            format!("Buyer {}", buyers.len() + 1)
        };
        let e = world.add_entity(&name, user_org, Some(u));
        bank.open_account(u, coins_each as i64 + 1);
        buyers.push(u);
        buyer_entities.push(e);
    }
    let seller_user = world.add_user(); // the seller's own account identity
    bank.open_account(seller_user, 0);

    let sig_len = bank.public_key().modulus_len();
    let shared = Rc::new(RefCell::new(Shared {
        bank,
        deposited: 0,
        cycle_times: Vec::new(),
        linkage: RetryLinkage::new(),
    }));

    let mut net = harness.network(world, LinkParams::wan_ms(10));

    // Reserve ids: signer=0, verifier=1, seller=2, buyers=3..
    let signer_ep: Endpoint<WithdrawalReq, Control, BankSigner> = Endpoint::new(0);
    let verifier_ep: Endpoint<CoinDeposit, Control, BankVerifier> = Endpoint::new(1);
    let seller_ep: Endpoint<Purchase, Control, CoinSeller> = Endpoint::new(2);
    let buyer_ids: Vec<NodeId> = (0..n_buyers).map(|i| NodeId(3 + i)).collect();
    let node_to_user: Vec<(NodeId, UserId)> = buyer_ids
        .iter()
        .copied()
        .zip(buyers.iter().copied())
        .collect();

    let recover_on = opts.recover.enabled;
    Harness::add_role::<BankSigner>(
        &mut net,
        Box::new(SignerNode {
            entity: signer_e,
            bank: shared.clone(),
            node_to_user: node_to_user.clone(),
            recover: recover_on,
            debited: Dedup::new(),
        }),
    );
    Harness::add_role::<BankVerifier>(
        &mut net,
        Box::new(VerifierNode {
            entity: verifier_e,
            bank: shared.clone(),
            seller_user,
            sig_len,
            recover: recover_on,
            acked: BTreeMap::new(),
        }),
    );
    Harness::add_role::<CoinSeller>(
        &mut net,
        Box::new(SellerNode {
            entity: seller_e,
            verifier: verifier_ep,
            outstanding: Vec::new(),
            node_to_user: node_to_user.clone(),
            recover: recover_on,
            checks: BTreeMap::new(),
            by_hop: BTreeMap::new(),
            next_hop: 0,
        }),
    );
    for (i, (&u, &e)) in buyers.iter().zip(buyer_entities.iter()).enumerate() {
        Harness::add_role::<CoinBuyer>(
            &mut net,
            Box::new(BuyerNode {
                entity: e,
                user: u,
                signer: signer_ep,
                seller: seller_ep,
                bank: shared.clone(),
                pending: None,
                coins_to_spend: coins_each,
                started_at: SimTime::ZERO,
                calls: Driver::new(&opts.recover, derive_seed(seed, 0xb1b0 + i as u64)),
                flow: i as u64,
            }),
        );
        debug_assert_eq!(buyer_ids[i], NodeId(3 + i));
    }

    let core = harness.finish(net);
    let shared = Rc::try_unwrap(shared)
        .map_err(|_| ())
        .expect("sim still holds bank")
        .into_inner();
    ScenarioReport {
        world: core.world,
        trace: core.trace,
        deposited: shared.deposited,
        mean_cycle_us: mean_us(&shared.cycle_times),
        buyers,
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected: (n_buyers * coins_each) as u64,
        retry_linkage: shared.linkage.violations(),
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
