//! The bank: account ledger, blind signer, and deposit verifier.
//!
//! The Signer and Verifier are "the same entity, but the use of blind
//! signatures enforces decoupling by ensuring that the two actions and the
//! user's identity cannot be linked" (§3.1.1). The struct keeps separate
//! audit logs for each role so the scenario can check what each *could*
//! link.

use std::collections::{HashMap, HashSet};

use dcp_core::UserId;
use dcp_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use rand::Rng;

use crate::coin::{Coin, SERIAL_LEN};
use crate::CashError;

/// Value of one coin, in account units.
pub const COIN_VALUE: i64 = 1;

/// Why a deposit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepositError {
    /// The signature did not verify.
    BadSignature,
    /// The serial was already deposited.
    DoubleSpend,
}

/// The bank (mint).
pub struct Bank {
    key: RsaPrivateKey,
    accounts: HashMap<UserId, i64>,
    /// Serials already deposited (the double-spend ledger).
    spent: HashSet<[u8; SERIAL_LEN]>,
    /// Signer-side audit log: (account, blinded message) — everything the
    /// signing role ever sees.
    pub signer_log: Vec<(UserId, Vec<u8>)>,
    /// Verifier-side audit log: serials — everything the verifying role
    /// ever sees.
    pub verifier_log: Vec<[u8; SERIAL_LEN]>,
}

impl Bank {
    /// Found a bank with an RSA key of `bits`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        Bank {
            key: RsaPrivateKey::generate(rng, bits).expect("bank keygen"),
            accounts: HashMap::new(),
            spent: HashSet::new(),
            signer_log: Vec::new(),
            verifier_log: Vec::new(),
        }
    }

    /// The bank's public key (published to all parties).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.key.public_key()
    }

    /// Open an account with an initial balance.
    pub fn open_account(&mut self, user: UserId, balance: i64) {
        self.accounts.insert(user, balance);
    }

    /// Account balance.
    pub fn balance(&self, user: UserId) -> Option<i64> {
        self.accounts.get(&user).copied()
    }

    /// Withdrawal: blind-sign the presented element and debit the
    /// account. The bank authenticates the account holder (it knows
    /// *who*), but the blinded element tells it nothing about the coin it
    /// certifies. It signs before it debits, so an element it cannot sign
    /// costs nothing.
    pub fn withdraw(&mut self, user: UserId, blinded_msg: &[u8]) -> Result<Vec<u8>, CashError> {
        let balance = self
            .accounts
            .get_mut(&user)
            .ok_or(CashError::NoSuchAccount)?;
        if *balance < COIN_VALUE {
            return Err(CashError::InsufficientFunds);
        }
        let blind_sig = self.key.blind_sign(blinded_msg)?;
        *balance -= COIN_VALUE;
        self.signer_log.push((user, blinded_msg.to_vec()));
        Ok(blind_sig)
    }

    /// Blind-sign without touching the ledger: answers a *retransmitted*
    /// withdrawal whose debit already happened (the first response was
    /// lost in flight). The retransmission carries a freshly blinded
    /// element — re-signing it keeps attempts unlinkable on the wire
    /// without debiting the account twice.
    pub fn resign(&mut self, user: UserId, blinded_msg: &[u8]) -> Result<Vec<u8>, CashError> {
        if !self.accounts.contains_key(&user) {
            return Err(CashError::NoSuchAccount);
        }
        self.signer_log.push((user, blinded_msg.to_vec()));
        Ok(self.key.blind_sign(blinded_msg)?)
    }

    /// Deposit: verify the coin and check the double-spend ledger. The
    /// depositing party's account is credited.
    pub fn deposit(&mut self, depositor: UserId, coin: &Coin) -> Result<(), DepositError> {
        if coin.verify(self.key.public_key()).is_err() {
            return Err(DepositError::BadSignature);
        }
        if !self.spent.insert(coin.serial) {
            return Err(DepositError::DoubleSpend);
        }
        self.verifier_log.push(coin.serial);
        *self.accounts.entry(depositor).or_insert(0) += COIN_VALUE;
        Ok(())
    }

    /// Linkage check used by tests: can the bank connect a deposited serial
    /// to any withdrawal event? With blind signatures the answer must be
    /// "no" — no blinded message in the signer log equals (or contains)
    /// the serial or its signature.
    pub fn can_link(&self, coin: &Coin) -> bool {
        self.signer_log.iter().any(|(_, blinded)| {
            blinded.windows(SERIAL_LEN).any(|w| w == coin.serial) || blinded == &coin.signature
        })
    }
}

/// Client-side withdrawal state.
pub struct Withdrawal {
    serial: [u8; SERIAL_LEN],
    blinding: dcp_crypto::rsa::BlindingResult,
}

impl Withdrawal {
    /// Begin a withdrawal: pick a serial and blind it.
    pub fn begin<R: Rng + ?Sized>(rng: &mut R, bank_pk: &RsaPublicKey) -> Result<Self, CashError> {
        let serial = Coin::new_serial(rng);
        let blinding = bank_pk.blind(rng, &serial)?;
        Ok(Withdrawal { serial, blinding })
    }

    /// The element to present to the bank for signing.
    pub fn blinded_msg(&self) -> &[u8] {
        &self.blinding.blinded_msg
    }

    /// Finish: unblind the bank's signature into a spendable coin.
    pub fn finish(self, bank_pk: &RsaPublicKey, blind_sig: &[u8]) -> Result<Coin, CashError> {
        let signature = bank_pk.finalize(&self.serial, blind_sig, &self.blinding.unblinder)?;
        Ok(Coin {
            serial: self.serial,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (rand::rngs::StdRng, Bank) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let bank = Bank::new(&mut rng, 512);
        (rng, bank)
    }

    #[test]
    fn full_cycle_withdraw_spend_deposit() {
        let (mut rng, mut bank) = setup();
        let buyer = UserId(1);
        let seller = UserId(2);
        bank.open_account(buyer, 10);
        bank.open_account(seller, 0);

        let w = Withdrawal::begin(&mut rng, bank.public_key()).unwrap();
        let blind_sig = bank.withdraw(buyer, w.blinded_msg()).unwrap();
        let coin = w.finish(bank.public_key(), &blind_sig).unwrap();
        assert_eq!(bank.balance(buyer), Some(9));

        // Seller receives the coin and deposits it.
        bank.deposit(seller, &coin).unwrap();
        assert_eq!(bank.balance(seller), Some(1));
    }

    #[test]
    fn double_spend_rejected() {
        let (mut rng, mut bank) = setup();
        let buyer = UserId(1);
        bank.open_account(buyer, 10);
        let w = Withdrawal::begin(&mut rng, bank.public_key()).unwrap();
        let bs = bank.withdraw(buyer, w.blinded_msg()).unwrap();
        let coin = w.finish(bank.public_key(), &bs).unwrap();

        bank.deposit(UserId(2), &coin).unwrap();
        assert_eq!(
            bank.deposit(UserId(3), &coin),
            Err(DepositError::DoubleSpend)
        );
        // Only the first depositor was credited.
        assert_eq!(bank.balance(UserId(2)), Some(1));
        assert_eq!(bank.balance(UserId(3)), None);
    }

    #[test]
    fn forged_coin_rejected() {
        let (mut rng, mut bank) = setup();
        let coin = Coin {
            serial: Coin::new_serial(&mut rng),
            signature: vec![7; bank.public_key().modulus_len()],
        };
        assert_eq!(
            bank.deposit(UserId(2), &coin),
            Err(DepositError::BadSignature)
        );
    }

    #[test]
    fn insufficient_funds_and_unknown_account() {
        let (mut rng, mut bank) = setup();
        let w = Withdrawal::begin(&mut rng, bank.public_key()).unwrap();
        assert_eq!(
            bank.withdraw(UserId(9), w.blinded_msg()),
            Err(CashError::NoSuchAccount)
        );
        bank.open_account(UserId(9), 0);
        assert_eq!(
            bank.withdraw(UserId(9), w.blinded_msg()),
            Err(CashError::InsufficientFunds)
        );
    }

    #[test]
    fn bank_cannot_link_coin_to_withdrawal() {
        let (mut rng, mut bank) = setup();
        let buyer = UserId(1);
        bank.open_account(buyer, 10);
        let mut coins = Vec::new();
        for _ in 0..5 {
            let w = Withdrawal::begin(&mut rng, bank.public_key()).unwrap();
            let bs = bank.withdraw(buyer, w.blinded_msg()).unwrap();
            coins.push(w.finish(bank.public_key(), &bs).unwrap());
        }
        for coin in &coins {
            bank.deposit(UserId(2), coin).unwrap();
            assert!(
                !bank.can_link(coin),
                "signer log must not reveal the serial"
            );
        }
        assert_eq!(bank.signer_log.len(), 5);
        assert_eq!(bank.verifier_log.len(), 5);
    }

    #[test]
    fn resign_signs_without_debiting() {
        let (mut rng, mut bank) = setup();
        let buyer = UserId(1);
        bank.open_account(buyer, 1);
        let w = Withdrawal::begin(&mut rng, bank.public_key()).unwrap();
        bank.withdraw(buyer, w.blinded_msg()).unwrap();
        assert_eq!(bank.balance(buyer), Some(0));
        // The retransmission re-blinds; resign answers it with no debit
        // even though the balance is exhausted.
        let w2 = Withdrawal::begin(&mut rng, bank.public_key()).unwrap();
        let bs2 = bank.resign(buyer, w2.blinded_msg()).unwrap();
        let coin = w2.finish(bank.public_key(), &bs2).unwrap();
        assert_eq!(bank.balance(buyer), Some(0), "no second debit");
        bank.deposit(UserId(2), &coin).unwrap();
        assert_eq!(bank.resign(UserId(9), b"x"), Err(CashError::NoSuchAccount));
    }

    #[test]
    fn a_refused_element_is_not_debited() {
        let (mut rng, mut bank) = setup();
        let buyer = UserId(1);
        bank.open_account(buyer, 2);
        assert!(matches!(
            bank.withdraw(buyer, &[1, 2, 3, 4, 5]),
            Err(CashError::Crypto(_))
        ));
        assert_eq!(
            bank.balance(buyer),
            Some(2),
            "nothing signed, nothing taken"
        );
        assert!(bank.signer_log.is_empty());
        let w = Withdrawal::begin(&mut rng, bank.public_key()).unwrap();
        bank.withdraw(buyer, w.blinded_msg()).unwrap();
        assert_eq!(bank.balance(buyer), Some(1));
    }

    #[test]
    fn money_is_conserved() {
        let (mut rng, mut bank) = setup();
        bank.open_account(UserId(1), 5);
        bank.open_account(UserId(2), 0);
        for _ in 0..5 {
            let w = Withdrawal::begin(&mut rng, bank.public_key()).unwrap();
            let bs = bank.withdraw(UserId(1), w.blinded_msg()).unwrap();
            let coin = w.finish(bank.public_key(), &bs).unwrap();
            bank.deposit(UserId(2), &coin).unwrap();
        }
        assert_eq!(bank.balance(UserId(1)), Some(0));
        assert_eq!(bank.balance(UserId(2)), Some(5));
        assert_eq!(
            bank.withdraw(UserId(1), &[0u8; 64]),
            Err(CashError::InsufficientFunds)
        );
    }
}
