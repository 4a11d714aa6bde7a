//! Crypto fast-path micro-benchmark: per-op timings for the hot
//! operations, reference vs. fast bignum backend — the artifact behind
//! `BENCH_crypto.json`.
//!
//! Measures, at a fixed RSA modulus size:
//!
//! * `modpow` — full-width exponent over the backend byte surface (the
//!   blind-signing / keygen-witness shape);
//! * `rsa_verify` — PKCS#1 v1.5 verification (`e = 65537`), routed
//!   through the process-global backend selection;
//! * `hpke_seal` — single-shot (encap + seal every message) vs. session
//!   reuse (one encap, then per-message seal only);
//! * `hpke_open` — single-shot (decap + open every message);
//! * `x25519_base` — a public key from a private scalar, by the Montgomery
//!   ladder on u = 9 (`x25519(k, &BASEPOINT)`) vs. the Edwards fixed-base
//!   comb behind `x25519::public_key`;
//! * `x25519` — a DH shared secret on a variable base: the ladder vs. a
//!   [`PreparedKey`](x25519::PreparedKey) whose comb table is built;
//! * `x25519_prepare` — a prepared key's first use: its table build plus
//!   one prepared DH, the one-time cost that later DHs repay;
//! * `hpke_setup` — one HPKE base-mode setup: `recipient` is
//!   `setup_base_r` (decapsulation by the ladder plus the key schedule),
//!   `sender_prepared` is `setup_base_s` to a prepared key (a fixed-base
//!   ephemeral key, a prepared DH plus the key schedule). Subtracting the
//!   matching `x25519` rows leaves the key schedule's cost.
//!
//! The X25519 and HPKE rows are independent of the bignum backend and of
//! `--bits`. The `speedup` map summarises fast-over-reference ratios; CI runs
//! `--smoke` and only checks the binary runs and emits well-formed JSON
//! (micro-timings on shared runners are noise).
//!
//! ```text
//! crypto [--smoke] [--bits N] [--out PATH]
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use dcp_crypto::backend::{self, BackendKind};
use dcp_crypto::{hpke, rsa, x25519};
use rand::{RngCore, SeedableRng};
use serde::Serialize;

#[derive(Serialize)]
struct OpResult {
    /// Operation name.
    op: String,
    /// Which implementation: `reference`, `fast`, `single_shot`,
    /// `session`, `ladder`, `fixed_base`, `prepared`, `first_use`,
    /// `recipient`, `sender_prepared`.
    variant: String,
    /// Mean wall-clock nanoseconds per operation.
    ns_per_op: f64,
    /// Iterations measured.
    iters: u64,
}

#[derive(Serialize)]
struct CryptoBenchReport {
    /// RSA modulus size benchmarked.
    bits: usize,
    /// Was this the CI smoke configuration?
    smoke: bool,
    /// Raw per-op timings.
    ops: Vec<OpResult>,
    /// Fast-over-reference (or session-over-single-shot,
    /// fixed-base-over-ladder, prepared-over-ladder) wall-clock ratios,
    /// keyed by operation.
    speedup: BTreeMap<String, f64>,
}

struct Args {
    smoke: bool,
    bits: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        bits: 1024,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--bits" => args.bits = value("--bits").parse().expect("--bits: integer"),
            "--out" => args.out = Some(value("--out")),
            other => panic!("unknown flag {other} (see the module docs for usage)"),
        }
    }
    args
}

/// Mean ns/op of `f` over `iters` runs (after one warmup call).
fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let args = parse_args();
    let bits = if args.smoke { 512 } else { args.bits };
    let (reps_slow, reps_fast) = if args.smoke { (2, 8) } else { (20, 200) };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbe7c);

    let sk = rsa::RsaPrivateKey::generate(&mut rng, bits).expect("keygen");
    let pk = sk.public_key().clone();
    let n = pk.modulus_be();
    let mut base = vec![0u8; n.len()];
    let mut exp = vec![0u8; n.len()];
    rng.fill_bytes(&mut base);
    rng.fill_bytes(&mut exp);
    base[0] = 0; // keep base < n

    let mut ops = Vec::new();
    let mut speedup = BTreeMap::new();
    let mut record = |op: &str, variant: &str, iters: u64, ns: f64| {
        eprintln!("{op:<24} {variant:<12} {:>12.0} ns/op", ns);
        ops.push(OpResult {
            op: op.into(),
            variant: variant.into(),
            ns_per_op: ns,
            iters,
        });
        ns
    };

    // Full-width modpow over the backend byte surface.
    let slow = record(
        "modpow",
        "reference",
        reps_slow,
        time_ns(reps_slow, || {
            backend::reference().modpow_bytes(&base, &exp, &n).unwrap();
        }),
    );
    let fast = record(
        "modpow",
        "fast",
        reps_fast,
        time_ns(reps_fast, || {
            backend::fast().modpow_bytes(&base, &exp, &n).unwrap();
        }),
    );
    speedup.insert("modpow".to_string(), slow / fast);

    // PKCS#1 v1.5 verify through the global backend switch.
    let sig = sk.sign(b"bench message").unwrap();
    backend::set_backend(BackendKind::Reference);
    let slow = record(
        "rsa_verify",
        "reference",
        reps_fast,
        time_ns(reps_fast, || {
            pk.verify(b"bench message", &sig).unwrap();
        }),
    );
    backend::set_backend(BackendKind::Fast);
    let fast = record(
        "rsa_verify",
        "fast",
        reps_fast,
        time_ns(reps_fast, || {
            pk.verify(b"bench message", &sig).unwrap();
        }),
    );
    speedup.insert("rsa_verify".to_string(), slow / fast);

    // HPKE: single-shot (encap every message) vs. session reuse.
    let kp = hpke::Keypair::generate(&mut rng);
    let single = record(
        "hpke_seal",
        "single_shot",
        reps_fast,
        time_ns(reps_fast, || {
            hpke::seal(&mut rng, &kp.public, b"bench", b"", &[0u8; 256]).unwrap();
        }),
    );
    let (_enc, mut tx) = hpke::setup_base_s(&mut rng, &kp.public, b"bench").unwrap();
    let session = record(
        "hpke_seal",
        "session",
        reps_fast,
        time_ns(reps_fast, || {
            tx.seal(b"", &[0u8; 256]);
        }),
    );
    speedup.insert("hpke_seal_session".to_string(), single / session);
    let sealed = hpke::seal(&mut rng, &kp.public, b"bench", b"", &[0u8; 256]).unwrap();
    record(
        "hpke_open",
        "single_shot",
        reps_fast,
        time_ns(reps_fast, || {
            hpke::open(&kp, b"bench", b"", &sealed).unwrap();
        }),
    );

    // X25519: the fixed basepoint by ladder vs. comb, then a variable base.
    let mut k = [0u8; 32];
    rng.fill_bytes(&mut k);
    let ladder = record(
        "x25519_base",
        "ladder",
        reps_fast,
        time_ns(reps_fast, || {
            std::hint::black_box(x25519::x25519(&k, &x25519::BASEPOINT));
        }),
    );
    let comb = record(
        "x25519_base",
        "fixed_base",
        reps_fast,
        time_ns(reps_fast, || {
            std::hint::black_box(x25519::public_key(&k));
        }),
    );
    speedup.insert("x25519_base".to_string(), ladder / comb);
    let ladder = record(
        "x25519",
        "ladder",
        reps_fast,
        time_ns(reps_fast, || {
            std::hint::black_box(x25519::x25519(&k, &kp.public));
        }),
    );
    let prepared_key = x25519::PreparedKey::new(kp.public);
    let prepared = record(
        "x25519",
        "prepared",
        reps_fast,
        time_ns(reps_fast, || {
            std::hint::black_box(prepared_key.x25519(&k));
        }),
    );
    speedup.insert("x25519_prepared".to_string(), ladder / prepared);
    record(
        "x25519_prepare",
        "first_use",
        reps_fast,
        time_ns(reps_fast, || {
            let key = x25519::PreparedKey::new(std::hint::black_box(kp.public));
            std::hint::black_box(key.x25519(&k));
        }),
    );

    // HPKE setups: the KEM above plus the key schedule.
    let (enc, _) = hpke::setup_base_s(&mut rng, &kp.public, b"bench").unwrap();
    record(
        "hpke_setup",
        "recipient",
        reps_fast,
        time_ns(reps_fast, || {
            std::hint::black_box(hpke::setup_base_r(&enc, &kp, b"bench").unwrap());
        }),
    );
    record(
        "hpke_setup",
        "sender_prepared",
        reps_fast,
        time_ns(reps_fast, || {
            std::hint::black_box(hpke::setup_base_s(&mut rng, &prepared_key, b"bench").unwrap());
        }),
    );

    let report = CryptoBenchReport {
        bits,
        smoke: args.smoke,
        ops,
        speedup,
    };
    for (op, s) in &report.speedup {
        eprintln!("speedup {op:<24} {s:.2}x");
    }
    let path = args.out.as_deref().unwrap_or("BENCH_crypto.json");
    dcp_obs::write_json(&report, path).expect("write bench artifact");
    eprintln!("wrote {path}");
}
