//! `dcp` — the repository's command-line front door.
//!
//! The one subcommand so far is `serve`: host a wiring's roles over real
//! TCP sockets via `dcp-serve` instead of the simulator. Six wirings are
//! servable through one code path: §3.1.1's blind-signature cash,
//! `blindcash`; §3.2.1's Privacy Pass, `privacypass`; the DNS family of
//! §3.2.2 and §5.1 — `odoh`, `odns_legacy` and `dns_direct` (plain DNS
//! striped over two resolvers); and §3.2.4's multi-party relay, `mpr` (a
//! two-relay chain). `--clients` and `--queries` set the users and what
//! each does: queries, fetches, redemptions (at most four, one issuance
//! batch) or coins.
//!
//! ```text
//! dcp serve SCENARIO [--clients N] [--queries N] [--seed S]
//!     Loopback mode: every role a thread in this process, traffic over
//!     127.0.0.1, and — because loopback keeps the knowledge-ledger
//!     shadow — the run's knowledge fingerprint is verified byte-for-
//!     byte against the simulated twin before reporting success.
//!
//! dcp serve SCENARIO --role NAME --listen ADDR --peer NAME=ADDR ...
//!     Process mode: host exactly one role in this process, speaking TCP
//!     to peers at the given addresses. Bytes only — verification stays
//!     with loopback. Roles per scenario are listed by `usage()`.
//! ```
//!
//! Argument parsing is deliberately hand-rolled: the workspace builds
//! offline and takes no dependency it can't vendor.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use dcp_blindcash::{blindcash_serve_spec, Blindcash, BlindcashConfig};
use dcp_core::{Scenario, World};
use dcp_faults::dst::KnowledgeFingerprint;
use dcp_mpr::{mpr_serve_spec, ChainConfig, Mpr};
use dcp_odns::serve::{direct_serve_spec, odns_legacy_serve_spec, odoh_serve_spec};
use dcp_odns::{DirectDns, DirectDnsConfig, OdnsLegacy, OdnsLegacyConfig, Odoh, OdohConfig};
use dcp_privacypass::{privacypass_serve_spec, Privacypass, PrivacypassConfig};
use dcp_runtime::seam::ServeSpec;
use dcp_serve::{run_loopback, run_role, ServeConfig};

/// Resolvers `dns_direct` stripes over: the smallest striped wiring.
const DIRECT_RESOLVERS: usize = 2;

/// Relays in the `mpr` chain: the paper's two-hop configuration.
const MPR_RELAYS: usize = 2;

fn usage() -> &'static str {
    "usage:\n  \
     dcp serve SCENARIO [--clients N] [--queries N] [--seed S]\n  \
     dcp serve SCENARIO --role NAME --listen ADDR [--peer NAME=ADDR]... \
     [--seed S] [--deadline SECS]\n\n\
     scenarios and their roles (client-K for each further client):\n  \
     blindcash    signer | verifier | seller | buyer | buyer-K\n  \
     privacypass  issuer | origin | client | client-K\n  \
     odoh         proxy | target | origin | client | client-K\n  \
     odns_legacy  recursive | authority | origin | client | client-K\n  \
     dns_direct   origin | resolver | resolver-2 | client | client-K\n  \
     mpr          origin | relay | relay-2 | user | user-K"
}

struct ServeArgs {
    clients: usize,
    queries: usize,
    seed: u64,
    deadline_s: u64,
    role: Option<String>,
    listen: Option<SocketAddr>,
    peers: Vec<(String, SocketAddr)>,
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs {
        clients: 1,
        queries: 4,
        seed: 7,
        deadline_s: 30,
        role: None,
        listen: None,
        peers: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--clients" => out.clients = val("--clients")?.parse().map_err(|e| format!("{e}"))?,
            "--queries" => out.queries = val("--queries")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => out.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--deadline" => {
                out.deadline_s = val("--deadline")?.parse().map_err(|e| format!("{e}"))?
            }
            "--role" => out.role = Some(val("--role")?),
            "--listen" => out.listen = Some(val("--listen")?.parse().map_err(|e| format!("{e}"))?),
            "--peer" => {
                let spec = val("--peer")?;
                let (name, addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--peer wants NAME=ADDR, got {spec}"))?;
                out.peers.push((
                    name.to_string(),
                    addr.parse().map_err(|e| format!("bad peer addr: {e}"))?,
                ));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.role.is_some() && out.listen.is_none() {
        return Err("--role needs --listen".to_string());
    }
    Ok(out)
}

/// The simulated twin of a served wiring, run only when checked.
type Twin = Box<dyn FnOnce() -> World>;

/// `scenario`'s servable spec for these arguments, and its simulated
/// twin at the same config and seed.
fn wiring(scenario: &str, a: &ServeArgs) -> Result<(ServeSpec, Twin), String> {
    let (clients, queries, seed) = (a.clients, a.queries, a.seed);
    let wiring: (ServeSpec, Twin) = match scenario {
        "blindcash" => {
            let cfg = BlindcashConfig::default()
                .buyers(clients)
                .coins_each(queries);
            let spec = blindcash_serve_spec(&cfg, seed);
            (spec, Box::new(move || Blindcash::run(&cfg, seed).world))
        }
        "privacypass" => {
            let cfg = PrivacypassConfig::new(clients, queries);
            let spec =
                privacypass_serve_spec(&cfg, seed).map_err(|e| format!("privacypass: {e}"))?;
            (spec, Box::new(move || Privacypass::run(&cfg, seed).world))
        }
        "odoh" => {
            let cfg = OdohConfig::new(clients, queries);
            let spec = odoh_serve_spec(&cfg, seed);
            (spec, Box::new(move || Odoh::run(&cfg, seed).world))
        }
        "odns_legacy" => {
            let cfg = OdnsLegacyConfig::new(clients, queries);
            let spec = odns_legacy_serve_spec(&cfg, seed);
            (spec, Box::new(move || OdnsLegacy::run(&cfg, seed).world))
        }
        "dns_direct" => {
            let cfg = DirectDnsConfig::new(clients, queries, DIRECT_RESOLVERS);
            let spec = direct_serve_spec(&cfg, seed);
            (spec, Box::new(move || DirectDns::run(&cfg, seed).world))
        }
        "mpr" => {
            let cfg = ChainConfig {
                relays: MPR_RELAYS,
                users: clients,
                fetches_each: queries,
                geohint: false,
                seed,
            };
            let spec = mpr_serve_spec(&cfg, seed);
            (spec, Box::new(move || Mpr::run(&cfg, seed).world))
        }
        other => {
            return Err(format!(
                "unknown scenario {other:?} (try: blindcash, privacypass, odoh, odns_legacy, \
                 dns_direct, mpr)"
            ))
        }
    };
    Ok(wiring)
}

fn serve(scenario: &str, a: ServeArgs) -> Result<(), String> {
    let (spec, twin) = wiring(scenario, &a)?;
    let serve_cfg = ServeConfig {
        seed: a.seed,
        deadline: Duration::from_secs(a.deadline_s),
        ..ServeConfig::default()
    };

    if let Some(role) = a.role {
        let listen = a.listen.expect("checked in parse_serve");
        eprintln!("dcp serve {scenario}: hosting role {role:?} on {listen}");
        let units = run_role(spec, &role, listen, &a.peers, &serve_cfg)
            .map_err(|e| format!("serve failed: {e}"))?;
        println!("role {role}: {units} unit(s) completed");
        return Ok(());
    }

    // Loopback: run over real sockets, then hold the result to the
    // simulator's knowledge tables.
    let outcome = run_loopback(spec, &serve_cfg).map_err(|e| format!("serve failed: {e}"))?;
    if !outcome.complete() {
        return Err(format!(
            "run incomplete: {}/{} units completed before the deadline",
            outcome.completed_units, outcome.expected_units
        ));
    }
    let served_fp = KnowledgeFingerprint::of(&outcome.world);
    if served_fp != KnowledgeFingerprint::of(&twin()) {
        return Err(
            "knowledge tables diverged from the simulated twin — the serve path leaked or \
             lost an observation"
                .to_string(),
        );
    }
    println!(
        "{scenario} over loopback TCP: {}/{} units completed; knowledge tables identical to \
         the simulated twin (seed {})",
        outcome.completed_units, outcome.expected_units, a.seed
    );
    for (entity, tuples) in &served_fp.rows {
        println!("  {entity}: {}", tuples.join("  "));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "serve" => match rest.split_first() {
            Some((scenario, flags)) => parse_serve(flags).and_then(|a| serve(scenario, a)),
            None => Err(usage().to_string()),
        },
        _ => Err(usage().to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
