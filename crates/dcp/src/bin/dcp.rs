//! `dcp` — the repository's command-line front door.
//!
//! The one subcommand so far is `serve`: host a wiring's roles over real
//! TCP sockets via `dcp-serve` instead of the simulator. Every registered
//! wiring with a serve spec ([`decoupling::REGISTRY`]) is servable
//! through one code path: §3.1.1's blind-signature cash, §3.2.1's
//! Privacy Pass, the DNS family of §3.2.2 and §5.1, §3.2.3's PGPP,
//! §3.2.4's multi-party relay and §3.3's VPN. `--clients` and `--queries`
//! set the users and what each does: queries, fetches, redemptions (at
//! most four, one issuance batch), coins or attaches (all within one
//! IMSI epoch, which lasts one second).
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
//!     with loopback. `usage()` lists each wiring's roles.
//! ```
//!
//! Argument parsing is deliberately hand-rolled: the workspace builds
//! offline and takes no dependency it can't vendor.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use dcp_faults::dst::KnowledgeFingerprint;
use dcp_runtime::seam::{ServeSpec, Twin};
use dcp_serve::{run_loopback, run_role, ServeConfig};
use decoupling::{registration, REGISTRY};

/// The usage text, with each servable wiring's roles read from its spec
/// at two clients.
fn usage() -> String {
    let mut text = String::from(
        "usage:\n  \
         dcp serve SCENARIO [--clients N] [--queries N] [--seed S]\n  \
         dcp serve SCENARIO --role NAME --listen ADDR [--peer NAME=ADDR]... \
         [--seed S] [--deadline SECS]\n\n\
         --queries N: each client's queries, fetches, redemptions \
         (privacypass: at most 4),\n  \
         coins or attaches (pgpp: all within one IMSI epoch, one second long)\n\n\
         scenarios and their roles at two clients:",
    );
    for reg in REGISTRY {
        if let Some(Ok((spec, _))) = reg.serve.map(|serve| serve(2, 1, 7)) {
            let roles: Vec<&str> = spec.roles.iter().map(|r| r.name.as_str()).collect();
            text += &format!("\n  {:<12} {}", reg.name, roles.join(" | "));
        }
    }
    text
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

/// `scenario`'s servable spec for these arguments, and its simulated
/// twin at the same config and seed.
fn wiring(scenario: &str, a: &ServeArgs) -> Result<(ServeSpec, Twin), String> {
    let serve = registration(scenario)
        .and_then(|reg| reg.serve)
        .ok_or_else(|| {
            let servable: Vec<&str> = REGISTRY
                .iter()
                .filter(|reg| reg.serve.is_some())
                .map(|reg| reg.name)
                .collect();
            format!(
                "no servable scenario {scenario:?} (try: {})",
                servable.join(", ")
            )
        })?;
    serve(a.clients, a.queries, a.seed).map_err(|e| format!("{scenario}: {e}"))
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
            None => Err(usage()),
        },
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
