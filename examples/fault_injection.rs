//! Fault injection from the public API: run the ODoH scenario under a
//! chosen preset and show that the decoupling tables are fault-stable.
//!
//! ```sh
//! cargo run --release --example fault_injection [calm|moderate|chaos|blackout]
//! ```
//!
//! `blackout` is a hand-tuned config with `p_drop = 1.0` — every packet
//! vanishes. The scenario makes no progress, but it *fails closed*: no
//! plaintext fallback, no new coupling, no panic.

use decoupling::faults::dst;
use decoupling::Scenario as _;
use decoupling::{FaultConfig, Odoh, OdohConfig, RunOptions};

fn main() {
    let preset = std::env::args().nth(1).unwrap_or_else(|| "chaos".into());
    let faults = match preset.as_str() {
        "calm" => FaultConfig::calm(),
        "moderate" => FaultConfig::moderate(),
        "chaos" => FaultConfig::chaos(),
        "blackout" => FaultConfig {
            enabled: true,
            p_drop: 1.0,
            max_faults: 10_000,
            ..FaultConfig::calm()
        },
        other => {
            eprintln!("unknown preset {other:?}: use calm | moderate | chaos | blackout");
            std::process::exit(2);
        }
    };

    let seed = 42;
    let cfg = OdohConfig::new(3, 4);
    let calm = Odoh::run(&cfg, seed);
    let run = Odoh::run_with(&cfg, seed, &RunOptions::with_faults(&faults));

    println!("ODoH under {preset:?} (seed {seed}):");
    println!("  queries answered : {}/{}", run.answered, 3 * 4);
    println!("  faults injected  : {}", run.fault_log.len());
    for event in run.fault_log.events().iter().take(5) {
        println!("    t={:>8}µs {:?}", event.at_us, event.kind);
    }
    if run.fault_log.len() > 5 {
        println!("    … {} more", run.fault_log.len() - 5);
    }

    let fresh = dst::new_couplings(&calm.world, &run.world);
    println!("  new couplings vs calm baseline: {fresh:?}");
    assert!(fresh.is_empty(), "faults must never couple anyone new");
    run.world.assert_decoupled_except_user();
    println!("  decoupling verdict: ✓ fault-stable");
}
