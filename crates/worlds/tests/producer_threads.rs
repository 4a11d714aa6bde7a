//! A live engine owns at most one producer thread for its arrival
//! stream, started by the first arrival it handles, and dropping the
//! engine joins it. The check counts this process's threads
//! (`Threads:` in `/proc/self/status`), so this binary holds this one
//! test: the harness runs each test on a thread of its own.

use std::time::{Duration, Instant};

use dcp_worlds::{Engine, Topology, WorldSpec};

/// This process's thread count; `None` where `/proc/self/status` cannot
/// be read.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

/// Whether the count comes to `want`. A joined thread leaves the count a
/// moment after `join` returns, so this waits up to ten seconds.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() != Some(want) {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn dropped_engines_leave_no_thread_behind() {
    let Some(start) = threads() else {
        eprintln!("skipped: /proc/self/status cannot be read");
        return;
    };
    // About 10,000 arrivals: ten blocks, far more than a producer draws
    // ahead of an engine stopped after 1,000 events.
    let spec = WorldSpec::smoke()
        .users(100)
        .names(50)
        .rate_hz(50.0)
        .duration_us(2_000_000);
    let topo = Topology::mixnet();
    let mid_run = |seed| {
        let mut e = Engine::new(&spec, &topo, seed).unwrap();
        assert!(!e.run_until_events(1_000));
        e
    };

    // Built, not run: no arrival handled, no producer.
    let idle = Engine::new(&spec, &topo, 1).unwrap();
    assert!(settles_at(start), "an idle engine started a thread");

    let mut live: Vec<Engine> = (1..=3).map(mid_run).collect();
    assert!(
        settles_at(start + 3),
        "three engines mid-run: {:?}",
        threads()
    );

    // A restored engine starts its producer at its first arrival.
    let mut restored = Engine::restore(&live[0].checkpoint()).unwrap();
    assert!(settles_at(start + 3), "restoring started a thread");
    restored.run_until_events(restored.events_processed() + 1_000);
    assert!(settles_at(start + 4), "{:?}", threads());

    drop(live.pop());
    assert!(settles_at(start + 3), "a dropped engine left its producer");
    drop(restored);
    drop(live);
    assert!(
        settles_at(start),
        "{:?} threads, {start} at the start",
        threads()
    );

    // A producer returns once it has drawn the stream's end; the engine
    // that ran to the end joins it on drop.
    let mut ended = mid_run(4);
    ended.run_to_end();
    assert!(settles_at(start), "a producer outlived its stream");
    drop(ended);
    drop(idle);
    assert!(settles_at(start));
}
