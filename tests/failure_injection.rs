//! Failure injection through the full stack: clock overflow, version
//! cap pressure, and zombie sandboxing, all driven by the real engine.

use sitm_check::{check, Discipline};
use sitm_core::{SiTm, SiTmConfig, Sontm, SsiTm};
use sitm_mvm::OverflowPolicy;
use sitm_sim::{run_simulation, AbortCause, Engine, MachineConfig, TmProtocol};
use sitm_workloads::{
    ArrayParams, ArrayWorkload, ListParams, ListWorkload, RbTreeParams, RbTreeWorkload,
};

fn machine(cores: usize) -> MachineConfig {
    let mut cfg = MachineConfig::with_cores(cores);
    cfg.max_cycles = 1_000_000_000;
    cfg
}

/// A tiny timestamp space forces repeated clock overflows mid-run; the
/// interrupt path (abort-all, flatten, reset) must keep the run correct
/// and complete, under SI-TM and under SSI-TM (which shares it).
#[test]
fn engine_survives_repeated_clock_overflows() {
    let cfg = machine(4);
    let si_cfg = SiTmConfig {
        timestamp_limit: Some(64),
        ..SiTmConfig::default()
    };
    survives_clock_overflows(&cfg, SiTm::with_config(&cfg, si_cfg), |p| {
        p.clock().overflows()
    });
    survives_clock_overflows(&cfg, SsiTm::with_config(&cfg, si_cfg), |p| {
        p.clock().overflows()
    });
}

/// Runs the list workload under `protocol`, whose clock overflows at
/// least once, and certifies the recorded history.
fn survives_clock_overflows<P: TmProtocol>(
    cfg: &MachineConfig,
    protocol: P,
    overflows: impl Fn(&P) -> u64,
) {
    let mut w = ListWorkload::new(ListParams::quick());
    let (stats, protocol) = Engine::new(protocol, &mut w, cfg, 13)
        .record_history(1 << 20)
        .run();
    let name = protocol.name();
    assert!(!stats.truncated, "{name}: {}", stats.summary());
    assert!(
        overflows(&protocol) > 0,
        "{name}: a 64-timestamp space must overflow during the run"
    );
    // Overflow aborts were recorded and work still completed.
    let values = ListWorkload::snapshot_values(protocol.store(), w.head_line());
    assert!(values.windows(2).all(|p| p[0] < p[1]), "list stays sorted");
    let history = stats.history.as_ref().expect("recording was enabled");
    let report = check(Discipline::for_protocol(name), history);
    assert!(report.is_ok(), "{report}");
}

/// Version-cap pressure with the abort-writer policy: the run completes
/// and any overflow aborts are classified as such.
#[test]
fn version_cap_pressure_is_survivable() {
    let cfg = machine(8);
    let mut si_cfg = SiTmConfig::default();
    si_cfg.mvm.version_cap = 2;
    si_cfg.mvm.overflow_policy = OverflowPolicy::AbortWriter;
    let mut w = ArrayWorkload::new(ArrayParams {
        entries: 8, // hot: every update collides
        txs_per_thread: 20,
        scan_percent: 30,
    });
    let (stats, _) = Engine::new(SiTm::with_config(&cfg, si_cfg), &mut w, &cfg, 21).run();
    assert!(!stats.truncated);
    assert_eq!(stats.commits(), 8 * 20);
}

/// Discard-oldest under the same pressure: writers never overflow-abort;
/// readers may abort instead, and the run still completes.
#[test]
fn discard_oldest_shifts_aborts_to_readers() {
    let cfg = machine(8);
    let mut si_cfg = SiTmConfig::default();
    si_cfg.mvm.version_cap = 2;
    si_cfg.mvm.overflow_policy = OverflowPolicy::DiscardOldest;
    let mut w = ArrayWorkload::new(ArrayParams {
        entries: 8,
        txs_per_thread: 20,
        scan_percent: 30,
    });
    let (stats, _) = Engine::new(SiTm::with_config(&cfg, si_cfg), &mut w, &cfg, 21).run();
    assert!(!stats.truncated);
    assert_eq!(stats.commits(), 8 * 20);
}

/// SONTM's single-version lazy reads can execute on torn views; the
/// zombie sandbox must convert any divergence into `Inconsistent`
/// aborts rather than hangs, and the tree must stay valid.
#[test]
fn sontm_zombies_are_sandboxed_on_rbtree() {
    let cfg = machine(8);
    let mut w = RbTreeWorkload::new(RbTreeParams::quick());
    let (stats, protocol) = Engine::new(Sontm::new(&cfg), &mut w, &cfg, 37).run();
    assert!(
        !stats.truncated,
        "sandbox prevents livelock: {}",
        stats.summary()
    );
    sitm_workloads::check_tree(protocol.store(), w.root_ptr()).expect("tree stays valid");
    // Inconsistent aborts may or may not occur for this seed; the
    // invariant is completion + validity, not a specific count.
    let _ = stats.aborts_by(AbortCause::Inconsistent);
}

/// The engine's cycle ceiling flags truncation instead of hanging when
/// given an absurdly low budget.
#[test]
fn cycle_ceiling_truncates_gracefully() {
    let mut cfg = machine(2);
    cfg.max_cycles = 50;
    let mut w = ListWorkload::new(ListParams::quick());
    let stats = run_simulation(SiTm::new(&cfg), &mut w, &cfg, 1);
    assert!(stats.truncated);
}

/// Backoff disabled under heavy conflict still terminates (lazy
/// protocols guarantee progress: some transaction always commits).
#[test]
fn no_backoff_still_makes_progress() {
    let mut cfg = machine(8);
    cfg.backoff.enabled = false;
    let mut w = ArrayWorkload::new(ArrayParams {
        entries: 4,
        txs_per_thread: 15,
        scan_percent: 0,
    });
    let (stats, _) = Engine::new(SiTm::new(&cfg), &mut w, &cfg, 99).run();
    assert!(!stats.truncated);
    assert_eq!(stats.commits(), 8 * 15);
    assert_eq!(
        stats
            .per_thread
            .iter()
            .map(|t| t.backoff_cycles)
            .sum::<u64>(),
        0
    );
}
