//! All four protocol models implement `sitm_obs::Observable` and export
//! a namespaced metric set over the shared MVM store counters.

use sitm_core::{SiTm, Sontm, SsiTm, TwoPl};
use sitm_mvm::ThreadId;
use sitm_obs::{MetricsRegistry, Observable};
use sitm_sim::{BeginOutcome, CommitOutcome, MachineConfig, TmProtocol, WriteOutcome};

/// Runs one trivial committed writer transaction through `p` and
/// returns the exported registry.
fn drive_and_export<P: TmProtocol + Observable>(p: &mut P) -> MetricsRegistry {
    let a = p.store_mut().alloc_words(1);
    let t = ThreadId(0);
    assert!(matches!(p.begin(t), BeginOutcome::Started { .. }));
    assert!(matches!(p.write(t, a, 7), WriteOutcome::Ok { .. }));
    assert!(matches!(p.commit(t, 0), CommitOutcome::Committed { .. }));
    let mut reg = MetricsRegistry::new();
    p.export_metrics(&mut reg);
    reg
}

#[test]
fn every_protocol_exports_store_metrics() {
    let machine = MachineConfig::with_cores(2);
    let regs = [
        drive_and_export(&mut SiTm::new(&machine)),
        drive_and_export(&mut SsiTm::new(&machine)),
        drive_and_export(&mut TwoPl::new(&machine)),
        drive_and_export(&mut Sontm::new(&machine)),
    ];
    for reg in &regs {
        assert!(!reg.is_empty());
        assert_eq!(reg.counter("mvm.lines"), 1);
    }
    // The multiversioned protocols commit through versioned installs;
    // the single-version baselines overwrite in place.
    for reg in &regs[..2] {
        assert_eq!(
            reg.counter("mvm.installs.created") + reg.counter("mvm.installs.coalesced"),
            1
        );
    }
}

#[test]
fn protocol_specific_namespaces_are_present() {
    let machine = MachineConfig::with_cores(2);
    let mut reg = MetricsRegistry::new();
    SiTm::new(&machine).export_metrics(&mut reg);
    assert_eq!(reg.counter("si_tm.clock.overflows"), 0);

    let mut reg = MetricsRegistry::new();
    SsiTm::new(&machine).export_metrics(&mut reg);
    assert_eq!(reg.counter("ssi_tm.committed_window.retained"), 0);

    let mut reg = MetricsRegistry::new();
    TwoPl::new(&machine).export_metrics(&mut reg);
    assert!(reg.counter("two_pl.capacity_lines") > 0);

    let mut reg = MetricsRegistry::new();
    Sontm::new(&machine).export_metrics(&mut reg);
    assert_eq!(reg.counter("sontm.write_numbers.lines"), 0);
}
