//! Kernel-specific correctness invariants, checked on the committed
//! memory image after full engine runs under every protocol, the
//! software STM at both isolation levels among them (its final `TVar`
//! image written back into an `MvmStore`). These are the semantic
//! guarantees concurrency must not break — complementary to the
//! abort/throughput measurements of the figure harnesses.

use sitm_bench::stm_driver::StmProtocol;
use sitm_core::{SiTm, Sontm, SsiTm, TwoPl};
use sitm_mvm::{MvmStore, Word, WORDS_PER_LINE};
use sitm_sim::{Engine, MachineConfig, TmProtocol, Workload};
use sitm_stm::Stm;
use sitm_workloads::stamp::{
    GenomeParams, GenomeWorkload, IntruderParams, IntruderWorkload, LabyrinthParams,
    LabyrinthWorkload, Ssca2Params, Ssca2Workload,
};

fn machine(cores: usize) -> MachineConfig {
    let mut cfg = MachineConfig::with_cores(cores);
    cfg.max_cycles = 1_000_000_000;
    cfg
}

/// Runs a fresh workload from `make` on `cores` simulated cores under
/// each simulated protocol and the STM at both isolation levels, and
/// hands `check` each run's name, commit count and final memory.
fn run_all_protocols(
    make: impl Fn() -> Box<dyn Workload>,
    cores: usize,
    seed: u64,
    check: impl Fn(&str, u64, &MvmStore),
) {
    let cfg = machine(cores);
    for p in 0..6usize {
        let mut w = make();
        let (stats, store) = match p {
            0 => {
                let (s, pr) = Engine::new(TwoPl::new(&cfg), w.as_mut(), &cfg, seed).run();
                (s, pr.store().clone())
            }
            1 => {
                let (s, pr) = Engine::new(Sontm::new(&cfg), w.as_mut(), &cfg, seed).run();
                (s, pr.store().clone())
            }
            2 => {
                let (s, pr) = Engine::new(SiTm::new(&cfg), w.as_mut(), &cfg, seed).run();
                (s, pr.store().clone())
            }
            3 => {
                let (s, pr) = Engine::new(SsiTm::new(&cfg), w.as_mut(), &cfg, seed).run();
                (s, pr.store().clone())
            }
            _ => {
                let stm = if p == 4 {
                    Stm::snapshot()
                } else {
                    Stm::serializable()
                };
                let protocol = StmProtocol::new(&cfg, stm);
                let (s, pr) = Engine::new(protocol, w.as_mut(), &cfg, seed).run();
                (s, pr.to_store())
            }
        };
        assert!(!stats.truncated, "{}: {}", stats.protocol, stats.summary());
        check(&stats.protocol, stats.commits(), &store);
    }
}

/// Genome's hash set must never hold the same segment in two slots —
/// concurrent duplicate inserts must resolve to one slot (the dedup
/// semantics the kernel exists for).
#[test]
fn genome_never_duplicates_segments() {
    let params = GenomeParams::quick();
    run_all_protocols(
        move || Box::new(GenomeWorkload::new(params)),
        8,
        17,
        move |p, _commits, store| {
            // Slots start at line 0 (first allocation of setup).
            let mut seen = std::collections::HashSet::new();
            for slot in 0..params.table_slots {
                let v = store.read_word(sitm_mvm::Addr((slot as u64) * WORDS_PER_LINE as u64));
                if v != 0 {
                    assert!(v <= params.segments as Word, "{p}: slot holds garbage {v}");
                    assert!(seen.insert(v), "{p}: segment {v} occupies two slots");
                }
            }
        },
    );
}

/// ssca2's total degree must equal the number of committed insertions —
/// no lost or doubled edges.
#[test]
fn ssca2_degree_equals_commits() {
    let params = Ssca2Params::quick();
    run_all_protocols(
        move || Box::new(Ssca2Workload::new(params)),
        8,
        23,
        move |p, commits, store| {
            let total = Ssca2Workload::total_degree(store, 0, params.nodes);
            assert_eq!(total, commits, "{p}: lost or doubled edge insertions");
        },
    );
}

/// Intruder's per-flow fragment lists must stay sorted and
/// duplicate-free, and the queue head must equal the committed pop
/// count.
#[test]
fn intruder_flow_lists_stay_consistent() {
    let params = IntruderParams::quick();
    run_all_protocols(
        move || Box::new(IntruderWorkload::new(params)),
        8,
        29,
        move |p, _commits, store| {
            // Flow heads occupy lines 1..=flows (line 0 is the queue).
            for head in 1..=params.flows as u64 {
                let values = sitm_workloads::ListWorkload::snapshot_values(store, head);
                assert!(
                    values.windows(2).all(|w| w[0] < w[1]),
                    "{p}: flow list {head} corrupt: {values:?}"
                );
            }
        },
    );
}

/// Labyrinth's grid must only contain zeros and claimed route ids, and
/// each route id claims a contiguous count of cells (its full path) or
/// none (the transaction observed an occupied cell).
#[test]
fn labyrinth_claims_are_all_or_nothing_per_route() {
    let params = LabyrinthParams::quick();
    run_all_protocols(
        move || Box::new(LabyrinthWorkload::new(params)),
        4,
        31,
        move |p, _commits, store| {
            let cells = (params.side * params.side * params.side) as u64;
            let mut claims: std::collections::HashMap<Word, u64> = std::collections::HashMap::new();
            for c in 0..cells {
                let v = store.read_word(sitm_mvm::Addr(c));
                if v != 0 {
                    *claims.entry(v).or_insert(0) += 1;
                }
            }
            for (route, count) in claims {
                assert!(count >= 1, "{p}: route {route} claimed no cells");
                // A rectilinear path in an 8^3 grid spans at most
                // 3*(side-1)+1 cells.
                assert!(
                    count <= (3 * (params.side as u64 - 1) + 1),
                    "{p}: route {route} claimed {count} cells — \
                     more than any single path"
                );
            }
        },
    );
}
