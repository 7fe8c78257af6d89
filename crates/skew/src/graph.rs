//! The write-skew dependency graph and its cycle analysis.
//!
//! Following Cahill et al. (and section 5.1 of the paper), the tool
//! builds a directed graph whose vertices are committed transactions and
//! whose edges are **read-write anti-dependencies between overlapping
//! transactions**: `A → B` when `A` read a variable that `B` wrote, and
//! the two overlapped (so `A` read the version `B` replaced). A cycle in
//! this graph is the necessary condition for a write skew; reporting
//! cycles is safe but may include false positives, exactly as the paper
//! states.
//!
//! Both inputs come straight from the recorded [`History`]: a
//! transaction's lifetime is its `begin_seq..end_seq` interval in the
//! log's global sequence order, and its read/write/promote sets are
//! folded from its `ops`. Aborted attempts publish nothing, so they are
//! not vertices.
//!
//! Reads that the application already *promoted* are excluded — they
//! would have forced a validation conflict, so the corresponding edge
//! cannot materialize into an anomaly.

use std::collections::BTreeSet;

use sitm_obs::{History, OpKind, TxnRecord};

/// An rw-antidependency edge between two committed transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RwEdge {
    /// Index (into the history's committed records, in finish order) of
    /// the reader.
    pub reader: usize,
    /// Index of the writer.
    pub writer: usize,
    /// Variables read by `reader` and written by `writer`.
    pub vars: BTreeSet<u64>,
}

/// The dependency graph over a history's committed transactions.
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    /// Number of vertices (committed transactions).
    pub vertices: usize,
    /// All rw-antidependency edges.
    pub edges: Vec<RwEdge>,
}

/// What a committed transaction contributes to the graph.
struct Footprint {
    /// Variables read but neither promoted (already protected) nor
    /// written (a write is validated at commit, which subsumes the
    /// read).
    unprotected_reads: BTreeSet<u64>,
    /// Variables written.
    writes: BTreeSet<u64>,
}

impl Footprint {
    fn of(record: &TxnRecord) -> Self {
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        let mut promoted = BTreeSet::new();
        for op in &record.ops {
            match op.kind {
                OpKind::Read { line, .. } => reads.insert(line),
                OpKind::Write { line } => writes.insert(line),
                OpKind::Promote { line } => promoted.insert(line),
            };
        }
        reads.retain(|v| !promoted.contains(v) && !writes.contains(v));
        Footprint {
            unprotected_reads: reads,
            writes,
        }
    }
}

/// Whether two attempts' lifetimes overlap in the global sequence order.
fn overlaps(a: &TxnRecord, b: &TxnRecord) -> bool {
    a.begin_seq < b.end_seq && b.begin_seq < a.end_seq
}

impl DependencyGraph {
    /// Builds the graph over `history`'s committed transactions.
    pub fn build(history: &History) -> Self {
        let txs: Vec<(&TxnRecord, Footprint)> = history
            .committed()
            .map(|record| (record, Footprint::of(record)))
            .collect();
        let mut edges = Vec::new();
        for (i, (a, reader)) in txs.iter().enumerate() {
            for (j, (b, writer)) in txs.iter().enumerate() {
                if i == j || !overlaps(a, b) {
                    continue;
                }
                let vars: BTreeSet<u64> = reader
                    .unprotected_reads
                    .intersection(&writer.writes)
                    .copied()
                    .collect();
                if !vars.is_empty() {
                    edges.push(RwEdge {
                        reader: i,
                        writer: j,
                        vars,
                    });
                }
            }
        }
        DependencyGraph {
            vertices: txs.len(),
            edges,
        }
    }

    /// Strongly connected components with more than one vertex — the
    /// dependency cycles that flag potential write skews. Returned as
    /// sorted vertex lists.
    pub fn cycles(&self) -> Vec<Vec<usize>> {
        // Tarjan's algorithm, iterative.
        let mut adj = vec![Vec::new(); self.vertices];
        for e in &self.edges {
            adj[e.reader].push(e.writer);
        }
        let mut index = vec![usize::MAX; self.vertices];
        let mut lowlink = vec![0usize; self.vertices];
        let mut on_stack = vec![false; self.vertices];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        #[derive(Debug)]
        struct Frame {
            v: usize,
            child: usize,
        }

        for root in 0..self.vertices {
            if index[root] != usize::MAX {
                continue;
            }
            let mut call_stack = vec![Frame { v: root, child: 0 }];
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(frame) = call_stack.last_mut() {
                let v = frame.v;
                if frame.child < adj[v].len() {
                    let w = adj[v][frame.child];
                    frame.child += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push(Frame { v: w, child: 0 });
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    if lowlink[v] == index[v] {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        if component.len() > 1 {
                            component.sort_unstable();
                            sccs.push(component);
                        }
                    }
                    let finished = call_stack.pop().expect("frame exists").v;
                    if let Some(parent) = call_stack.last() {
                        lowlink[parent.v] = lowlink[parent.v].min(lowlink[finished]);
                    }
                }
            }
        }
        sccs.sort();
        sccs
    }

    /// Edges whose endpoints both lie in `component`.
    pub fn edges_within<'a>(
        &'a self,
        component: &'a [usize],
    ) -> impl Iterator<Item = &'a RwEdge> + 'a {
        self.edges
            .iter()
            .filter(move |e| component.contains(&e.reader) && component.contains(&e.writer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_obs::TxnBuilder;

    /// An attempt alive over `range` of the global order that read
    /// `reads`, promoted `promoted` and wrote `writes`.
    fn attempt(
        id: u64,
        range: (u64, u64),
        reads: &[u64],
        promoted: &[u64],
        writes: &[u64],
    ) -> TxnBuilder {
        let mut b = TxnBuilder::new(id, 0, 0, range.0, None);
        for &line in reads {
            b.op(
                range.0,
                OpKind::Read {
                    line,
                    observed: Some(0),
                },
            );
        }
        for &line in promoted {
            b.op(range.0, OpKind::Promote { line });
        }
        for &line in writes {
            b.op(range.0, OpKind::Write { line });
        }
        b
    }

    fn record(id: u64, range: (u64, u64), reads: &[u64], writes: &[u64]) -> TxnRecord {
        attempt(id, range, reads, &[], writes).commit(range.1, None)
    }

    fn history_of(records: Vec<TxnRecord>) -> History {
        let mut h = History::default();
        for r in records {
            h.push(r);
        }
        h
    }

    /// The Listing 1 withdraw skew: mutual rw edges form a 2-cycle.
    #[test]
    fn withdraw_skew_is_a_cycle() {
        let checking = 1;
        let saving = 2;
        let h = history_of(vec![
            record(1, (0, 10), &[checking, saving], &[checking]),
            record(2, (1, 11), &[checking, saving], &[saving]),
        ]);
        let g = DependencyGraph::build(&h);
        assert_eq!(g.edges.len(), 2);
        let cycles = g.cycles();
        assert_eq!(cycles, vec![vec![0, 1]]);
        let vars: BTreeSet<u64> = g
            .edges_within(&cycles[0])
            .flat_map(|e| e.vars.iter().copied())
            .collect();
        assert_eq!(vars, BTreeSet::from([checking, saving]));
    }

    /// A one-directional conflict is not a cycle.
    #[test]
    fn single_antidependency_is_no_cycle() {
        let h = history_of(vec![
            record(1, (0, 10), &[5], &[]),
            record(2, (1, 11), &[], &[5]),
        ]);
        let g = DependencyGraph::build(&h);
        assert_eq!(g.edges.len(), 1);
        assert!(g.cycles().is_empty());
    }

    /// Lifetimes are `begin_seq..end_seq` intervals: interleaved
    /// attempts overlap both ways, back-to-back ones do not.
    #[test]
    fn overlap_follows_the_sequence_intervals() {
        let (t1, t2) = (record(1, (0, 5), &[10], &[]), record(2, (1, 4), &[], &[10]));
        assert!(overlaps(&t1, &t2) && overlaps(&t2, &t1));
        let (t3, t4) = (record(3, (0, 1), &[], &[]), record(4, (2, 3), &[], &[]));
        assert!(!overlaps(&t3, &t4) && !overlaps(&t4, &t3));
    }

    /// Non-overlapping transactions produce no edges.
    #[test]
    fn no_overlap_no_edges() {
        let h = history_of(vec![
            record(1, (0, 5), &[7], &[8]),
            record(2, (6, 9), &[8], &[7]),
        ]);
        let g = DependencyGraph::build(&h);
        assert!(g.edges.is_empty());
    }

    /// Promoted reads do not form edges (they were protected).
    #[test]
    fn promoted_reads_are_excluded() {
        let r1 = attempt(1, (0, 10), &[1, 2], &[2], &[1]).commit(10, None);
        let r2 = record(2, (1, 11), &[1, 2], &[2]);
        let g = DependencyGraph::build(&history_of(vec![r1, r2]));
        // Only the edge r2 --reads 1, r1 writes 1--> r1 remains.
        assert_eq!(g.edges.len(), 1);
        assert!(g.cycles().is_empty());
    }

    /// A three-transaction cycle is detected as one component.
    #[test]
    fn three_cycle() {
        let h = history_of(vec![
            record(1, (0, 20), &[1], &[2]),
            record(2, (1, 21), &[2], &[3]),
            record(3, (2, 22), &[3], &[1]),
        ]);
        let g = DependencyGraph::build(&h);
        assert_eq!(g.cycles(), vec![vec![0, 1, 2]]);
    }

    /// Reads of variables the same transaction also writes are not
    /// anti-dependencies (overlapping write-write cannot both commit
    /// under SI; such histories are self-inconsistent anyway).
    #[test]
    fn own_writes_excluded_from_reads() {
        let h = history_of(vec![
            record(1, (0, 10), &[1], &[1]),
            record(2, (1, 11), &[2], &[1]),
        ]);
        let g = DependencyGraph::build(&h);
        assert!(g.edges.is_empty());
    }

    /// An aborted attempt publishes nothing: it is not a vertex, so it
    /// can neither close a cycle nor shift the committed indices.
    #[test]
    fn aborted_attempts_are_not_vertices() {
        let h = history_of(vec![
            attempt(1, (0, 10), &[1, 2], &[], &[1]).abort(10, "write-write"),
            record(2, (1, 11), &[1, 2], &[2]),
            record(3, (2, 12), &[], &[1]),
        ]);
        let g = DependencyGraph::build(&h);
        assert_eq!(g.vertices, 2);
        assert_eq!(
            g.edges,
            vec![RwEdge {
                reader: 0,
                writer: 1,
                vars: BTreeSet::from([1]),
            }]
        );
        assert!(g.cycles().is_empty(), "the skew's other half aborted");
    }
}
