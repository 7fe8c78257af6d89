//! The direct serialization graph of a history (Adya), the one graph
//! every reader in this crate checks.
//!
//! Vertices are the committed transactions of one timestamp epoch: an
//! aborted attempt installs nothing, so nothing depends on it. Each
//! line's versions are its committed writers, in the [`VersionOrder`]
//! the reader chooses. Edges follow Kumar & Peri's multiversion conflict
//! graph and carry the names `PivotTracker` gives them:
//!
//! * **ww** — from the writer of a version to the writer of the next one,
//! * **wr** — from the writer of the version a read resolves to, to the
//!   reader,
//! * **rw** — from a reader to the writer of the next version after the
//!   one it read: the reader's outgoing and the writer's incoming
//!   anti-dependency.
//!
//! A promotion validates a read but observes nothing. In op order it
//! draws the rw-edge only; in timestamp order the read it protects has
//! drawn that edge already. An edge from a transaction to itself is
//! dropped: a reader that also wrote the line's next version is ordered
//! by its own place among the writers.
//!
//! A history is serializable exactly when this graph is acyclic. SI rules
//! out every cycle without two consecutive rw-edges (Raad, Lahav &
//! Vafeiadis); what is left is the write skew and its read-only variant.

use std::collections::BTreeMap;
use std::fmt;

use sitm_obs::{History, OpKind, TxnRecord};

/// How a line's versions are ordered, and so which version a read
/// resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VersionOrder {
    /// By commit timestamp. A read resolves to the version it recorded
    /// observing; a read with no observation draws no edge (SI-TM,
    /// SSI-TM, the STM).
    CommitTs,
    /// By the writer's `end_seq`. A read resolves to the last version
    /// committed before it in the global operation order (2PL and SONTM,
    /// which report no timestamps).
    EndSeq,
}

/// The kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeKind {
    Ww,
    Wr,
    Rw,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeKind::Ww => "ww",
            EdgeKind::Wr => "wr",
            EdgeKind::Rw => "rw",
        })
    }
}

/// One dependency between two transactions, and the line it runs
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    pub(crate) kind: EdgeKind,
    pub(crate) line: u64,
}

/// One epoch's serialization graph.
#[derive(Debug)]
pub(crate) struct Dsg<'h> {
    /// The epoch's committed transactions, by ascending attempt id.
    pub(crate) txns: Vec<&'h TxnRecord>,
    /// `succ[i][&j]`: every distinct edge from `txns[i]` to `txns[j]`,
    /// in the order drawn.
    pub(crate) succ: Vec<BTreeMap<usize, Vec<Edge>>>,
}

impl<'h> Dsg<'h> {
    /// One graph per timestamp epoch of `history`, by ascending epoch.
    pub(crate) fn per_epoch(history: &'h History, order: VersionOrder) -> Vec<Dsg<'h>> {
        let mut epochs: BTreeMap<u64, Vec<&TxnRecord>> = BTreeMap::new();
        for r in history.committed() {
            epochs.entry(r.epoch).or_default().push(r);
        }
        epochs
            .into_values()
            .map(|mut txns| {
                txns.sort_by_key(|r| r.txn);
                Dsg::build(txns, order)
            })
            .collect()
    }

    fn build(txns: Vec<&'h TxnRecord>, order: VersionOrder) -> Self {
        // Each line's versions as (order key, writer), in version order.
        // Timestamp sanity is the SI checker's job, which runs first.
        let mut versions: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
        for (i, r) in txns.iter().enumerate() {
            let key = match order {
                VersionOrder::CommitTs => match r.commit_ts {
                    Some(ts) => ts,
                    None => continue,
                },
                VersionOrder::EndSeq => r.end_seq,
            };
            let mut lines: Vec<u64> = r.write_lines().collect();
            lines.sort_unstable();
            lines.dedup();
            for line in lines {
                versions.entry(line).or_default().push((key, i));
            }
        }
        versions.values_mut().for_each(|v| v.sort_unstable());

        let mut succ = vec![BTreeMap::<usize, Vec<Edge>>::new(); txns.len()];
        let mut add = |from: usize, to: usize, kind, line| {
            let edge = Edge { kind, line };
            if from != to {
                let edges = succ[from].entry(to).or_default();
                if !edges.contains(&edge) {
                    edges.push(edge);
                }
            }
        };
        for (&line, writers) in &versions {
            for pair in writers.windows(2) {
                add(pair[0].1, pair[1].1, EdgeKind::Ww, line);
            }
        }
        for (reader, r) in txns.iter().enumerate() {
            for op in &r.ops {
                let (line, key, observes) = match (order, op.kind) {
                    (VersionOrder::CommitTs, OpKind::Read { line, observed }) => {
                        let Some(ts) = observed else { continue };
                        (line, ts, true)
                    }
                    (VersionOrder::EndSeq, OpKind::Read { line, .. }) => (line, op.seq, true),
                    (VersionOrder::EndSeq, OpKind::Promote { line }) => (line, op.seq, false),
                    _ => continue,
                };
                let writers = versions.get(&line).map_or(&[][..], Vec::as_slice);
                let next = writers.partition_point(|&(k, _)| k <= key);
                if let Some(&(k, writer)) = next.checked_sub(1).map(|i| &writers[i]) {
                    // A timestamp read resolves only to the version it
                    // names; one naming no writer is the SI checker's.
                    if observes && (order == VersionOrder::EndSeq || k == key) {
                        add(writer, reader, EdgeKind::Wr, line);
                    }
                }
                if let Some(&(_, writer)) = writers.get(next) {
                    add(reader, writer, EdgeKind::Rw, line);
                }
            }
        }
        Dsg { txns, succ }
    }

    /// Tarjan's strongly connected components of more than one vertex
    /// (each sorted, in ascending order), and a witness cycle: the first
    /// one the depth-first search closes, visiting roots and successors
    /// in ascending order. The witness lists vertices along the cycle,
    /// each with an edge to the next, wrapping around.
    pub(crate) fn cycles(&self) -> (Vec<Vec<usize>>, Option<Vec<usize>>) {
        const UNSEEN: usize = usize::MAX;
        let n = self.txns.len();
        let adj: Vec<Vec<usize>> = self
            .succ
            .iter()
            .map(|m| m.keys().copied().collect())
            .collect();
        let (mut index, mut lowlink, mut on_stack) = (vec![UNSEEN; n], vec![0; n], vec![false; n]);
        let (mut stack, mut sccs, mut witness) = (Vec::new(), Vec::new(), None);
        let mut next_index = 0;
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            // The depth-first path: each vertex and its next successor.
            let mut path = vec![(root, 0)];
            while let Some(&(v, child)) = path.last() {
                if index[v] == UNSEEN {
                    (index[v], lowlink[v]) = (next_index, next_index);
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = adj[v].get(child) {
                    path.last_mut().expect("v is on the path").1 += 1;
                    if index[w] == UNSEEN {
                        path.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                        // Until the first edge back into the stack, every
                        // finished vertex left it, so the stack is the path
                        // and this edge closes a cycle along it.
                        if witness.is_none() {
                            let from = path.iter().position(|&(u, _)| u == w);
                            let from = from.expect("the stack is the path");
                            witness = Some(path[from..].iter().map(|&(u, _)| u).collect());
                        }
                    }
                    continue;
                }
                path.pop();
                if let Some(&(parent, _)) = path.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let at = stack.iter().rposition(|&u| u == v);
                    let mut component = stack.split_off(at.expect("v is on the stack"));
                    component.iter().for_each(|&w| on_stack[w] = false);
                    if component.len() > 1 {
                        component.sort_unstable();
                        sccs.push(component);
                    }
                }
            }
        }
        sccs.sort_unstable();
        (sccs, witness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_obs::TxnBuilder;

    /// An attempt (sequence numbers from `10 * id`) that began at
    /// `begin_ts`, read each `(line, observed)`, promoted `promoted` and
    /// wrote `writes`.
    fn attempt(
        id: u64,
        begin_ts: u64,
        reads: &[(u64, u64)],
        promoted: &[u64],
        writes: &[u64],
    ) -> TxnBuilder {
        let mut b = TxnBuilder::new(id, 0, 0, 10 * id, Some(begin_ts));
        let reads = reads.iter().map(|&(line, ts)| OpKind::Read {
            line,
            observed: Some(ts),
        });
        let promotes = promoted.iter().map(|&line| OpKind::Promote { line });
        let writes = writes.iter().map(|&line| OpKind::Write { line });
        for (seq, kind) in (10 * id + 1..).zip(reads.chain(promotes).chain(writes)) {
            b.op(seq, kind);
        }
        b
    }

    /// A committed attempt with no promotions.
    fn record(
        id: u64,
        begin_ts: u64,
        reads: &[(u64, u64)],
        writes: &[u64],
        commit_ts: Option<u64>,
    ) -> TxnRecord {
        attempt(id, begin_ts, reads, &[], writes).commit(10 * id + 9, commit_ts)
    }

    fn history(records: impl IntoIterator<Item = TxnRecord>) -> History {
        let mut h = History::default();
        for r in records {
            h.push(r);
        }
        h
    }

    fn edges(dsg: &Dsg<'_>, from: usize, to: usize) -> Vec<Edge> {
        dsg.succ[from].get(&to).cloned().unwrap_or_default()
    }

    fn edge(kind: EdgeKind, line: u64) -> Edge {
        Edge { kind, line }
    }

    /// The Listing 1 withdraw skew: each reads both balances at the
    /// pre-run snapshot and overwrites one, so the rw-edges point both
    /// ways.
    #[test]
    fn withdraw_skew_is_a_cycle() {
        let (checking, saving) = (1, 2);
        let reads = [(checking, 0), (saving, 0)];
        let h = history([
            record(1, 0, &reads, &[checking], Some(1)),
            record(2, 0, &reads, &[saving], Some(2)),
        ]);
        let dsg = &Dsg::per_epoch(&h, VersionOrder::CommitTs)[0];
        assert_eq!(edges(dsg, 0, 1), [edge(EdgeKind::Rw, saving)]);
        assert_eq!(edges(dsg, 1, 0), [edge(EdgeKind::Rw, checking)]);
        assert_eq!(dsg.cycles(), (vec![vec![0, 1]], Some(vec![0, 1])));
    }

    /// A one-directional conflict is not a cycle.
    #[test]
    fn single_antidependency_is_no_cycle() {
        let h = history([
            record(1, 0, &[(5, 0)], &[], None),
            record(2, 0, &[], &[5], Some(1)),
        ]);
        let dsg = &Dsg::per_epoch(&h, VersionOrder::CommitTs)[0];
        assert_eq!(edges(dsg, 0, 1), [edge(EdgeKind::Rw, 5)]);
        assert_eq!(dsg.cycles(), (vec![], None));
    }

    /// A transaction that begins after another commits reads its
    /// versions: every edge between them points forward.
    #[test]
    fn serial_history_is_acyclic() {
        let h = history([
            record(1, 0, &[(7, 0)], &[8], Some(1)),
            record(2, 1, &[(8, 1)], &[7], Some(2)),
        ]);
        let dsg = &Dsg::per_epoch(&h, VersionOrder::CommitTs)[0];
        let forward = [edge(EdgeKind::Rw, 7), edge(EdgeKind::Wr, 8)];
        assert_eq!(edges(dsg, 0, 1), forward);
        assert!(edges(dsg, 1, 0).is_empty());
        assert_eq!(dsg.cycles(), (vec![], None));
    }

    /// A promotion draws the op-order rw-edge only, and nothing in
    /// timestamp order, where the read it protects drew it already.
    #[test]
    fn promotion_draws_only_an_op_order_rw_edge() {
        let h = history([
            attempt(1, 0, &[], &[4], &[]).commit(19, None),
            record(2, 0, &[], &[4], Some(1)),
        ]);
        assert!(edges(&Dsg::per_epoch(&h, VersionOrder::CommitTs)[0], 0, 1).is_empty());
        let dsg = &Dsg::per_epoch(&h, VersionOrder::EndSeq)[0];
        assert_eq!(edges(dsg, 0, 1), [edge(EdgeKind::Rw, 4)]);
        assert!(edges(dsg, 1, 0).is_empty());
    }

    /// A three-transaction cycle is one component, and the witness
    /// walks it.
    #[test]
    fn three_cycle() {
        let h = history([
            record(1, 0, &[(1, 0)], &[2], Some(1)),
            record(2, 0, &[(2, 0)], &[3], Some(2)),
            record(3, 0, &[(3, 0)], &[1], Some(3)),
        ]);
        let dsg = &Dsg::per_epoch(&h, VersionOrder::CommitTs)[0];
        assert_eq!(dsg.cycles(), (vec![vec![0, 1, 2]], Some(vec![0, 2, 1])));
    }

    /// A read of a line the reader also writes draws no rw-edge: the
    /// next version is the reader's own.
    #[test]
    fn own_writes_excluded_from_reads() {
        let h = history([
            record(1, 0, &[(1, 0)], &[1], Some(1)),
            record(2, 1, &[(1, 1)], &[1], Some(2)),
        ]);
        let dsg = &Dsg::per_epoch(&h, VersionOrder::CommitTs)[0];
        let forward = [edge(EdgeKind::Ww, 1), edge(EdgeKind::Wr, 1)];
        assert_eq!(edges(dsg, 0, 1), forward);
        assert!(edges(dsg, 1, 0).is_empty());
    }

    /// An aborted attempt publishes nothing: it is not a vertex, so it
    /// can neither close a cycle nor take a version.
    #[test]
    fn aborted_attempts_are_not_vertices() {
        let h = history([
            attempt(1, 0, &[(1, 0), (2, 0)], &[], &[1]).abort(19, "write-write"),
            record(2, 0, &[(1, 0), (2, 0)], &[2], Some(1)),
            record(3, 0, &[], &[1], Some(2)),
        ]);
        let dsg = &Dsg::per_epoch(&h, VersionOrder::CommitTs)[0];
        assert_eq!(dsg.txns.iter().map(|r| r.txn).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(edges(dsg, 0, 1), [edge(EdgeKind::Rw, 1)]);
        assert_eq!(
            dsg.cycles(),
            (vec![], None),
            "the skew's other half aborted"
        );
    }
}
