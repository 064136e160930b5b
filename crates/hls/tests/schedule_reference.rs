//! The event-driven list scheduler against a cycle-stepping reference.
//!
//! `reference_list_schedule` is the list scheduler as it stood before it
//! became event-driven: every cycle it releases the nodes finishing then,
//! sorts the whole ready list by `(late_start, id)`, issues in that order
//! while units last, and repeats within the cycle while zero-latency ops
//! release consumers. Two liberties keep 10⁹-cycle latencies testable:
//! the finish calendar is an ordered map instead of a ring sized by the
//! largest latency, and a cycle in which nothing is ready jumps to the
//! next finish (such a cycle releases and issues nothing, so skipping it
//! changes no start time). Random DFGs mix unit kinds, zero-latency
//! chains, tight budgets and latencies up to 10⁹; the two schedulers must
//! agree on every start cycle and on the length.

use everest_hls::cdfg::{Dfg, DfgNode};
use everest_hls::schedule::{alap, list_schedule, ResourceBudget, Schedule};
use everest_hls::FuKind;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn reference_list_schedule(dfg: &Dfg, budget: &ResourceBudget) -> Schedule {
    let n = dfg.len();
    let late = alap(dfg, dfg.critical_path()).start;
    let mut start = vec![u64::MAX; n];
    let mut len = 0;
    let mut remaining: Vec<usize> = dfg.nodes.iter().map(|nd| nd.preds.len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|i| remaining[*i] == 0).collect();
    let mut calendar: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut scheduled = 0;
    let mut cycle = 0;
    while scheduled < n {
        for d in calendar.remove(&cycle).unwrap_or_default() {
            for s in &dfg.nodes[d].succs {
                remaining[*s] -= 1;
                if remaining[*s] == 0 {
                    ready.push(*s);
                }
            }
        }
        let mut issued = [0usize; FuKind::ALL.len()];
        loop {
            ready.sort_by_key(|i| (late[*i], *i));
            let mut still_ready = Vec::new();
            let mut released_zero_latency = false;
            for &i in &ready {
                let can_issue = match dfg.nodes[i].fu {
                    None => true,
                    Some(fu) => issued[fu as usize] < budget.count(fu),
                };
                if !can_issue {
                    still_ready.push(i);
                    continue;
                }
                if let Some(fu) = dfg.nodes[i].fu {
                    issued[fu as usize] += 1;
                }
                start[i] = cycle;
                let fin = cycle + dfg.nodes[i].latency;
                len = len.max(fin);
                if dfg.nodes[i].latency == 0 {
                    for s in &dfg.nodes[i].succs {
                        remaining[*s] -= 1;
                        if remaining[*s] == 0 {
                            still_ready.push(*s);
                            released_zero_latency = true;
                        }
                    }
                } else {
                    calendar.entry(fin).or_default().push(i);
                }
                scheduled += 1;
            }
            ready = still_ready;
            if !released_zero_latency {
                break;
            }
        }
        cycle = match calendar.keys().next() {
            Some(next) if ready.is_empty() => *next,
            _ => cycle + 1,
        };
    }
    Schedule { start, len }
}

/// One random node: `(kind, latency class, latency draw, pred bits)`.
type NodeSpec = (u8, u8, u64, u64);

/// Builds a DFG from node specs. A unit kind of `kind % 12 >= 9` means a
/// unit-free op. Latency classes: 0-1 zero (chained to the previous node,
/// so zero-latency chains form), 2-5 short, 6 up to 10³, 7 up to 10⁹.
/// Bit `b` of `pred bits` (of the low 8, thinned by a second mask) adds
/// an edge from node `i - 1 - b`.
fn build(spec: &[NodeSpec]) -> Dfg {
    let mut dfg = Dfg::default();
    for (i, (kind, class, draw, bits)) in spec.iter().enumerate() {
        let fu = FuKind::ALL.get(usize::from(kind % 12)).copied();
        let latency = match class % 8 {
            0 | 1 => 0,
            2..=5 => 1 + draw % 8,
            6 => 1 + draw % 1_000,
            _ => 1 + draw % 1_000_000_000,
        };
        let mut preds: Vec<usize> = (0..8.min(i))
            .filter(|b| ((bits & (bits >> 8)) >> b) & 1 == 1)
            .map(|b| i - 1 - b)
            .collect();
        if latency == 0 && i > 0 && !preds.contains(&(i - 1)) {
            preds.push(i - 1);
        }
        preds.sort_unstable();
        for p in &preds {
            dfg.nodes[*p].succs.push(i);
        }
        dfg.nodes.push(DfgNode {
            name: format!("n{i}"),
            fu,
            latency,
            preds,
            succs: Vec::new(),
            buffer: None,
            uses_carried: false,
            results: Vec::new(),
            operands: Vec::new(),
        });
    }
    dfg
}

fn budget(counts: &[usize]) -> ResourceBudget {
    FuKind::ALL.iter().zip(counts).fold(ResourceBudget::uniform(1), |b, (k, n)| b.with(*k, *n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_driven_scheduler_matches_cycle_stepping_reference(
        spec in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 1..48),
        counts in prop::collection::vec(1usize..4, 9),
    ) {
        let dfg = build(&spec);
        let budget = budget(&counts);
        let fast = list_schedule(&dfg, &budget).expect("schedules");
        let reference = reference_list_schedule(&dfg, &budget);
        prop_assert_eq!(&fast.start, &reference.start);
        prop_assert_eq!(fast.len, reference.len);
    }
}

#[test]
fn billion_cycle_latencies_schedule_without_stepping() {
    // Two billion-cycle macro nodes competing for one unit, plus a
    // zero-latency consumer of both: the second waits one cycle, and the
    // consumer issues the cycle it finishes.
    let spec: Vec<NodeSpec> =
        vec![(0, 7, 999_999_999, 0), (0, 7, 999_999_999, 0), (11, 0, 0, 0b11_0000_0011)];
    let dfg = build(&spec);
    let one = budget(&[1; 9]);
    let s = list_schedule(&dfg, &one).unwrap();
    assert_eq!(s.start, vec![0, 1, 1_000_000_001]);
    assert_eq!(s.len, 1_000_000_001);
    assert_eq!(s, reference_list_schedule(&dfg, &one));
}
