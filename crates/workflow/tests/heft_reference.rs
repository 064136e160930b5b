//! HEFT equivalence: `simulate_available` under `Policy::Heft` must give
//! bit-identical schedules to a test-only copy of the scheduler as it was
//! before its one-pass rewrite — upward ranks from explicit successor
//! lists, a stable comparator sort for the task order, and a `min_by`
//! worker choice that recomputes both sides' earliest finish time.

use everest_workflow::exec::simulate_available;
use everest_workflow::graph::{TaskGraph, TaskId};
use everest_workflow::scheduler::{task_order, AssignState, Policy};
use everest_workflow::worker::Worker;
use proptest::prelude::*;

fn reference_upward_ranks(graph: &TaskGraph) -> Vec<f64> {
    let succ = graph.successors();
    let mut rank = vec![0.0f64; graph.len()];
    for id in (0..graph.len()).rev() {
        let down = succ[id].iter().map(|s| rank[*s]).fold(0.0, f64::max);
        rank[id] = graph.task(id).cost_us + down;
    }
    rank
}

fn reference_task_order(graph: &TaskGraph) -> Vec<TaskId> {
    let ranks = reference_upward_ranks(graph);
    let mut order: Vec<TaskId> = (0..graph.len()).collect();
    order.sort_by(|a, b| ranks[*b].total_cmp(&ranks[*a]).then(a.cmp(b)));
    order
}

fn reference_choose(
    st: &AssignState,
    graph: &TaskGraph,
    workers: &[Worker],
    task: TaskId,
) -> usize {
    (0..workers.len())
        .min_by(|a, b| {
            let eft = |w: usize| {
                let ready = st.data_ready(graph, workers, task, w);
                ready.max(st.avail[w]) + workers[w].exec_time(graph.task(task).cost_us)
            };
            eft(*a).total_cmp(&eft(*b))
        })
        .expect("non-empty worker pool")
}

/// The reference schedule: `(order, full-pool assignment, start bits,
/// finish bits)`.
type Schedule = (Vec<TaskId>, Vec<usize>, Vec<u64>, Vec<u64>);

fn reference_schedule(graph: &TaskGraph, workers: &[Worker], available: &[bool]) -> Schedule {
    let keep: Vec<usize> = (0..workers.len()).filter(|w| available[*w]).collect();
    let pool: Vec<Worker> = keep.iter().map(|w| workers[*w].clone()).collect();
    let order = reference_task_order(graph);
    let mut st = AssignState::new(graph.len(), pool.len());
    for &task in &order {
        let w = reference_choose(&st, graph, &pool, task);
        st.place(graph, &pool, task, w);
    }
    let assignment = st.assignment.iter().map(|w| keep[*w]).collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (order, assignment, bits(&st.start), bits(&st.finish))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn heft_matches_the_reference_scheduler(
        seed in any::<u64>(),
        layers in 1usize..7,
        width in 1usize..24,
        fast in 0usize..4,
        slow in 0usize..6,
        mask in any::<u64>(),
    ) {
        let graph = TaskGraph::random(seed, layers, width, 400.0);
        let workers = Worker::heterogeneous_pool(fast, slow.max(usize::from(fast == 0)));
        let mut available: Vec<bool> = (0..workers.len()).map(|w| mask >> w & 1 == 1).collect();
        if !available.contains(&true) {
            available[(mask as usize) % workers.len()] = true;
        }
        let (order, assignment, start, finish) = reference_schedule(&graph, &workers, &available);
        prop_assert_eq!(task_order(&graph, Policy::Heft), order);
        let run = simulate_available(&graph, &workers, Policy::Heft, &available).unwrap();
        prop_assert_eq!(run.assignment, assignment);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&run.start), start);
        prop_assert_eq!(bits(&run.finish), finish);
    }
}

#[test]
fn heft_matches_the_reference_on_the_storm_graph() {
    // The 8 192-task shape the offload storm reschedules, on a pool with
    // one worker per rung of the reference fallback chain.
    let graph = TaskGraph::random(1, 4, 2048, 400.0);
    let workers = Worker::heterogeneous_pool(7, 1);
    for available in [vec![true; 8], [false, true, false, true, true, false, true, true].to_vec()] {
        let (order, assignment, start, finish) = reference_schedule(&graph, &workers, &available);
        assert_eq!(task_order(&graph, Policy::Heft), order);
        let run = simulate_available(&graph, &workers, Policy::Heft, &available).unwrap();
        assert_eq!(run.assignment, assignment);
        assert_eq!(run.start.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), start);
        assert_eq!(run.finish.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), finish);
    }
}
