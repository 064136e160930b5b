//! Property tests for the workflow platform: every policy produces valid
//! schedules on random graphs.

use everest_workflow::exec::simulate;
use everest_workflow::graph::TaskGraph;
use everest_workflow::scheduler::Policy;
use everest_workflow::worker::Worker;
use proptest::prelude::*;

fn random_graph(seed: u64, layers: usize, width: usize) -> TaskGraph {
    TaskGraph::random(seed, layers.max(1), width.max(1), 200.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_policy_yields_valid_schedules(
        seed in any::<u64>(),
        layers in 1usize..5,
        width in 1usize..6,
        workers in 1usize..9,
    ) {
        let g = random_graph(seed, layers, width);
        let pool = Worker::uniform_pool(workers, 1.0);
        for policy in [Policy::Fifo, Policy::MinLoad, Policy::Heft] {
            let run = simulate(&g, &pool, policy).expect("simulates");
            // Dependencies respected.
            for (id, t) in g.tasks().iter().enumerate() {
                for d in &t.deps {
                    prop_assert!(run.start[id] >= run.finish[*d] - 1e-9, "{}: dep violated", policy);
                }
            }
            // No overlap per worker.
            for w in 0..workers {
                let mut spans: Vec<(f64, f64)> = run
                    .tasks_on(w)
                    .iter()
                    .map(|t| (run.start[*t], run.finish[*t]))
                    .collect();
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for pair in spans.windows(2) {
                    prop_assert!(pair[1].0 >= pair[0].1 - 1e-9, "{}: overlap", policy);
                }
            }
            // Makespan bounded below by the critical path.
            prop_assert!(run.makespan_us >= g.critical_path_us() - 1e-9);
        }
    }

    #[test]
    fn heft_never_loses_to_fifo_by_much(
        seed in any::<u64>(),
        workers in 2usize..8,
    ) {
        // HEFT is a heuristic, but on uniform pools it should never be
        // dramatically worse than FIFO (and usually better).
        let g = random_graph(seed, 4, 5);
        let pool = Worker::uniform_pool(workers, 1.0);
        let heft = simulate(&g, &pool, Policy::Heft).unwrap().makespan_us;
        let fifo = simulate(&g, &pool, Policy::Fifo).unwrap().makespan_us;
        prop_assert!(heft <= fifo * 1.5, "heft {} vs fifo {}", heft, fifo);
    }

}
