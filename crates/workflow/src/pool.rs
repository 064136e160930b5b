//! A scoped thread-pool / parallel-map utility: evaluate a batch of
//! independent items on `jobs` worker threads with results written back
//! by input index, so the output order is identical to a sequential map
//! at any worker count.
//!
//! This is the workspace's one in-process executor: the DSE engine, the
//! dataset factory, PTDR batch serving, the serving tier and the offload
//! lane fold all fan out through it.

use crossbeam::channel;
use everest_telemetry::LogHistogram;
use parking_lot::Mutex;
use std::time::Instant;

/// Maps `f` over `items` on up to `jobs` worker threads.
///
/// Results land at the index of the item that produced them, so
/// `parallel_map(label, jobs, items, f)` returns exactly what the
/// sequential `items.into_iter().enumerate().map(f).collect()` would,
/// for any `jobs`. With `jobs <= 1` (or fewer than two items) the one
/// worker runs inline on the calling thread with no pool setup; it runs
/// the same worker body as the threaded case, so telemetry is the same
/// at every worker count.
///
/// Each worker opens a telemetry span named `label` (category `pool`)
/// tagged with its worker index and the number of items it processed,
/// brackets its run with `pool.worker` flight events, and records two
/// histograms: `pool.queue_wait_us` (time from batch start to an item's
/// dequeue) and `pool.task_run_us` (time inside `f`). Observations
/// accumulate in per-worker [`LogHistogram`]s and merge into the global
/// registry once per worker, so the hot loop never touches a shared
/// lock for metrics.
pub fn parallel_map<T, R, F>(label: &str, jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        let mut out = Vec::with_capacity(n);
        let mut items = items.into_iter().enumerate();
        // Items arrive in index order, so pushing keeps results in place.
        run_worker(label, 0, Instant::now(), || items.next(), &f, |_, r| out.push(r));
        return out;
    }

    // The whole batch is enqueued up front, so workers drain with
    // non-blocking receives and exit when the queue is empty.
    let (work_tx, work_rx) = channel::unbounded::<(usize, T)>();
    for pair in items.into_iter().enumerate() {
        assert!(work_tx.send(pair).is_ok(), "receiver alive");
    }
    drop(work_tx);

    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let batch_start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let work_rx = work_rx.clone();
            let results = &results;
            let f = &f;
            scope.spawn(move || {
                run_worker(
                    label,
                    worker,
                    batch_start,
                    || work_rx.try_recv(),
                    f,
                    |i, r| {
                        results.lock()[i] = Some(r);
                    },
                );
            });
        }
    });
    results.into_inner().into_iter().map(|slot| slot.expect("worker filled slot")).collect()
}

/// One worker's loop: pulls `(index, item)` pairs from `next` until it
/// runs dry, hands each result to `deliver`, and reports its span,
/// flight events and histograms.
fn run_worker<T, R>(
    label: &str,
    worker: usize,
    batch_start: Instant,
    mut next: impl FnMut() -> Option<(usize, T)>,
    f: &impl Fn(usize, T) -> R,
    mut deliver: impl FnMut(usize, R),
) {
    let mut span = everest_telemetry::span(label, "pool");
    span.attr("worker", worker);
    everest_telemetry::flight().record(
        everest_telemetry::EventKind::SpanBegin,
        "pool.worker",
        worker as f64,
    );
    let mut wait_hist = LogHistogram::new();
    let mut run_hist = LogHistogram::new();
    let mut done = 0usize;
    while let Some((i, item)) = next() {
        // One clock read serves both sides: the end of the queue wait is
        // the start of the run.
        let t = Instant::now();
        wait_hist.observe((t - batch_start).as_secs_f64() * 1e6);
        let out = f(i, item);
        run_hist.observe(t.elapsed().as_secs_f64() * 1e6);
        deliver(i, out);
        done += 1;
    }
    let registry = everest_telemetry::metrics();
    registry.merge_histogram("pool.queue_wait_us", &wait_hist);
    registry.merge_histogram("pool.task_run_us", &run_hist);
    everest_telemetry::flight().record(
        everest_telemetry::EventKind::SpanEnd,
        "pool.worker",
        done as f64,
    );
    span.attr("items", done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let got = parallel_map("test.map", jobs, items.clone(), |_, x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let got = parallel_map("test.map", 4, vec!['a', 'b', 'c', 'd'], |i, c| (i, c));
        assert_eq!(got, vec![(0, 'a'), (1, 'b'), (2, 'c'), (3, 'd')]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let out = parallel_map("test.map", 8, (0..64).collect::<Vec<i32>>(), |_, x| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 64);
        assert_eq!(CALLS.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn workers_actually_overlap() {
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static CURRENT: AtomicUsize = AtomicUsize::new(0);
        parallel_map("test.map", 4, (0..8).collect::<Vec<i32>>(), |_, x| {
            let now = CURRENT.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(15));
            CURRENT.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert!(PEAK.load(Ordering::SeqCst) >= 2, "workers should overlap");
    }

    #[test]
    fn records_queue_wait_and_task_run_histograms() {
        let before = everest_telemetry::metrics()
            .snapshot()
            .histogram("pool.task_run_us")
            .map_or(0, |h| h.count);
        parallel_map("test.map", 4, (0..64).collect::<Vec<i32>>(), |_, x| x + 1);
        let snap = everest_telemetry::metrics().snapshot();
        let run = snap.histogram("pool.task_run_us").expect("task-run histogram recorded");
        // Other tests in this binary share the registry, so assert on
        // growth, not exact totals.
        assert!(run.count >= before + 64, "one task-run sample per item");
        let wait = snap.histogram("pool.queue_wait_us").expect("queue-wait histogram recorded");
        assert!(wait.count > 0);
        assert!(wait.p99() >= wait.p50());
    }

    #[test]
    fn empty_input_returns_empty() {
        let got: Vec<i32> = parallel_map("test.map", 4, Vec::<i32>::new(), |_, x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn results_can_carry_errors() {
        let got = parallel_map("test.map", 2, vec![1i32, -1, 2], |_, x| {
            if x < 0 {
                Err("negative".to_owned())
            } else {
                Ok(x * 10)
            }
        });
        assert_eq!(got, vec![Ok(10), Err("negative".to_owned()), Ok(20)]);
    }
}
