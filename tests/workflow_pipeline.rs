//! Workflow integration: the workflow DSL lowers to the `df` dialect and
//! to a HyperLoom-style task graph, which then executes both on the
//! simulated distributed platform and for real on the worker pool — with
//! actual use-case computations inside the tasks.

use everest::apps::airquality::{reference_site, Meteo, Stability};
use everest::apps::weather::{generate_truth, WindFarm};
use everest::dsl::WorkflowSpec;
use everest::task_graph_from_workflow;
use everest::workflow::exec::simulate;
use everest::workflow::pool::parallel_map;
use everest::workflow::{Policy, Worker};

const PIPELINE: &str = r#"
    workflow monitoring {
        source met: "weather-station";
        task forecast_wind(met) -> wind;
        task farm_power(wind) -> power;
        task plume(met) -> pollution;
        sink power: "energy-desk";
        sink pollution: "env-dashboard";
    }
"#;

#[test]
fn workflow_dsl_to_ir_and_task_graph_agree() {
    let spec = WorkflowSpec::parse(PIPELINE).unwrap();
    // IR lowering (Fig. 1: unified representation).
    let module = spec.to_ir().unwrap();
    let func = module.func("monitoring").unwrap();
    let mut tasks_in_ir = 0;
    func.walk(&mut |op| {
        if op.name == "df.task" {
            tasks_in_ir += 1;
        }
    });
    assert_eq!(tasks_in_ir, 3);
    // Task-graph lowering (HyperLoom integration).
    let graph = task_graph_from_workflow(&spec, |_| (1_000.0, 10_000));
    assert_eq!(graph.len(), 6); // 1 source + 3 tasks + 2 sinks
    assert_eq!(spec.task_edges().len(), 1); // forecast_wind -> farm_power
}

#[test]
fn simulated_execution_scales_with_workers_and_scheduler() {
    let spec = WorkflowSpec::parse(PIPELINE).unwrap();
    let graph = task_graph_from_workflow(&spec, |name| match name {
        "forecast_wind" => (80_000.0, 1_000_000),
        "farm_power" => (20_000.0, 10_000),
        "plume" => (60_000.0, 500_000),
        _ => (100.0, 100_000),
    });
    let one = simulate(&graph, &Worker::uniform_pool(1, 1.0), Policy::Heft).unwrap();
    let four = simulate(&graph, &Worker::uniform_pool(4, 1.0), Policy::Heft).unwrap();
    // plume runs parallel to the wind chain: 4 workers must help.
    assert!(four.makespan_us < one.makespan_us);
    // And HEFT must not lose to FIFO on the heterogeneous pool.
    let workers = Worker::heterogeneous_pool(1, 3);
    let heft = simulate(&graph, &workers, Policy::Heft).unwrap();
    let fifo = simulate(&graph, &workers, Policy::Fifo).unwrap();
    assert!(heft.makespan_us <= fifo.makespan_us + 1e-9);
}

/// The pipeline's wind chain as a real computation: forecast hourly
/// winds from the station seed, then apply a 10-turbine farm's power
/// curve.
fn power_branch(met: f64) -> Vec<f64> {
    let truth = generate_truth(met as u64, 40.0, 2.0);
    truth.hourly.iter().map(|f| WindFarm::power_fraction(f.mean()) * 3.0 * 10.0).collect()
}

/// The pipeline's plume task: exceedance fraction and peak concentration.
fn plume_branch(_met: f64) -> Vec<f64> {
    let model = reference_site(24);
    let m = Meteo { wind_ms: 2.0, wind_dir_rad: 0.0, stability: Stability::E };
    let (frac, peak) = model.exceedance(&m, 25.0);
    vec![frac, peak]
}

#[test]
fn real_threaded_execution_computes_use_case_numbers() {
    // The two independent branches below `met` run as real closures on
    // two pool workers; the report task joins them.
    let branches: Vec<fn(f64) -> Vec<f64>> = vec![power_branch, plume_branch];
    let outputs = parallel_map("workflow.branch", 2, branches, |_, branch| branch(42.0));
    let peak_power = outputs[0].iter().copied().fold(0.0, f64::max);
    let peak_conc = outputs[1][1];
    assert!(peak_power > 0.0, "farm produces power at some hour");
    assert!(peak_conc > 0.0, "plume model produces concentrations");
    // Power is bounded by the rated farm output.
    assert!(peak_power <= 30.0 + 1e-9);
}

#[test]
fn workflow_validation_rejects_broken_pipelines() {
    let broken = r#"
        workflow broken {
            task orphan(ghost) -> out;
            sink out: "nowhere";
        }
    "#;
    assert!(WorkflowSpec::parse(broken).is_err());
}
