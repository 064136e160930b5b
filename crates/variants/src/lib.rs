//! # everest-variants — code/hardware variant generation and DSE
//!
//! The EVEREST middle end "explore\[s\] the design space and create\[s\]
//! multiple hardware and software variants ... performance/energy
//! trade-offs that are exposed to the runtime system" (paper III-B). This
//! crate implements that stage:
//!
//! * [`analysis`] — extracts a kernel's workload (flop count, bytes moved,
//!   arithmetic intensity) from its IR;
//! * [`transform`] — the transformation vocabulary (threads, layout,
//!   tiling, FPGA offload, banking, pipelining, DIFT hardening);
//! * [`cost`] — software (roofline-style) and hardware (via
//!   [`everest_hls`]) cost models;
//! * [`knob`] — the typed [`KnobVector`] design point shared by
//!   enumeration, memoization and the surrogate feature encoder;
//! * [`space`] — design-space enumeration and validation;
//! * [`pareto`] — O(n log n) Pareto-front filtering over (latency,
//!   energy, area), plus exact [`pareto::hypervolume`];
//! * [`dataset`] — mass production of seed-reproducible HLS training
//!   tables (`everestc dataset`);
//! * [`model`] — pure-Rust learned cost models (gradient-boosted stumps
//!   with a ridge baseline) trained on those tables;
//! * [`explore`] — surrogate-pruned exploration: predict everything,
//!   synthesize only near the predicted Pareto front;
//! * [`error`] — the [`VariantError`] DSE failure type;
//! * [`variant`] — the [`variant::Variant`] records, serializable as the
//!   "meta-information about the variants ... provided to the runtime".
//!
//! ## Example
//!
//! ```
//! let module = everest_dsl::compile_kernels(
//!     "kernel mm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> { return a @ b; }",
//! ).unwrap();
//! let space = everest_variants::space::DesignSpace::default();
//! let variants = everest_variants::generate(module.func("mm").unwrap(), &space).unwrap();
//! assert!(variants.len() > 4);
//! let front = everest_variants::pareto::pareto_front(&variants);
//! assert!(!front.is_empty());
//! ```

pub mod analysis;
pub mod cost;
pub mod dataset;
pub mod error;
pub mod explore;
pub mod knob;
pub mod model;
pub mod pareto;
pub mod space;
pub mod transform;
pub mod variant;

pub use analysis::KernelWorkload;
pub use dataset::{Dataset, DatasetConfig, KnobDomains};
pub use error::{VariantError, VariantResult};
pub use explore::{generate_all_pruned, ExploreReport, PruneConfig};
pub use knob::{KnobVector, KERNEL_FEATURES, KNOB_FEATURES};
pub use model::{FitConfig, SurrogateModel};
pub use transform::{Layout, Target, Transform};
pub use variant::{Metrics, Variant};

use everest_ir::Func;
use everest_workflow::pool;

/// Generates the full variant set for a kernel over a design space on
/// the calling thread (`jobs = 1`).
///
/// # Errors
///
/// Returns [`VariantError`] for a malformed space or an HLS failure.
pub fn generate(func: &Func, space: &space::DesignSpace) -> VariantResult<Vec<Variant>> {
    generate_jobs(func, space, 1)
}

/// Generates the variant set for one kernel with `jobs` workers.
///
/// See [`generate_all`] for the `jobs` semantics.
///
/// # Errors
///
/// Returns [`VariantError`] for a malformed space or an HLS failure.
pub fn generate_jobs(
    func: &Func,
    space: &space::DesignSpace,
    jobs: usize,
) -> VariantResult<Vec<Variant>> {
    Ok(generate_all(&[func], space, jobs)?.pop().expect("one variant set per kernel"))
}

/// The DSE engine: evaluates every design point of every kernel, fanning
/// the flattened (kernel × point) batch across `jobs` pool workers.
/// Hardware synthesis always goes through the shared
/// [`everest_hls::cache`], collapsing the redundancy between points that
/// differ only in software knobs or attachment target and sharing
/// results across structurally identical kernels; `jobs` only sets the
/// worker count (`1` runs the same engine inline on the calling thread).
///
/// Results are written back by enumeration index, so variant ids,
/// ordering and metrics are bit-identical at any worker count; on
/// failure, the error of the lowest-indexed failing point is returned
/// regardless of evaluation order.
///
/// # Errors
///
/// Returns [`VariantError::Space`] for a malformed space and
/// [`VariantError::Hls`] when a hardware point fails to synthesize.
pub fn generate_all(
    funcs: &[&Func],
    space: &space::DesignSpace,
    jobs: usize,
) -> VariantResult<Vec<Vec<Variant>>> {
    space.validate()?;
    let knobs = space.enumerate_knobs();
    let points = knobs.len();
    let mut dse_span = everest_telemetry::span("dse.evaluate", "variants");
    dse_span.attr("kernels", funcs.len());
    dse_span.attr("points", points * funcs.len());
    dse_span.attr("jobs", jobs.max(1));
    let workloads: Vec<KernelWorkload> = funcs.iter().map(|f| analysis::analyze(f)).collect();

    let items: Vec<(usize, usize)> =
        (0..funcs.len()).flat_map(|k| (0..points).map(move |i| (k, i))).collect();
    let evaluated = pool::parallel_map("dse.worker", jobs, items, |_, (k, i)| {
        cost::evaluate_knob(funcs[k], &workloads[k], &knobs[i])
    });

    let mut sets = Vec::with_capacity(funcs.len());
    let mut results = evaluated.into_iter();
    for func in funcs {
        let mut span = everest_telemetry::span("variants.generate", "variants");
        span.attr("kernel", &func.name);
        span.attr("space", points);
        let mut variants = Vec::with_capacity(points);
        for (i, knob) in knobs.iter().enumerate() {
            let metrics = results.next().expect("one result per point")?;
            variants.push(Variant {
                id: format!("{}#{}", func.name, i),
                kernel: func.name.clone(),
                transforms: knob.to_transforms(),
                metrics,
            });
        }
        sets.push(variants);
    }
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_hls::accel::summarize;

    #[test]
    fn every_job_count_matches_a_fold_over_uncached_synthesis() {
        let module = everest_dsl::compile_kernels(
            "kernel mm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> { return a @ b; }
             kernel mm2(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> { return a @ b; }
             kernel smooth(x: tensor<64xf64>) -> tensor<64xf64> { return stencil(x, [0.25, 0.5, 0.25]); }",
        )
        .unwrap();
        let funcs: Vec<&Func> = ["mm", "mm2", "smooth"].map(|n| module.func(n).unwrap()).to_vec();
        let space = space::DesignSpace::default();
        let knobs = space.enumerate_knobs();
        // The reference: every point evaluated on its own, hardware points
        // synthesized afresh with no memo in the way.
        let reference: Vec<Vec<Variant>> = funcs
            .iter()
            .map(|func| {
                let workload = analysis::analyze(func);
                knobs
                    .iter()
                    .enumerate()
                    .map(|(i, knob)| {
                        let metrics = match knob {
                            KnobVector::Software { .. } => {
                                cost::software_metrics_knob(&workload, knob)
                            }
                            KnobVector::Hardware { target, .. } => {
                                let summary = summarize(func, &knob.hls_config()).unwrap();
                                cost::metrics_from_summary(&summary, &workload, *target)
                            }
                        };
                        Variant {
                            id: format!("{}#{i}", func.name),
                            kernel: func.name.clone(),
                            transforms: knob.to_transforms(),
                            metrics,
                        }
                    })
                    .collect()
            })
            .collect();
        for jobs in [1, 2, 4] {
            assert_eq!(generate_all(&funcs, &space, jobs).unwrap(), reference, "jobs={jobs}");
        }
    }
}
