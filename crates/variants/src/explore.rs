//! Surrogate-guided design-space exploration.
//!
//! The exhaustive engine ([`crate::generate_all`]) synthesizes every
//! hardware point. This module trades a small exact training set for a
//! learned shortcut: it synthesizes a deterministic sample of the
//! hardware points, fits a [`SurrogateModel`] on them, predicts the rest,
//! and runs exact synthesis only for points within a configurable margin
//! of the *predicted* Pareto front. Software points are always evaluated
//! exactly — the roofline model is cheaper than a prediction.
//!
//! Safety valve: when the model's held-out validation error exceeds
//! [`PruneConfig::max_val_mape`] (or there are too few hardware points to
//! learn from), the explorer falls back to the exhaustive engine, so a
//! bad fit can cost time but never front quality.
//!
//! Determinism matches the exhaustive engine's contract: training-set
//! selection is a pure function of `(seed, point count)`, the fit and the
//! predictions are deterministic, and all synthesis fans through the
//! order-preserving pool — so the pruned variant sets are bit-identical
//! at any `--jobs` count.

use crate::analysis::{self, KernelWorkload};
use crate::dataset::{feature_names, features_for, Dataset, DatasetRow};
use crate::error::{VariantError, VariantResult};
use crate::knob::KnobVector;
use crate::model::{FitConfig, SurrogateModel};
use crate::space::DesignSpace;
use crate::variant::{Metrics, Variant};
use crate::{cost, pareto};
use everest_hls::accel::SynthSummary;
use everest_hls::{cache, AreaReport};
use everest_ir::Func;
use everest_workflow::pool;
use everest_workflow::seed as splitmix64;

/// Configuration of the surrogate-pruned exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneConfig {
    /// Pareto margin: a predicted point survives pruning when shrinking
    /// its objectives by this fraction leaves it non-dominated by the
    /// predicted front. 0 keeps only the predicted front itself; larger
    /// values keep a thicker band (more exact synthesis, more safety).
    pub margin: f64,
    /// Fraction of the hardware points synthesized exactly for training.
    pub train_fraction: f64,
    /// Floor on the training-set size (small spaces train on everything
    /// and the explorer falls back to exhaustive).
    pub min_train: usize,
    /// Width of the near-duplicate collapse grid: survivors whose
    /// predicted objectives all land in the same multiplicative cell
    /// (relative width `dedup_eps`) share one exact synthesis. 0
    /// disables the collapse.
    pub dedup_eps: f64,
    /// Fall back to exhaustive exploration when the model's worst
    /// per-target held-out MAPE exceeds this.
    pub max_val_mape: f64,
    /// Seed of the training-set selection (part of the reproducibility
    /// contract, like the dataset factory's seed).
    pub seed: u64,
    /// Surrogate training configuration.
    pub fit: FitConfig,
}

impl Default for PruneConfig {
    fn default() -> PruneConfig {
        PruneConfig {
            margin: 0.15,
            train_fraction: 0.08,
            min_train: 24,
            dedup_eps: 0.05,
            max_val_mape: 0.35,
            seed: 7,
            fit: FitConfig::default(),
        }
    }
}

impl PruneConfig {
    fn validate(&self) -> VariantResult<()> {
        if !(0.0..1.0).contains(&self.margin) {
            return Err(VariantError::Space(format!(
                "prune margin {} out of range [0, 1)",
                self.margin
            )));
        }
        if !(self.train_fraction > 0.0 && self.train_fraction <= 1.0) {
            return Err(VariantError::Space(format!(
                "train fraction {} out of range (0, 1]",
                self.train_fraction
            )));
        }
        if !(0.0..1.0).contains(&self.dedup_eps) {
            return Err(VariantError::Space(format!(
                "dedup epsilon {} out of range [0, 1)",
                self.dedup_eps
            )));
        }
        Ok(())
    }
}

/// What the explorer did, for telemetry, benches and the CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Total (kernel × point) pairs in the space.
    pub points: usize,
    /// Software pairs (always exact).
    pub software: usize,
    /// Hardware pairs synthesized exactly for training.
    pub train: usize,
    /// Hardware pairs the surrogate predicted.
    pub predicted: usize,
    /// Hardware pairs evaluated exactly (training + margin survivors).
    pub exact: usize,
    /// Hardware pairs pruned away on the model's word.
    pub pruned: usize,
    /// Whether the explorer fell back to the exhaustive engine.
    pub fallback: bool,
    /// Worst per-target held-out MAPE of the fitted model (0 when no
    /// model was fit).
    pub val_mape: f64,
}

/// Strict domination over bare `f64` objective triples (minimization).
fn dominates3(a: (f64, f64, f64), b: (f64, f64, f64)) -> bool {
    let no_worse = a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2;
    let better = a.0 < b.0 || a.1 < b.1 || a.2 < b.2;
    no_worse && better
}

/// Deterministic choice of `n` training pairs out of `total`: a partial
/// Fisher–Yates shuffle driven by a splitmix64 stream seeded from
/// `seed`, returned in ascending order. Pure in `(seed, total, n)`.
fn training_indices(seed: u64, total: usize, n: usize) -> Vec<usize> {
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    let mut pool: Vec<usize> = (0..total).collect();
    let n = n.min(total);
    for i in 0..n {
        let j = i + (splitmix64::next(&mut state) % (total - i) as u64) as usize;
        pool.swap(i, j);
    }
    let mut chosen = pool[..n].to_vec();
    chosen.sort_unstable();
    chosen
}

/// Builds a [`SynthSummary`]-shaped value from the surrogate's predicted
/// targets, so predicted points flow through the exact path's
/// [`cost`] bridge (`metrics_from_summary`) and land in the same
/// objective space as synthesized ones.
fn predicted_summary(pred: &[f64], knob: &KnobVector) -> SynthSummary {
    let KnobVector::Hardware { pe, .. } = knob else {
        unreachable!("predictions are only made for hardware points");
    };
    let at = |i: usize| pred.get(i).copied().unwrap_or(0.0).max(0.0).round();
    SynthSummary {
        latency_cycles: at(0) as u64,
        innermost_ii: 1,
        pe: *pe,
        area: AreaReport {
            luts: at(1) as u64,
            ffs: at(2) as u64,
            dsps: at(3) as u64,
            brams: at(4) as u64,
        },
        clock_mhz: knob.hls_config().clock_mhz,
    }
}

/// Surrogate-pruned counterpart of [`crate::generate_all`]: returns the
/// exactly-evaluated variants (software points, training points and
/// margin survivors — ids keep their exhaustive enumeration indices) plus
/// a report of what was predicted, kept and pruned.
///
/// # Errors
///
/// Returns [`VariantError::Space`] for a malformed space or prune
/// configuration, and [`VariantError::Hls`] when an exactly-evaluated
/// point fails to synthesize (lowest enumeration index wins, like the
/// exhaustive engine).
pub fn generate_all_pruned(
    funcs: &[&Func],
    space: &DesignSpace,
    jobs: usize,
    cfg: &PruneConfig,
) -> VariantResult<(Vec<Vec<Variant>>, ExploreReport)> {
    space.validate()?;
    cfg.validate()?;
    let knobs = space.enumerate_knobs();
    let workloads: Vec<KernelWorkload> = funcs.iter().map(|f| analysis::analyze(f)).collect();
    let metrics = everest_telemetry::metrics();

    // Flattened hardware (kernel, point) pairs in enumeration order.
    let hw_pairs: Vec<(usize, usize)> = (0..funcs.len())
        .flat_map(|k| {
            knobs.iter().enumerate().filter(|(_, kn)| kn.is_hardware()).map(move |(i, _)| (k, i))
        })
        .collect();
    let points = funcs.len() * knobs.len();
    let software = points - hw_pairs.len();

    let mut span = everest_telemetry::span("dse.explore", "variants");
    span.attr("kernels", funcs.len());
    span.attr("points", points);
    span.attr("jobs", jobs.max(1));

    let want = ((hw_pairs.len() as f64 * cfg.train_fraction).ceil() as usize)
        .max(cfg.min_train)
        .min(hw_pairs.len());
    // Too few hardware points for the model to earn its keep: every pair
    // would be a training pair anyway.
    if want >= hw_pairs.len() {
        metrics.counter_inc("dse.model.fallback");
        let sets = crate::generate_all(funcs, space, jobs)?;
        let report = ExploreReport {
            points,
            software,
            train: 0,
            predicted: 0,
            exact: hw_pairs.len(),
            pruned: 0,
            fallback: true,
            val_mape: 0.0,
        };
        return Ok((sets, report));
    }

    // --- Phase 1: exact synthesis of the training sample. ---
    let train_at = training_indices(cfg.seed, hw_pairs.len(), want);
    let train_pairs: Vec<(usize, usize)> = train_at.iter().map(|&t| hw_pairs[t]).collect();
    let summaries =
        pool::parallel_map("dse.explore.train", jobs, train_pairs.clone(), |_, (k, i)| {
            cost::summarize_hardware(funcs[k], &knobs[i]).map(|s| (k, i, s))
        });
    let mut rows = Vec::with_capacity(summaries.len());
    let mut exact_summaries: Vec<Option<SynthSummary>> = vec![None; points];
    for (t, result) in train_at.iter().zip(summaries) {
        let (k, i, summary) = result.map_err(VariantError::Hls)?;
        exact_summaries[k * knobs.len() + i] = Some(summary);
        rows.push(DatasetRow {
            kernel: funcs[k].name.clone(),
            fingerprint: cache::func_fingerprint(funcs[k]),
            seed: cfg.seed,
            index: *t,
            knob: knobs[i],
            features: features_for(&workloads[k], &knobs[i]),
            targets: summary.targets().to_vec(),
        });
    }
    let dataset = Dataset {
        feature_names: feature_names(),
        target_names: SynthSummary::TARGET_NAMES.iter().map(|s| (*s).to_string()).collect(),
        rows,
    };
    metrics.counter_add("dse.model.train_points", dataset.rows.len() as u64);

    // --- Phase 2: fit, with the accuracy safety valve. ---
    let model = SurrogateModel::fit(&dataset, &cfg.fit);
    let val_mape = model.validation.worst_mape();
    if val_mape > cfg.max_val_mape {
        metrics.counter_inc("dse.model.fallback");
        let sets = crate::generate_all(funcs, space, jobs)?;
        let report = ExploreReport {
            points,
            software,
            train: want,
            predicted: 0,
            exact: hw_pairs.len(),
            pruned: 0,
            fallback: true,
            val_mape,
        };
        return Ok((sets, report));
    }

    // --- Phase 3: predict every hardware pair, prune against the
    // predicted front. ---
    let predicted: Vec<Metrics> = hw_pairs
        .iter()
        .map(|&(k, i)| {
            let summary = match exact_summaries[k * knobs.len() + i] {
                // Training points contribute their exact summaries: free
                // accuracy right where the front is decided.
                Some(exact) => exact,
                None => predicted_summary(
                    &model.predict(&features_for(&workloads[k], &knobs[i])),
                    &knobs[i],
                ),
            };
            cost::metrics_from_summary(&summary, &workloads[k], knobs[i].target())
        })
        .collect();
    metrics.counter_add("dse.model.predicted", (hw_pairs.len() - want) as u64);

    // Per kernel: front over exact software metrics + (predicted | exact)
    // hardware metrics, then the margin test.
    let mut keep = vec![false; hw_pairs.len()];
    for (k, workload) in workloads.iter().enumerate() {
        let sw_objs: Vec<(f64, f64, u64)> = knobs
            .iter()
            .filter(|kn| !kn.is_hardware())
            .map(|kn| {
                let m = cost::software_metrics_knob(workload, kn);
                (m.total_us(), m.energy_mj, m.area_luts)
            })
            .collect();
        let hw_at: Vec<usize> = (0..hw_pairs.len()).filter(|&p| hw_pairs[p].0 == k).collect();
        let mut objs = sw_objs.clone();
        objs.extend(hw_at.iter().map(|&p| {
            let m = &predicted[p];
            (m.total_us(), m.energy_mj, m.area_luts)
        }));
        let dominated = pareto::dominated_objective_flags(&objs);
        let front: Vec<(f64, f64, f64)> = objs
            .iter()
            .zip(&dominated)
            .filter(|(_, d)| !**d)
            .map(|(&(t, e, a), _)| (t, e, a as f64))
            .collect();
        for (slot, &p) in hw_at.iter().enumerate() {
            let (t, e, a) = objs[sw_objs.len() + slot];
            let shrunk =
                (t * (1.0 - cfg.margin), e * (1.0 - cfg.margin), a as f64 * (1.0 - cfg.margin));
            keep[p] = !front.iter().any(|&q| dominates3(q, shrunk));
        }

        // Near-duplicate collapse: snap predicted objectives to a
        // multiplicative grid of width `dedup_eps` and keep one
        // representative per occupied cell (lowest enumeration index;
        // training pairs seed their cells first — they are already paid
        // for). Without this, clouds of points the model cannot tell
        // apart (e.g. banks beyond the port clamp) all survive the
        // margin test and exact synthesis re-learns their equivalence
        // the expensive way.
        if cfg.dedup_eps > 0.0 {
            let cell_of = |x: f64| (x.max(1e-12).ln() / (1.0 + cfg.dedup_eps).ln()).floor() as i64;
            let cell = |p: usize| {
                let m = &predicted[p];
                (cell_of(m.total_us()), cell_of(m.energy_mj), cell_of(m.area_luts as f64 + 1.0))
            };
            let mut seen: Vec<(i64, i64, i64)> = Vec::new();
            let trained =
                |p: usize| exact_summaries[hw_pairs[p].0 * knobs.len() + hw_pairs[p].1].is_some();
            let kept: Vec<usize> = hw_at.iter().copied().filter(|&p| keep[p]).collect();
            for &p in kept.iter().filter(|&&p| trained(p)) {
                seen.push(cell(p));
            }
            for &p in kept.iter().filter(|&&p| !trained(p)) {
                let c = cell(p);
                if seen.contains(&c) {
                    keep[p] = false;
                } else {
                    seen.push(c);
                }
            }
        }
    }

    // --- Phase 4: exact evaluation of survivors (training pairs are
    // already synthesized; their metrics derive from stored summaries).
    let survivors: Vec<(usize, usize)> = (0..hw_pairs.len())
        .filter(|&p| {
            keep[p] && exact_summaries[hw_pairs[p].0 * knobs.len() + hw_pairs[p].1].is_none()
        })
        .map(|p| hw_pairs[p])
        .collect();
    let survivor_count = survivors.len();
    let evaluated =
        pool::parallel_map("dse.explore.exact", jobs, survivors.clone(), |_, (k, i)| {
            cost::summarize_hardware(funcs[k], &knobs[i]).map(|s| (k, i, s))
        });
    for result in evaluated {
        let (k, i, summary) = result.map_err(VariantError::Hls)?;
        exact_summaries[k * knobs.len() + i] = Some(summary);
    }
    let exact = want + survivor_count;
    let pruned = hw_pairs.len() - exact;
    metrics.counter_add("dse.model.kept", exact as u64);
    metrics.counter_add("dse.model.pruned", pruned as u64);

    // --- Assemble: every exactly-known point, original enumeration ids.
    let mut sets = Vec::with_capacity(funcs.len());
    for (k, func) in funcs.iter().enumerate() {
        let mut variants = Vec::new();
        for (i, knob) in knobs.iter().enumerate() {
            let m = if knob.is_hardware() {
                match exact_summaries[k * knobs.len() + i] {
                    Some(summary) => {
                        cost::metrics_from_summary(&summary, &workloads[k], knob.target())
                    }
                    None => continue, // pruned
                }
            } else {
                cost::software_metrics_knob(&workloads[k], knob)
            };
            variants.push(Variant {
                id: format!("{}#{}", func.name, i),
                kernel: func.name.clone(),
                transforms: knob.to_transforms(),
                metrics: m,
            });
        }
        sets.push(variants);
    }
    span.attr("exact", exact);
    span.attr("pruned", pruned);
    let report = ExploreReport {
        points,
        software,
        train: want,
        predicted: hw_pairs.len() - want,
        exact,
        pruned,
        fallback: false,
        val_mape,
    };
    Ok((sets, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<Func> {
        let src = "
            kernel mm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> { return a @ b; }
            kernel ax(a: tensor<256xf64>, b: tensor<256xf64>) -> tensor<256xf64> { return a + b; }
        ";
        let m = everest_dsl::compile_kernels(src).unwrap();
        vec![m.func("mm").unwrap().clone(), m.func("ax").unwrap().clone()]
    }

    fn wide_space() -> DesignSpace {
        DesignSpace {
            banks: vec![1, 2, 4, 8, 16],
            pes: vec![1, 2, 4, 8, 16, 32],
            pipeline: vec![true, false],
            dift: vec![false, true],
            ..DesignSpace::default()
        }
    }

    #[test]
    fn small_spaces_fall_back_to_exhaustive() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let space = DesignSpace::small();
        let (sets, report) =
            generate_all_pruned(&refs, &space, 1, &PruneConfig::default()).unwrap();
        assert!(report.fallback);
        assert_eq!(sets, crate::generate_all(&refs, &space, 1).unwrap());
    }

    #[test]
    fn pruned_sets_are_subsets_with_stable_ids() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let space = wide_space();
        let (pruned, report) =
            generate_all_pruned(&refs, &space, 2, &PruneConfig::default()).unwrap();
        let full = crate::generate_all(&refs, &space, 2).unwrap();
        assert!(!report.fallback, "wide space should engage the model");
        assert!(report.pruned > 0, "nothing pruned: {report:?}");
        for (p_set, f_set) in pruned.iter().zip(&full) {
            assert!(p_set.len() < f_set.len());
            for v in p_set {
                let exact = f_set.iter().find(|f| f.id == v.id).expect("id from enumeration");
                assert_eq!(exact, v, "kept variants carry exact metrics");
            }
        }
    }

    #[test]
    fn pruned_exploration_is_bit_identical_across_job_counts() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let space = wide_space();
        let cfg = PruneConfig::default();
        let (seq, r1) = generate_all_pruned(&refs, &space, 1, &cfg).unwrap();
        let (par, r4) = generate_all_pruned(&refs, &space, 4, &cfg).unwrap();
        assert_eq!(seq, par);
        assert_eq!(r1, r4);
    }

    #[test]
    fn front_quality_matches_exhaustive_within_one_percent() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let space = wide_space();
        let (pruned, _) = generate_all_pruned(&refs, &space, 2, &PruneConfig::default()).unwrap();
        let full = crate::generate_all(&refs, &space, 2).unwrap();
        for (p_set, f_set) in pruned.iter().zip(&full) {
            let reference = pareto::reference_point(f_set);
            let hv_full = pareto::hypervolume(&pareto::pareto_front(f_set), reference);
            let hv_pruned = pareto::hypervolume(&pareto::pareto_front(p_set), reference);
            assert!(
                hv_pruned >= hv_full * 0.99,
                "front quality dropped: pruned {hv_pruned} vs full {hv_full}"
            );
        }
    }

    #[test]
    fn training_selection_is_pure_and_sorted() {
        let a = training_indices(7, 100, 20);
        let b = training_indices(7, 100, 20);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a.len(), 20);
        let c = training_indices(8, 100, 20);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn invalid_prune_config_is_rejected() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let bad = PruneConfig { margin: 1.5, ..PruneConfig::default() };
        assert!(matches!(
            generate_all_pruned(&refs, &DesignSpace::default(), 1, &bad),
            Err(VariantError::Space(_))
        ));
        let bad = PruneConfig { train_fraction: 0.0, ..PruneConfig::default() };
        assert!(matches!(
            generate_all_pruned(&refs, &DesignSpace::default(), 1, &bad),
            Err(VariantError::Space(_))
        ));
    }
}
