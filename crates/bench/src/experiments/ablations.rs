//! Ablations of LION's design choices, beyond what the paper plots:
//! pair-selection strategy, adaptive selection, smoothing window, weight
//! function, and reference-sample choice.

use lion_baselines::hologram::{self, HologramConfig, SearchVolume};
use lion_baselines::refine::{locate_refined, RefineConfig};
use lion_core::{AdaptiveConfig, Localizer, LocalizerConfig, PairStrategy, SolveSpace, Weighting};
use lion_engine::{Engine, Job, MetricsReport};
use lion_geom::{LineSegment, Point3, ThreeLineScan};
use lion_linalg::{IrlsConfig, WeightFunction};
use lion_sim::PositionErrorModel;

use crate::experiments::ExperimentReport;
use crate::rig;

/// Mean error and mean equation count for one configuration label.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Configuration label.
    pub label: String,
    /// Mean distance error (meters).
    pub mean_error: f64,
    /// Mean equation count (0 when not applicable).
    pub mean_equations: f64,
}

fn three_line_measurements(seed: u64, target: Point3) -> (ThreeLineScan, Vec<(Point3, f64)>) {
    let antenna = rig::ideal_antenna(target);
    let mut scenario = rig::paper_scenario(antenna, seed);
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid");
    let m = scenario
        .scan(&scan.to_path(), rig::TAG_SPEED, rig::READ_RATE)
        .expect("valid scan")
        .to_measurements();
    (scan, m)
}

/// Pair-strategy ablation on the 3D three-line scan.
pub fn run_pairs(seed: u64, trials: usize) -> Vec<AblationPoint> {
    run_pairs_on(&Engine::new(), seed, trials).0
}

/// [`run_pairs`] on an explicit [`Engine`]: three 3D [`Job`]s per trial,
/// one per strategy, on the same serially-simulated trace.
pub fn run_pairs_on(
    engine: &Engine,
    seed: u64,
    trials: usize,
) -> (Vec<AblationPoint>, MetricsReport) {
    let target = Point3::new(0.05, 0.8, 0.12);
    let strategies: Vec<(String, PairStrategy)> = vec![
        (
            "interval 0.2".to_string(),
            PairStrategy::Interval { interval: 0.2 },
        ),
        (
            "all pairs >=0.18 (cap 4000)".to_string(),
            PairStrategy::AllWithMinSeparation {
                min_separation: 0.18,
                max_pairs: 4000,
            },
        ),
    ];
    let mut jobs = Vec::with_capacity((1 + strategies.len()) * trials);
    for t in 0..trials {
        let (scan, m) = three_line_measurements(seed ^ (t as u64), target);
        // The structured strategy needs the scan geometry.
        let structured = PairStrategy::StructuredScan {
            scan,
            x_interval: 0.2,
            tolerance: 0.003,
        };
        for strategy in std::iter::once(&structured).chain(strategies.iter().map(|(_, s)| s)) {
            let cfg = LocalizerConfig {
                pair_strategy: strategy.clone(),
                ..rig::paper_localizer_config(target)
            };
            jobs.push(Job::locate_3d(m.clone(), cfg));
        }
    }
    let outcome = engine.run(&jobs);
    let labels: Vec<String> = std::iter::once("structured 3-line (paper)".to_string())
        .chain(strategies.into_iter().map(|(label, _)| label))
        .collect();
    let mut per_label: Vec<(Vec<f64>, Vec<f64>)> =
        labels.iter().map(|_| (Vec::new(), Vec::new())).collect();
    for chunk in outcome.results.chunks(labels.len()) {
        for (slot, result) in per_label.iter_mut().zip(chunk) {
            if let Some(est) = result.as_ref().ok().and_then(|o| o.estimate()) {
                slot.0.push(est.distance_error(target));
                slot.1.push(est.equation_count as f64);
            }
        }
    }
    let points = labels
        .into_iter()
        .zip(per_label)
        .map(|(label, (errs, eqs))| AblationPoint {
            label,
            mean_error: rig::mean_std(&errs).0,
            mean_equations: rig::mean_std(&eqs).0,
        })
        .collect();
    (points, outcome.report)
}

/// Adaptive selection on/off across noise levels (2D conveyor setup).
pub fn run_adaptive(seed: u64, trials: usize) -> Vec<AblationPoint> {
    run_adaptive_on(&Engine::new(), seed, trials).0
}

/// [`run_adaptive`] on an explicit [`Engine`]: each trial contributes a
/// single-shot [`Job`] and an adaptive-sweep [`Job`] on the same trace.
pub fn run_adaptive_on(
    engine: &Engine,
    seed: u64,
    trials: usize,
) -> (Vec<AblationPoint>, MetricsReport) {
    let environments = [
        ("paper noise, free space", false),
        ("indoor multipath", true),
    ];
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let mut jobs = Vec::with_capacity(2 * environments.len() * trials);
    for (_, indoor) in environments {
        let antenna = rig::ideal_antenna(antenna_pos);
        let mut scenario = if indoor {
            rig::indoor_scenario(antenna, seed)
        } else {
            rig::paper_scenario(antenna, seed)
        };
        for _ in 0..trials {
            let track = LineSegment::along_x(-0.6, 0.6, 0.0, 0.0).expect("valid");
            let m = scenario
                .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
                .expect("valid scan")
                .to_measurements();
            let cfg = rig::paper_localizer_config(antenna_pos);
            jobs.push(Job::locate_2d(m.clone(), cfg.clone()));
            jobs.push(Job::adaptive_2d(m, cfg, AdaptiveConfig::default()));
        }
    }
    let outcome = engine.run(&jobs);
    let mut out = Vec::new();
    for (e_idx, (label, _)) in environments.iter().enumerate() {
        let mut plain = Vec::new();
        let mut adaptive_err = Vec::new();
        let slice = &outcome.results[e_idx * 2 * trials..(e_idx + 1) * 2 * trials];
        for chunk in slice.chunks(2) {
            if let Some(est) = chunk[0].as_ref().ok().and_then(|o| o.estimate()) {
                plain.push(est.distance_error(antenna_pos));
            }
            if let Some(est) = chunk[1].as_ref().ok().and_then(|o| o.estimate()) {
                adaptive_err.push(est.distance_error(antenna_pos));
            }
        }
        out.push(AblationPoint {
            label: format!("{label}: single-shot"),
            mean_error: rig::mean_std(&plain).0,
            mean_equations: 0.0,
        });
        out.push(AblationPoint {
            label: format!("{label}: adaptive"),
            mean_error: rig::mean_std(&adaptive_err).0,
            mean_equations: 0.0,
        });
    }
    (out, outcome.report)
}

/// Scans `trials` straight passes of the given scenario.
fn linear_traces(scenario: &mut lion_sim::Scenario, trials: usize) -> Vec<Vec<(Point3, f64)>> {
    (0..trials)
        .map(|_| {
            let track = LineSegment::along_x(-0.5, 0.5, 0.0, 0.0).expect("valid");
            scenario
                .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
                .expect("valid scan")
                .to_measurements()
        })
        .collect()
}

/// Runs a labelled 2D configuration sweep over shared traces on the
/// engine: one [`Job`] per `(configuration, trace)` combination.
fn sweep_2d_on(
    engine: &Engine,
    traces: &[Vec<(Point3, f64)>],
    configs: Vec<(String, LocalizerConfig)>,
    target: Point3,
) -> (Vec<AblationPoint>, MetricsReport) {
    let mut jobs = Vec::with_capacity(configs.len() * traces.len());
    for (_, cfg) in &configs {
        for m in traces {
            jobs.push(Job::locate_2d(m.clone(), cfg.clone()));
        }
    }
    let outcome = engine.run(&jobs);
    let points = configs
        .into_iter()
        .zip(outcome.results.chunks(traces.len().max(1)))
        .map(|((label, _), chunk)| {
            let errs: Vec<f64> = chunk
                .iter()
                .filter_map(|r| r.as_ref().ok().and_then(|o| o.estimate()))
                .map(|est| est.distance_error(target))
                .collect();
            AblationPoint {
                label,
                mean_error: rig::mean_std(&errs).0,
                mean_equations: 0.0,
            }
        })
        .collect();
    (points, outcome.report)
}

/// Smoothing-window sweep under the paper's noise (2D linear scan).
pub fn run_smoothing(seed: u64, trials: usize) -> Vec<AblationPoint> {
    run_smoothing_on(&Engine::new(), seed, trials).0
}

/// [`run_smoothing`] on an explicit [`Engine`].
pub fn run_smoothing_on(
    engine: &Engine,
    seed: u64,
    trials: usize,
) -> (Vec<AblationPoint>, MetricsReport) {
    let antenna_pos = Point3::new(0.1, 0.8, 0.0);
    let antenna = rig::ideal_antenna(antenna_pos);
    let mut scenario = rig::paper_scenario(antenna, seed);
    let traces = linear_traces(&mut scenario, trials);
    let configs = [1usize, 5, 9, 17, 33, 65]
        .into_iter()
        .map(|w| {
            (
                format!("window {w}"),
                LocalizerConfig {
                    smoothing_window: w,
                    ..rig::paper_localizer_config(antenna_pos)
                },
            )
        })
        .collect();
    sweep_2d_on(engine, &traces, configs, antenna_pos)
}

/// Weight-function ablation (Gaussian vs Huber vs uniform) under
/// multipath.
pub fn run_weightfn(seed: u64, trials: usize) -> Vec<AblationPoint> {
    run_weightfn_on(&Engine::new(), seed, trials).0
}

/// [`run_weightfn`] on an explicit [`Engine`].
pub fn run_weightfn_on(
    engine: &Engine,
    seed: u64,
    trials: usize,
) -> (Vec<AblationPoint>, MetricsReport) {
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = rig::ideal_antenna(antenna_pos);
    let mut scenario = rig::indoor_scenario(antenna, seed);
    let traces = linear_traces(&mut scenario, trials);
    let variants: Vec<(String, Weighting)> = vec![
        (
            "gaussian residual (paper)".to_string(),
            Weighting::Weighted(IrlsConfig::default()),
        ),
        (
            "huber delta=0.01".to_string(),
            Weighting::Weighted(IrlsConfig {
                weight_fn: WeightFunction::Huber { delta: 0.01 },
                ..IrlsConfig::default()
            }),
        ),
        ("uniform (plain LS)".to_string(), Weighting::LeastSquares),
    ];
    let configs = variants
        .into_iter()
        .map(|(label, weighting)| {
            (
                label,
                LocalizerConfig {
                    weighting,
                    ..rig::paper_localizer_config(antenna_pos)
                },
            )
        })
        .collect();
    sweep_2d_on(engine, &traces, configs, antenna_pos)
}

/// Reference-sample-choice sensitivity (first / quarter / middle / last).
pub fn run_reference(seed: u64, trials: usize) -> Vec<AblationPoint> {
    run_reference_on(&Engine::new(), seed, trials).0
}

/// [`run_reference`] on an explicit [`Engine`].
pub fn run_reference_on(
    engine: &Engine,
    seed: u64,
    trials: usize,
) -> (Vec<AblationPoint>, MetricsReport) {
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = rig::ideal_antenna(antenna_pos);
    let mut scenario = rig::paper_scenario(antenna, seed);
    let traces = linear_traces(&mut scenario, trials);
    let n = traces[0].len();
    let configs = [
        ("first sample", 0usize),
        ("quarter", n / 4),
        ("middle (default)", n / 2),
        ("last sample", n - 1),
    ]
    .into_iter()
    .map(|(label, idx)| {
        (
            label.to_string(),
            LocalizerConfig {
                reference_index: Some(idx),
                ..rig::paper_localizer_config(antenna_pos)
            },
        )
    })
    .collect();
    sweep_2d_on(engine, &traces, configs, antenna_pos)
}

/// Sensitivity to trajectory-knowledge error: the paper assumes perfectly
/// known tag positions; real encoders have bias, scale error, and jitter.
pub fn run_position_error(seed: u64, trials: usize) -> Vec<AblationPoint> {
    let target = Point3::new(0.05, 0.8, 0.0);
    let antenna = rig::ideal_antenna(target);
    let mut scenario = rig::paper_scenario(antenna, seed);
    let track = LineSegment::along_x(-0.5, 0.5, 0.0, 0.0).expect("valid");
    let mut traces = Vec::new();
    for _ in 0..trials {
        traces.push(
            scenario
                .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
                .expect("valid scan"),
        );
    }
    let models: Vec<(String, PositionErrorModel)> = vec![
        ("exact positions".to_string(), PositionErrorModel::exact()),
        (
            "industrial encoder".to_string(),
            PositionErrorModel::industrial_encoder(),
        ),
        (
            "5 mm jitter".to_string(),
            PositionErrorModel {
                jitter_std: 0.005,
                ..PositionErrorModel::exact()
            },
        ),
        (
            "1% belt slip".to_string(),
            PositionErrorModel {
                scale_error: 0.01,
                ..PositionErrorModel::exact()
            },
        ),
        (
            "1 cm datum bias".to_string(),
            PositionErrorModel {
                bias: lion_geom::Vec3::new(0.01, 0.0, 0.0),
                ..PositionErrorModel::exact()
            },
        ),
    ];
    models
        .into_iter()
        .map(|(label, model)| {
            let mut errs = Vec::new();
            for (i, trace) in traces.iter().enumerate() {
                let m = model.apply(trace, seed ^ (i as u64)).to_measurements();
                let cfg = rig::paper_localizer_config(target);
                if let Ok(est) = Localizer::new(cfg, SolveSpace::TwoD).locate(&m) {
                    errs.push(est.distance_error(target));
                }
            }
            AblationPoint {
                label,
                mean_error: rig::mean_std(&errs).0,
                mean_equations: 0.0,
            }
        })
        .collect()
}

/// Coarse-to-fine hologram refinement vs the naive full grid: does the
/// optimized baseline close the gap to LION? (No — but the comparison is
/// fairer with it in the picture.)
pub fn run_refine(seed: u64, trials: usize) -> Vec<AblationPoint> {
    let target = Point3::new(0.1, 0.8, 0.0);
    let antenna = rig::ideal_antenna(target);
    let mut scenario = rig::paper_scenario(antenna, seed);
    let track = LineSegment::along_x(-0.5, 0.5, 0.0, 0.0).expect("valid");
    let volume = SearchVolume::square_2d(target, 0.1);
    let mut full_err = Vec::new();
    let mut full_cells = Vec::new();
    let mut ref_err = Vec::new();
    let mut ref_cells = Vec::new();
    let mut lion_err = Vec::new();
    for _ in 0..trials {
        let m: Vec<(Point3, f64)> = scenario
            .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
            .expect("valid scan")
            .to_measurements();
        let dec: Vec<(Point3, f64)> = m.iter().step_by(20).copied().collect();
        let full_cfg = HologramConfig {
            grid_size: 0.001,
            wavelength: rig::LAMBDA,
            augmented: true,
        };
        if let Ok(est) = hologram::locate(&dec, volume, &full_cfg) {
            full_err.push(est.position.distance(target));
            full_cells.push(est.cells_evaluated as f64);
        }
        let refine_cfg = RefineConfig {
            hologram: HologramConfig {
                wavelength: rig::LAMBDA,
                augmented: true,
                ..HologramConfig::default()
            },
            ..RefineConfig::default()
        };
        if let Ok(est) = locate_refined(&dec, volume, &refine_cfg) {
            ref_err.push(est.position.distance(target));
            ref_cells.push(est.cells_evaluated as f64);
        }
        let cfg = rig::paper_localizer_config(target);
        if let Ok(est) = Localizer::new(cfg, SolveSpace::TwoD).locate(&m) {
            lion_err.push(est.distance_error(target));
        }
    }
    vec![
        AblationPoint {
            label: "DAH full grid 1 mm".to_string(),
            mean_error: rig::mean_std(&full_err).0,
            mean_equations: rig::mean_std(&full_cells).0,
        },
        AblationPoint {
            label: "DAH coarse-to-fine".to_string(),
            mean_error: rig::mean_std(&ref_err).0,
            mean_equations: rig::mean_std(&ref_cells).0,
        },
        AblationPoint {
            label: "LION (for scale)".to_string(),
            mean_error: rig::mean_std(&lion_err).0,
            mean_equations: 0.0,
        },
    ]
}

fn render(id: &str, title: &str, points: &[AblationPoint], with_eqs: bool) -> ExperimentReport {
    let mut r = ExperimentReport::new(id, title);
    for p in points {
        if with_eqs {
            r.push(format!(
                "{:<32} | mean error {} | {:.0} equations",
                p.label,
                rig::cm(p.mean_error),
                p.mean_equations
            ));
        } else {
            r.push(format!(
                "{:<32} | mean error {}",
                p.label,
                rig::cm(p.mean_error)
            ));
        }
    }
    r
}

/// Renders the pair-strategy ablation.
pub fn report_pairs(seed: u64) -> ExperimentReport {
    let (points, metrics) = run_pairs_on(&Engine::new(), seed, 10);
    render(
        "ablation_pairs",
        "pair-selection strategies on the 3D three-line scan",
        &points,
        true,
    )
    .with_metrics(metrics)
}

/// Renders the adaptive on/off ablation.
pub fn report_adaptive(seed: u64) -> ExperimentReport {
    let (points, metrics) = run_adaptive_on(&Engine::new(), seed, 10);
    render(
        "ablation_adaptive",
        "adaptive parameter selection on/off across environments",
        &points,
        false,
    )
    .with_metrics(metrics)
}

/// Renders the smoothing-window ablation.
pub fn report_smoothing(seed: u64) -> ExperimentReport {
    let (points, metrics) = run_smoothing_on(&Engine::new(), seed, 20);
    render(
        "ablation_smooth",
        "moving-average window sweep",
        &points,
        false,
    )
    .with_metrics(metrics)
}

/// Renders the weight-function ablation.
pub fn report_weightfn(seed: u64) -> ExperimentReport {
    let (points, metrics) = run_weightfn_on(&Engine::new(), seed, 20);
    render(
        "ablation_weightfn",
        "IRLS weight functions under multipath",
        &points,
        false,
    )
    .with_metrics(metrics)
}

/// Renders the reference-choice ablation.
pub fn report_reference(seed: u64) -> ExperimentReport {
    let (points, metrics) = run_reference_on(&Engine::new(), seed, 20);
    render(
        "ablation_reference",
        "reference-sample choice sensitivity",
        &points,
        false,
    )
    .with_metrics(metrics)
}

/// Renders the trajectory-error ablation.
pub fn report_position_error(seed: u64) -> ExperimentReport {
    render(
        "ablation_position_error",
        "sensitivity to trajectory-knowledge error (encoder bias/slip/jitter)",
        &run_position_error(seed, 15),
        false,
    )
}

/// Renders the hologram-refinement ablation (the "cells" column holds
/// evaluated grid cells).
pub fn report_refine(seed: u64) -> ExperimentReport {
    render(
        "ablation_refine",
        "coarse-to-fine hologram vs full grid vs LION",
        &run_refine(seed, 5),
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_error_degrades_gracefully() {
        let points = run_position_error(201, 4);
        assert_eq!(points.len(), 5);
        let exact = points[0].mean_error;
        // Encoder-grade error barely moves the needle.
        assert!(points[1].mean_error < exact + 0.01, "{:?}", points[1]);
        // A 1 cm datum bias translates the estimate by about 1 cm.
        assert!(
            (points[4].mean_error - 0.01).abs() < 0.006,
            "bias case: {}",
            points[4].mean_error
        );
        // Jitter does NOT simply average out: position noise enters the
        // design matrix (errors-in-variables), diluting the estimate by a
        // few multiples of the jitter. Trajectory knowledge is an accuracy
        // ceiling — consistent with the paper's premise that the scan
        // geometry must be tightly controlled.
        assert!(
            points[2].mean_error > points[0].mean_error,
            "jitter should hurt: {:?}",
            points[2]
        );
        assert!(
            points[2].mean_error < 0.06,
            "jitter case: {}",
            points[2].mean_error
        );
    }

    #[test]
    fn refinement_matches_full_grid_cheaply() {
        let points = run_refine(211, 2);
        assert_eq!(points.len(), 3);
        let full = &points[0];
        let refined = &points[1];
        let lion = &points[2];
        assert!(refined.mean_error < full.mean_error + 0.005);
        assert!(refined.mean_equations * 5.0 < full.mean_equations);
        assert!(lion.mean_error < 0.02);
    }

    #[test]
    fn pair_strategies_all_work() {
        let points = run_pairs(131, 3);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.mean_error < 0.05, "{}: error {}", p.label, p.mean_error);
            assert!(p.mean_equations > 3.0);
        }
    }

    #[test]
    fn smoothing_has_a_sweet_spot() {
        let points = run_smoothing(141, 8);
        assert_eq!(points.len(), 6);
        // Some smoothing should beat none under noise; the extreme window
        // should not be the best.
        let none = points[0].mean_error;
        let moderate = points[2].mean_error;
        assert!(
            moderate <= none * 1.2,
            "window 9 ({moderate}) should not be much worse than none ({none})"
        );
        assert!(points.iter().all(|p| p.mean_error < 0.05));
    }

    #[test]
    fn weightfn_variants_all_reasonable() {
        let points = run_weightfn(151, 6);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.mean_error < 0.06, "{}: {}", p.label, p.mean_error);
        }
        // The paper's Gaussian weight stays in the same ballpark as plain
        // LS here; its decisive win shows on dirtier data (fig15).
        assert!(points[0].mean_error <= points[2].mean_error * 1.5 + 0.001);
    }

    #[test]
    fn reference_choice_is_not_critical() {
        let points = run_reference(161, 6);
        assert_eq!(points.len(), 4);
        let best = points
            .iter()
            .map(|p| p.mean_error)
            .fold(f64::INFINITY, f64::min);
        let worst = points.iter().map(|p| p.mean_error).fold(0.0, f64::max);
        // All choices land within the same order of magnitude.
        assert!(worst < 10.0 * best.max(1e-4), "best {best} worst {worst}");
    }

    #[test]
    fn adaptive_helps_or_matches_under_multipath() {
        let points = run_adaptive(171, 4);
        assert_eq!(points.len(), 4);
        // Indoor: adaptive (idx 3) stays in the same ballpark as
        // single-shot (idx 2). Its payoff shows at depth (fig14b); on a
        // short clean track, restricting the range costs a little data.
        assert!(points[3].mean_error <= points[2].mean_error * 3.0 + 0.002);
        assert!(points.iter().all(|p| p.mean_error < 0.02));
    }
}
