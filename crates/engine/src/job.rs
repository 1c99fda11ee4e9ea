//! Batch work items: one trace plus the pipeline to run on it.

use lion_core::{
    AdaptiveConfig, AdaptiveOutcome, Calibration, Calibrator, CoreError, Estimate, Localizer,
    LocalizerConfig, SolveSpace, Workspace,
};
use lion_geom::Point3;

/// Which pipeline a [`Job`] runs on its trace.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Plain 2D localization ([`Localizer::locate`] in
    /// [`SolveSpace::TwoD`]).
    Locate2d,
    /// Plain 3D localization ([`Localizer::locate`] in
    /// [`SolveSpace::ThreeD`]).
    Locate3d,
    /// 2D localization behind the adaptive range/interval sweep.
    Adaptive2d(AdaptiveConfig),
    /// 3D localization behind the adaptive range/interval sweep.
    Adaptive3d(AdaptiveConfig),
    /// Full antenna calibration against a measured physical center:
    /// 3D phase-center localization (optionally adaptive) plus the
    /// paper's Eq. 17 phase-offset recovery.
    Calibrate {
        /// Physically measured antenna center the displacement is
        /// reported against.
        physical_center: Point3,
        /// Adaptive sweep for the inner localization; `None` locates
        /// directly with the job's [`LocalizerConfig`].
        adaptive: Option<AdaptiveConfig>,
    },
}

/// One independent unit of batch work: a phase trace, a solver
/// configuration, and the pipeline ([`JobKind`]) to run.
///
/// Jobs are immutable once built; the engine may execute them from any
/// worker thread. Construct them with the mode-specific constructors
/// ([`Job::locate_2d`], [`Job::adaptive_3d`], [`Job::calibrate`], …) or
/// as struct literals.
#[derive(Debug, Clone)]
pub struct Job {
    /// The trace: `(tag position, wrapped phase)` samples.
    pub measurements: Vec<(Point3, f64)>,
    /// Solver configuration used by every mode.
    pub config: LocalizerConfig,
    /// The pipeline to run.
    pub kind: JobKind,
}

impl Job {
    /// A plain 2D localization job.
    pub fn locate_2d(measurements: Vec<(Point3, f64)>, config: LocalizerConfig) -> Self {
        Job {
            measurements,
            config,
            kind: JobKind::Locate2d,
        }
    }

    /// A plain 3D localization job.
    pub fn locate_3d(measurements: Vec<(Point3, f64)>, config: LocalizerConfig) -> Self {
        Job {
            measurements,
            config,
            kind: JobKind::Locate3d,
        }
    }

    /// A 2D localization job behind the adaptive parameter sweep.
    pub fn adaptive_2d(
        measurements: Vec<(Point3, f64)>,
        config: LocalizerConfig,
        adaptive: AdaptiveConfig,
    ) -> Self {
        Job {
            measurements,
            config,
            kind: JobKind::Adaptive2d(adaptive),
        }
    }

    /// A 3D localization job behind the adaptive parameter sweep.
    pub fn adaptive_3d(
        measurements: Vec<(Point3, f64)>,
        config: LocalizerConfig,
        adaptive: AdaptiveConfig,
    ) -> Self {
        Job {
            measurements,
            config,
            kind: JobKind::Adaptive3d(adaptive),
        }
    }

    /// A full calibration job with the default adaptive sweep (matching
    /// [`Calibrator::new`]).
    pub fn calibrate(
        measurements: Vec<(Point3, f64)>,
        config: LocalizerConfig,
        physical_center: Point3,
    ) -> Self {
        Job::calibrate_with(
            measurements,
            config,
            physical_center,
            Some(AdaptiveConfig::default()),
        )
    }

    /// A full calibration job with an explicit (or disabled) adaptive
    /// sweep.
    pub fn calibrate_with(
        measurements: Vec<(Point3, f64)>,
        config: LocalizerConfig,
        physical_center: Point3,
        adaptive: Option<AdaptiveConfig>,
    ) -> Self {
        Job {
            measurements,
            config,
            kind: JobKind::Calibrate {
                physical_center,
                adaptive,
            },
        }
    }

    /// Runs the job's pipeline with buffers from (and stage metrics
    /// recorded into) `ws`. Bit-identical to calling the corresponding
    /// `lion-core` entry point directly.
    pub(crate) fn execute(&self, ws: &mut Workspace) -> Result<JobOutput, CoreError> {
        let localizer = |space| Localizer::new(self.config.clone(), space);
        match &self.kind {
            JobKind::Locate2d => localizer(SolveSpace::TwoD)
                .locate_in(&self.measurements, ws)
                .map(JobOutput::Estimate),
            JobKind::Locate3d => localizer(SolveSpace::ThreeD)
                .locate_in(&self.measurements, ws)
                .map(JobOutput::Estimate),
            JobKind::Adaptive2d(adaptive) => localizer(SolveSpace::TwoD)
                .locate_adaptive_in(&self.measurements, adaptive, ws)
                .map(JobOutput::Adaptive),
            JobKind::Adaptive3d(adaptive) => localizer(SolveSpace::ThreeD)
                .locate_adaptive_in(&self.measurements, adaptive, ws)
                .map(JobOutput::Adaptive),
            JobKind::Calibrate {
                physical_center,
                adaptive,
            } => Calibrator::new(self.config.clone())
                .with_adaptive(adaptive.clone())
                .calibrate_in(&self.measurements, *physical_center, ws)
                .map(Box::new)
                .map(JobOutput::Calibration),
        }
    }
}

/// The successful result of one [`Job`], tagged by pipeline.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Result of a [`JobKind::Locate2d`] / [`JobKind::Locate3d`] job.
    Estimate(Estimate),
    /// Result of an adaptive-sweep job.
    Adaptive(AdaptiveOutcome),
    /// Result of a calibration job (boxed: calibrations are large
    /// relative to estimates).
    Calibration(Box<Calibration>),
}

impl JobOutput {
    /// The position estimate, when the job produced one directly
    /// (`Locate*` and `Adaptive*` jobs; `None` for calibrations).
    pub fn estimate(&self) -> Option<&Estimate> {
        match self {
            JobOutput::Estimate(e) => Some(e),
            JobOutput::Adaptive(a) => Some(&a.estimate),
            JobOutput::Calibration(_) => None,
        }
    }

    /// The located point: the position estimate for localization jobs,
    /// the phase center for calibration jobs.
    pub fn position(&self) -> Point3 {
        match self {
            JobOutput::Estimate(e) => e.position,
            JobOutput::Adaptive(a) => a.estimate.position,
            JobOutput::Calibration(c) => c.phase_center,
        }
    }

    /// The calibration, for [`JobKind::Calibrate`] jobs.
    pub fn calibration(&self) -> Option<&Calibration> {
        match self {
            JobOutput::Calibration(c) => Some(c),
            _ => None,
        }
    }
}
