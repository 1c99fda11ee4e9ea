//! Streaming pipeline configuration.

use lion_core::{CoreError, LocalizerConfig};

/// Which solver dimensionality the stream drives: the core
/// [`lion_core::SolveSpace`] under the stream's name.
pub use lion_core::SolveSpace as Space;

/// When the pipeline re-solves.
///
/// Both variants are phrased in the *stream's* units — read counts and
/// sample timestamps — never wall clock, so a replayed trace produces the
/// same solve points every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cadence {
    /// Re-solve after every `n` accepted reads.
    EveryReads(usize),
    /// Re-solve whenever at least `t` seconds of stream time have passed
    /// since the previous solve (timestamps of the accepted reads).
    EverySeconds(f64),
}

impl Cadence {
    /// Validates the cadence.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for a zero read count or a
    /// non-positive/non-finite period.
    pub fn validate(&self) -> Result<(), CoreError> {
        match *self {
            Cadence::EveryReads(0) => Err(CoreError::InvalidConfig {
                parameter: "cadence.every_reads",
                found: "0".to_string(),
            }),
            Cadence::EverySeconds(t) if !(t > 0.0 && t.is_finite()) => {
                Err(CoreError::InvalidConfig {
                    parameter: "cadence.every_seconds",
                    found: format!("{t}"),
                })
            }
            _ => Ok(()),
        }
    }
}

impl Default for Cadence {
    /// Re-solve every 16 reads.
    fn default() -> Self {
        Cadence::EveryReads(16)
    }
}

/// Hysteresis thresholds for convergence detection.
///
/// The estimate is declared *converged* after `hold` consecutive solves
/// each move the position by less than `enter_eps` meters, and declared
/// unconverged again only when a solve moves it by more than `exit_eps`
/// meters. Requiring `exit_eps > enter_eps` (strictly) is what prevents
/// flapping when the movement hovers at the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceConfig {
    /// Movement below this (meters) counts toward convergence.
    pub enter_eps: f64,
    /// Movement above this (meters) breaks convergence.
    pub exit_eps: f64,
    /// Consecutive sub-`enter_eps` solves required to declare convergence.
    pub hold: usize,
}

impl Default for ConvergenceConfig {
    /// 1 mm to enter, 5 mm to exit, held for 3 solves.
    fn default() -> Self {
        ConvergenceConfig {
            enter_eps: 1e-3,
            exit_eps: 5e-3,
            hold: 3,
        }
    }
}

impl ConvergenceConfig {
    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] unless
    /// `0 < enter_eps < exit_eps` (finite) and `hold >= 1`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.enter_eps > 0.0 && self.enter_eps.is_finite()) {
            return Err(CoreError::InvalidConfig {
                parameter: "convergence.enter_eps",
                found: format!("{}", self.enter_eps),
            });
        }
        if !(self.exit_eps > self.enter_eps && self.exit_eps.is_finite()) {
            return Err(CoreError::InvalidConfig {
                parameter: "convergence.exit_eps",
                found: format!("{} (must exceed enter_eps)", self.exit_eps),
            });
        }
        if self.hold == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "convergence.hold",
                found: "0".to_string(),
            });
        }
        Ok(())
    }
}

/// How cadence re-solves execute.
///
/// Both modes emit estimates at exactly the same ticks; they differ only
/// in how much work a tick does and in the floating-point tier of the
/// result (see `tests/stream_parity.rs` and DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ResolveMode {
    /// Replay the full window through the batch pipeline on every tick —
    /// O(window) per solve, bit-identical to the batch localizer.
    #[default]
    Replay,
    /// Patch persistent state with only the reads that entered/left since
    /// the last tick ([`lion_core::IncrementalState`]) — O(delta) per
    /// solve, within a documented 1e-6 of replay, falling back to a
    /// bit-exact replay deterministically (splices, evicted reference,
    /// non-linear solver, periodic re-anchor).
    Incremental,
}

impl ResolveMode {
    /// Stable label for metrics and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ResolveMode::Replay => "replay",
            ResolveMode::Incremental => "incremental",
        }
    }
}

/// Configuration for a [`crate::StreamLocalizer`].
///
/// Build with [`StreamConfig::builder`]; `Default` is the paper's solver
/// configuration over a 256-read window, re-solving every 16 reads.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Maximum reads retained by the sliding window.
    pub window_capacity: usize,
    /// Minimum reads in the window before the first solve is attempted.
    pub min_window_len: usize,
    /// Re-solve schedule.
    pub cadence: Cadence,
    /// Convergence hysteresis.
    pub convergence: ConvergenceConfig,
    /// The batch solver configuration replayed on every window solve.
    pub localizer: LocalizerConfig,
    /// 2D or 3D solve.
    pub space: Space,
    /// Replay vs incremental cadence re-solves.
    pub resolve_mode: ResolveMode,
    /// Optional stable identity for telemetry: the stream's series label
    /// in the hub's time-series store (`lion.stream.*{stream="<label>"}`)
    /// and its id in fleet health rollups. `None` falls back to the
    /// submission slot (`stream-<i>`).
    pub label: Option<String>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window_capacity: 256,
            min_window_len: 24,
            cadence: Cadence::default(),
            convergence: ConvergenceConfig::default(),
            localizer: LocalizerConfig::default(),
            space: Space::default(),
            resolve_mode: ResolveMode::default(),
            label: None,
        }
    }
}

impl StreamConfig {
    /// Starts a validating builder seeded with the defaults.
    ///
    /// # Example
    ///
    /// ```
    /// use lion_stream::{Cadence, StreamConfig};
    ///
    /// # fn main() -> Result<(), lion_core::CoreError> {
    /// let cfg = StreamConfig::builder()
    ///     .window_capacity(128)
    ///     .cadence(Cadence::EverySeconds(0.25))
    ///     .build()?;
    /// assert_eq!(cfg.window_capacity, 128);
    /// assert!(StreamConfig::builder().window_capacity(0).build().is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> StreamConfigBuilder {
        StreamConfigBuilder {
            config: StreamConfig::default(),
        }
    }

    /// Checks every invariant.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the offending parameter; also
    /// anything [`LocalizerConfig::validate`] rejects.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.window_capacity == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "window_capacity",
                found: "0".to_string(),
            });
        }
        if self.min_window_len < 3 {
            return Err(CoreError::InvalidConfig {
                parameter: "min_window_len",
                found: format!("{} (need at least 3 reads to solve)", self.min_window_len),
            });
        }
        if self.min_window_len > self.window_capacity {
            return Err(CoreError::InvalidConfig {
                parameter: "min_window_len",
                found: format!(
                    "{} (exceeds window_capacity {})",
                    self.min_window_len, self.window_capacity
                ),
            });
        }
        self.cadence.validate()?;
        self.convergence.validate()?;
        self.localizer.validate()
    }
}

/// Validating builder for [`StreamConfig`], created by
/// [`StreamConfig::builder`].
#[derive(Debug, Clone)]
pub struct StreamConfigBuilder {
    config: StreamConfig,
}

impl StreamConfigBuilder {
    /// Sets the sliding-window capacity (reads).
    pub fn window_capacity(mut self, capacity: usize) -> Self {
        self.config.window_capacity = capacity;
        self
    }

    /// Sets the minimum window length before the first solve.
    pub fn min_window_len(mut self, len: usize) -> Self {
        self.config.min_window_len = len;
        self
    }

    /// Sets the re-solve cadence.
    pub fn cadence(mut self, cadence: Cadence) -> Self {
        self.config.cadence = cadence;
        self
    }

    /// Sets the convergence hysteresis.
    pub fn convergence(mut self, convergence: ConvergenceConfig) -> Self {
        self.config.convergence = convergence;
        self
    }

    /// Sets the batch solver configuration used per window solve.
    pub fn localizer(mut self, localizer: LocalizerConfig) -> Self {
        self.config.localizer = localizer;
        self
    }

    /// Selects 2D or 3D solving.
    pub fn space(mut self, space: Space) -> Self {
        self.config.space = space;
        self
    }

    /// Selects replay vs incremental cadence re-solves.
    pub fn resolve_mode(mut self, mode: ResolveMode) -> Self {
        self.config.resolve_mode = mode;
        self
    }

    /// Names the stream for telemetry (time-series labels, fleet health
    /// rollup ids). Unnamed streams report as `stream-<slot>`.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.config.label = Some(label.into());
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// See [`StreamConfig::validate`].
    pub fn build(self) -> Result<StreamConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        StreamConfig::default().validate().expect("default valid");
    }

    #[test]
    fn resolve_mode_round_trips_through_builder() {
        assert_eq!(StreamConfig::default().resolve_mode, ResolveMode::Replay);
        let cfg = StreamConfig::builder()
            .resolve_mode(ResolveMode::Incremental)
            .build()
            .expect("incremental mode is valid with the default localizer");
        assert_eq!(cfg.resolve_mode, ResolveMode::Incremental);
        assert_eq!(cfg.resolve_mode.label(), "incremental");
        assert_eq!(ResolveMode::Replay.label(), "replay");
    }

    #[test]
    fn label_round_trips_through_builder() {
        assert_eq!(StreamConfig::default().label, None);
        let cfg = StreamConfig::builder().label("portal-3").build().unwrap();
        assert_eq!(cfg.label.as_deref(), Some("portal-3"));
    }

    #[test]
    fn invalid_parameters_are_named() {
        let cases: Vec<(StreamConfig, &str)> = vec![
            (
                StreamConfig {
                    window_capacity: 0,
                    ..StreamConfig::default()
                },
                "window_capacity",
            ),
            (
                StreamConfig {
                    min_window_len: 2,
                    ..StreamConfig::default()
                },
                "min_window_len",
            ),
            (
                StreamConfig {
                    min_window_len: 999,
                    ..StreamConfig::default()
                },
                "min_window_len",
            ),
            (
                StreamConfig {
                    cadence: Cadence::EveryReads(0),
                    ..StreamConfig::default()
                },
                "cadence.every_reads",
            ),
            (
                StreamConfig {
                    cadence: Cadence::EverySeconds(-1.0),
                    ..StreamConfig::default()
                },
                "cadence.every_seconds",
            ),
            (
                StreamConfig {
                    convergence: ConvergenceConfig {
                        enter_eps: 0.0,
                        ..ConvergenceConfig::default()
                    },
                    ..StreamConfig::default()
                },
                "convergence.enter_eps",
            ),
            (
                StreamConfig {
                    convergence: ConvergenceConfig {
                        enter_eps: 1e-3,
                        exit_eps: 1e-3,
                        hold: 3,
                    },
                    ..StreamConfig::default()
                },
                "convergence.exit_eps",
            ),
            (
                StreamConfig {
                    convergence: ConvergenceConfig {
                        hold: 0,
                        ..ConvergenceConfig::default()
                    },
                    ..StreamConfig::default()
                },
                "convergence.hold",
            ),
        ];
        for (config, expected) in cases {
            match config.validate() {
                Err(CoreError::InvalidConfig { parameter, .. }) => {
                    assert_eq!(parameter, expected);
                }
                other => panic!("expected InvalidConfig({expected}), got {other:?}"),
            }
        }
    }
}
