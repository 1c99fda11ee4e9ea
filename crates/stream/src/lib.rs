//! # lion-stream
//!
//! Online (streaming) phase calibration for the LION reproduction
//! (ICDCS 2022). The batch pipeline ([`lion_core`]) answers *"given this
//! whole trace, where is the antenna?"*; this crate answers the deployed
//! question — *"the reader is producing reads **right now**; where is the
//! antenna, and has the answer settled?"* — one read at a time, in
//! bounded memory, forever.
//!
//! Pieces:
//!
//! - [`StreamRead`] — the input record `(timestamp, position, phase,
//!   rssi, channel)`, convertible from [`lion_sim::PhaseSample`].
//! - [`StreamLocalizer`] — the pipeline: a bounded, time-ordered
//!   [`lion_core::SlidingWindow`] of the newest reads (out-of-order
//!   arrivals are spliced into their time slot, reads older than a full
//!   window retains are rejected), re-solved on a configurable
//!   [`Cadence`] — every *N* reads or every *T* seconds of *stream*
//!   time — emitting [`StreamEstimate`]s with hysteresis-based
//!   convergence detection ([`ConvergenceConfig`]).
//! - [`Ingress`] — the bounded hand-off queue used by
//!   `lion_engine`'s stream mode: fixed capacity, oldest-drop on
//!   overflow, deterministic and counted.
//!
//! Guarantees the tests pin:
//!
//! 1. **Bit-identical to batch** (in the default [`ResolveMode::Replay`]).
//!    A solve replays the window's wrapped phases through the exact same
//!    unwrap → smooth → pair → solve path as
//!    [`lion_core::Localizer::locate`] (in the configured [`Space`], the
//!    core [`lion_core::SolveSpace`]), so a streaming estimate on a
//!    static window equals the batch answer **bit for bit** — including
//!    under shuffled arrival, because insertion is timestamp-sorted
//!    (`tests/stream_parity.rs`).
//! 2. **O(delta) re-solves on demand.** [`ResolveMode::Incremental`]
//!    patches persistent preprocessing state
//!    ([`lion_core::IncrementalState`]) with only the reads that
//!    entered/left since the previous tick, then solves the window's
//!    system the way replay does. Fallback
//!    and resync ticks literally run the replay path (bit-identical);
//!    delta ticks agree with replay to a documented 1e-6, and every
//!    fallback trigger is a pure function of the read sequence, so the
//!    replay/delta tick pattern is identical on any worker count.
//! 3. **O(window) memory.** Ring buffer and scratch allocations are made
//!    once; million-read streams do not grow them.
//!
//! Observability: solves run under a `lion.stream.solve` span; the global
//! [`lion_obs`] registry collects [`SOLVE_HISTOGRAM`] (solve latency) and
//! [`STREAM_LAG_HISTOGRAM`] (arrival → estimate-emission lag, where a
//! queued read's arrival is its burst's delivery).
//!
//! # Example
//!
//! ```
//! use lion_stream::{Cadence, StreamConfig, StreamLocalizer, StreamRead};
//! use lion_geom::Point3;
//! use std::f64::consts::{PI, TAU};
//!
//! # fn main() -> Result<(), lion_core::CoreError> {
//! let antenna = Point3::new(1.2, 0.4, 0.0);
//! let config = StreamConfig::builder()
//!     .window_capacity(128)
//!     .cadence(Cadence::EveryReads(25))
//!     .build()?;
//! let lambda = config.localizer.wavelength;
//! let mut stream = StreamLocalizer::new(config)?;
//! let mut last = None;
//! for i in 0..300 {
//!     // Circular scan, 120 reads per revolution.
//!     let a = i as f64 * TAU / 120.0;
//!     let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
//!     let read = StreamRead {
//!         time: i as f64 * 0.01,
//!         position: p,
//!         phase: (4.0 * PI * antenna.distance(p) / lambda) % TAU,
//!         ..StreamRead::default()
//!     };
//!     if let Some(est) = stream.push(read)? {
//!         last = Some(est);
//!     }
//! }
//! assert!(last.expect("estimates emitted").position.distance(antenna) < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod convergence;
mod estimator;
mod ingress;
mod read;

pub use config::{
    Cadence, ConvergenceConfig, ResolveMode, Space, StreamConfig, StreamConfigBuilder,
};
pub use convergence::ConvergenceTracker;
pub use estimator::{StreamEstimate, StreamLocalizer, SOLVE_HISTOGRAM, STREAM_LAG_HISTOGRAM};
pub use ingress::Ingress;
pub use read::StreamRead;
