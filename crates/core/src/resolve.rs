//! O(delta) incremental preprocessing for streaming re-solves.
//!
//! The replay path ([`crate::Localizer::locate_window_in`]) re-runs the
//! whole unwrap → smooth → prepare → pairs → solve pipeline over the
//! full [`SlidingWindow`] on every cadence tick, even when only a
//! handful of reads entered or left since the last tick.
//! [`IncrementalState`] instead mirrors the window's preprocessed state
//! across ticks and patches only what the slide changed:
//!
//! - the **unwrap chain** is continued from the last surviving sample
//!   ([`crate::preprocess::unwrap_step`]) instead of re-anchoring at the
//!   front — the front samples' unwrapped values are never recomputed,
//!   so a slide touches O(appended) phases;
//! - the **smoothing** is recomputed only over the indices whose
//!   moving-average span changed ([`crate::preprocess::smoothed_at`]):
//!   a half-window at the new front (when reads were evicted) and a
//!   half-window plus the appended reads at the back, and so are their
//!   reference deltas;
//! - the **frame** (centroid + principal axes) is frozen between
//!   resyncs: a full-rank radical-line solve is frame-invariant in exact
//!   arithmetic, so solving in a slightly stale frame moves the world
//!   position only at floating-point order;
//! - the **reference sample** is pinned (absolute index chosen at the
//!   last resync): shifting every delta distance by a constant leaves
//!   the solved position invariant, so the reference is only abandoned —
//!   deterministically, via resync — when it is evicted or its smoothed
//!   value changes.
//!
//! The mirrors live in a `Prepared`, the state the batch path's prepare
//! step fills, and every delta tick ends in the batch path's own
//! `solve_prepared`: the positions are re-projected onto the frozen
//! frame, then pairs → rows → Gram → IRLS → σ̂ run exactly as on a
//! replay tick. There is one solve path, not a stream-side copy of it.
//!
//! # Parity tiers
//!
//! A **resync tick literally runs the replay path**, so its estimate is
//! bit-identical (`==`) to the oracle. A **delta tick** agrees with the
//! oracle to a documented 1e-6: the continued unwrap chain and the
//! direct-summation re-smoothing differ from the batch arithmetic at
//! floating-point association order, and the frozen frame / pinned
//! reference add further fp-order (but not model-order) deviations.
//! From the deltas on, both ticks run the same code, for every
//! [`crate::Weighting`]. DESIGN.md §14 documents each term.
//!
//! # Deterministic fallback
//!
//! Every fallback-to-replay trigger is a pure function of the read
//! sequence (splice flags, slide counts, the reference's fate, solve
//! errors) — never of wall-clock timing — so a stream re-solved on any
//! worker count takes replay and delta ticks at exactly the same points.

use lion_linalg::stats;

use crate::error::CoreError;
use crate::localizer::{solve_prepared, Estimate, Localizer, Prepared};
use crate::pairs::PairStrategy;
use crate::preprocess::{self, PositionLanes};
use crate::window::SlidingWindow;
use crate::workspace::Workspace;

/// Delta ticks between forced resyncs. Bounds how far the frozen frame
/// and the continued unwrap chain can wander from the replay oracle
/// before the state is re-anchored bit-exactly.
pub const RESYNC_EVERY: u32 = 64;

/// Which path produced a streaming estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvePath {
    /// The full O(window) replay pipeline ran (resync or fallback);
    /// bit-identical to the batch solver on the window contents.
    Replayed,
    /// The O(delta) incremental preprocessing ran, then the batch solve;
    /// within the documented 1e-6 of the replay oracle.
    Incremental,
}

/// Persistent per-stream state for O(delta) cadence re-solves.
///
/// Owned by the caller (one per stream), built around the stream's
/// [`Localizer`], and fed the stream's [`SlidingWindow`] on every
/// cadence tick via [`IncrementalState::solve_window`]. The state
/// decides per tick whether the slide since the last call is patchable;
/// when it is not — splice, too-large delta, evicted or re-smoothed
/// reference, pinned reference index or non-interval pairing,
/// lower-dimension geometry, a failed delta solve, or the periodic
/// [`RESYNC_EVERY`] re-anchor — it runs the localizer's replay path and
/// rebuilds itself from the window.
#[derive(Debug, Clone)]
pub struct IncrementalState {
    /// The localizer every tick solves with; its replay path
    /// ([`Localizer::locate_window_in`]) is the oracle.
    localizer: Localizer,
    /// Whether the mirrors below describe the window as of the last tick.
    valid: bool,
    ticks_since_resync: u32,
    /// Absolute stream index of the front sample (advances by the evicted
    /// count every tick; the labels are arbitrary but tick-consistent).
    front_abs: u64,
    /// Absolute index of the pinned reference sample.
    ref_abs: u64,
    // Window mirrors, index-aligned with the window's samples: the
    // positions as coordinate lanes, then the phase stages.
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    wrapped: Vec<f64>,
    unwrapped: Vec<f64>,
    smoothed: Vec<f64>,
    smooth_prefix: Vec<f64>,
    /// What the solve reads: the frame frozen at the last resync, the
    /// pinned reference as an index into the mirrors, the deltas against
    /// it and the frame coordinates of the mirrored positions.
    prepared: Prepared,
    rows_delta: u64,
    rebuilds: u64,
    delta_solves: u64,
}

impl IncrementalState {
    /// An empty (invalid) state solving with `localizer`; the first
    /// [`IncrementalState::solve_window`] call resyncs.
    pub fn new(localizer: Localizer) -> Self {
        IncrementalState {
            localizer,
            valid: false,
            ticks_since_resync: 0,
            front_abs: 0,
            ref_abs: 0,
            xs: Vec::new(),
            ys: Vec::new(),
            zs: Vec::new(),
            wrapped: Vec::new(),
            unwrapped: Vec::new(),
            smoothed: Vec::new(),
            smooth_prefix: Vec::new(),
            prepared: Prepared::default(),
            rows_delta: 0,
            rebuilds: 0,
            delta_solves: 0,
        }
    }

    /// Forces the next tick to replay and rebuild (e.g. after the caller
    /// mutated the window outside the slide contract).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Cumulative normal-equation rows built by delta ticks: each delta
    /// tick builds every row of its window's system, one per pair.
    pub fn rows_delta(&self) -> u64 {
        self.rows_delta
    }

    /// Cumulative full rebuilds (resync/fallback replays that re-anchored
    /// the state).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Cumulative delta (incremental) solves performed.
    pub fn delta_solves(&self) -> u64 {
        self.delta_solves
    }

    /// Solves the window, incrementally when the slide since the last
    /// call permits, otherwise via a bit-exact replay that re-anchors the
    /// state. Consumes the window's pending [`crate::WindowDelta`].
    ///
    /// # Errors
    ///
    /// Exactly the replay path's errors
    /// ([`Localizer::locate_window_in`]): any tick whose incremental
    /// patch cannot proceed — including a window too small or too
    /// degenerate to solve — falls back to replay, and a failed replay
    /// invalidates the state.
    pub fn solve_window(
        &mut self,
        window: &mut SlidingWindow,
        ws: &mut Workspace,
    ) -> Result<(Estimate, ResolvePath), CoreError> {
        let delta = window.take_slide_delta();
        // `valid` implies a delta-capable configuration: `resync` only
        // sets it for one.
        let eligible = self.valid && !delta.spliced && self.ticks_since_resync < RESYNC_EVERY;
        self.front_abs += delta.evicted as u64;
        if eligible {
            if let Some(est) = self.delta_tick(delta.evicted, delta.appended, window, ws) {
                self.ticks_since_resync += 1;
                self.delta_solves += 1;
                return Ok((est, ResolvePath::Incremental));
            }
        }
        let est = self.resync(window, ws)?;
        Ok((est, ResolvePath::Replayed))
    }

    /// One incremental tick. Returns `None` on any fallback trigger; the
    /// state may then be partially updated, which is fine — the resync
    /// that follows rebuilds every mirror from the window.
    fn delta_tick(
        &mut self,
        evicted: usize,
        appended: usize,
        window: &SlidingWindow,
        ws: &mut Workspace,
    ) -> Option<Estimate> {
        let config = self.localizer.config();
        let old_len = self.xs.len();
        let n_new = window.len();
        // Slide-model consistency: the window must equal the mirror with
        // `evicted` reads dropped at the front and `appended` at the back.
        if evicted > old_len || n_new != old_len - evicted + appended {
            return None;
        }
        let survivors = old_len - evicted;
        if survivors == 0 || evicted + appended >= n_new {
            return None; // delta as large as the window: replay is the honest path
        }
        if n_new < 4 {
            return None; // below any space's sample floor — let replay error
        }
        // Pinned reference must survive untouched.
        if self.ref_abs < self.front_abs {
            return None;
        }
        let ref_rel = (self.ref_abs - self.front_abs) as usize;
        if ref_rel >= n_new {
            return None;
        }
        let w = config.smoothing_window;
        let (half, odd) = (w / 2, w % 2);
        // Which (new-relative) indices had their moving-average span
        // changed by the slide: a front half-window when reads left, the
        // tail whose span reaches past the old end when reads arrived.
        let keep_lo = if evicted > 0 { half as i64 } else { 0 };
        let keep_hi = if appended > 0 {
            survivors as i64 - half as i64 - odd as i64
        } else {
            survivors as i64 - 1
        };
        if (ref_rel as i64) < keep_lo || (ref_rel as i64) > keep_hi {
            return None; // reference re-smoothed: every delta shifts → resync
        }
        // Slide the mirrors.
        let deltas = &mut self.prepared.deltas;
        self.xs.drain(..evicted);
        self.ys.drain(..evicted);
        self.zs.drain(..evicted);
        self.wrapped.drain(..evicted);
        self.unwrapped.drain(..evicted);
        self.smoothed.drain(..evicted);
        deltas.drain(..evicted);
        // Cheap identity check that the surviving front really is the
        // window's front (the splice flag covers reorderings; this guards
        // the bookkeeping itself).
        let front = window.sample(0)?;
        if front.position != PositionLanes::new(&self.xs, &self.ys, &self.zs).point(0)
            || front.wrapped != self.wrapped[0]
        {
            return None;
        }
        // Append the new tail, continuing the unwrap chain.
        for s in window.samples().skip(survivors) {
            let prev_w = *self.wrapped.last()?;
            let prev_u = *self.unwrapped.last()?;
            self.xs.push(s.position.x);
            self.ys.push(s.position.y);
            self.zs.push(s.position.z);
            self.wrapped.push(s.wrapped);
            self.unwrapped
                .push(preprocess::unwrap_step(prev_w, prev_u, s.wrapped));
        }
        if self.xs.len() != n_new {
            return None;
        }
        // Re-smooth only the changed spans.
        self.smoothed.resize(n_new, 0.0);
        deltas.resize(n_new, 0.0);
        let scale = config.wavelength / (4.0 * std::f64::consts::PI);
        let theta_r = self.smoothed[ref_rel];
        let lo_end = (keep_lo.max(0) as usize).min(n_new);
        let hi_start = ((keep_hi + 1).max(0) as usize).min(n_new);
        for r in (0..lo_end).chain(hi_start..n_new) {
            self.smoothed[r] = preprocess::smoothed_at(&self.unwrapped, w, r);
            deltas[r] = scale * (self.smoothed[r] - theta_r);
        }
        self.prepared.reference = ref_rel;
        let lanes = PositionLanes::new(&self.xs, &self.ys, &self.zs);
        self.prepared.project(lanes);
        let est = solve_prepared(lanes, &self.prepared, config, ws).ok()?;
        self.rows_delta += est.equation_count as u64;
        Some(est)
    }

    /// Replays the window (bit-exact oracle path), then rebuilds every
    /// mirror so the next tick can go incremental. Leaves the state
    /// invalid — forcing replay on every subsequent tick — when the
    /// configuration or geometry cannot support delta patches (pinned
    /// reference index, non-interval pairing, lower-dimension
    /// trajectory).
    fn resync(
        &mut self,
        window: &mut SlidingWindow,
        ws: &mut Workspace,
    ) -> Result<Estimate, CoreError> {
        self.valid = false;
        let est = self.localizer.locate_window_in(window, ws)?;
        let config = self.localizer.config();
        self.rebuilds += 1;
        self.ticks_since_resync = 0;
        if config.reference_index.is_some()
            || !matches!(config.pair_strategy, PairStrategy::Interval { .. })
        {
            return Ok(est);
        }
        // The replay just framed these very positions; its frame is the
        // one to freeze.
        let frame = ws.prepared.frame;
        if frame.spanned < frame.dims {
            // Lower-dimension recovery is replay-only (the discriminant
            // geometry is too sensitive to freeze a frame across slides).
            return Ok(est);
        }
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        self.wrapped.clear();
        self.unwrapped.clear();
        for s in window.samples() {
            self.xs.push(s.position.x);
            self.ys.push(s.position.y);
            self.zs.push(s.position.z);
            self.wrapped.push(s.wrapped);
            let u = match self.unwrapped.last() {
                Some(&prev_u) => {
                    let prev_w = self.wrapped[self.wrapped.len() - 2];
                    preprocess::unwrap_step(prev_w, prev_u, s.wrapped)
                }
                None => s.wrapped,
            };
            self.unwrapped.push(u);
        }
        stats::moving_average_into(
            &self.unwrapped,
            config.smoothing_window,
            &mut self.smooth_prefix,
            &mut self.smoothed,
        );
        let ref_rel = window.len() / 2;
        self.ref_abs = self.front_abs + ref_rel as u64;
        let scale = config.wavelength / (4.0 * std::f64::consts::PI);
        let theta_r = self.smoothed[ref_rel];
        let prepared = &mut self.prepared;
        prepared.frame = frame;
        prepared.reference = ref_rel;
        prepared.deltas.clear();
        prepared
            .deltas
            .extend(self.smoothed.iter().map(|t| scale * (t - theta_r)));
        self.valid = true;
        Ok(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localizer::{LocalizerConfig, SolveSpace};
    use crate::window::SlidingWindow;
    use lion_geom::Point3;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn phase_of(target: Point3, p: Point3) -> f64 {
        (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU)
    }

    /// Circle-scan reads around the origin (full-rank 2D geometry).
    fn circle_reads(target: Point3, n: usize) -> Vec<(f64, Point3, f64)> {
        (0..n)
            .map(|i| {
                let a = i as f64 * TAU / 120.0;
                let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
                (i as f64 * 0.01, p, phase_of(target, p))
            })
            .collect()
    }

    fn config() -> LocalizerConfig {
        LocalizerConfig {
            smoothing_window: 9,
            ..LocalizerConfig::paper()
        }
    }

    #[test]
    fn first_tick_replays_then_deltas_follow() {
        let target = Point3::new(1.0, 0.4, 0.0);
        let reads = circle_reads(target, 400);
        let mut window = SlidingWindow::new(128).unwrap();
        let mut ws = Workspace::new();
        let localizer = Localizer::new(config(), SolveSpace::TwoD);
        let mut state = IncrementalState::new(localizer.clone());
        for r in &reads[..128] {
            window.push(r.0, r.1, r.2);
        }
        let (est, path) = state.solve_window(&mut window, &mut ws).unwrap();
        assert_eq!(path, ResolvePath::Replayed);
        assert!(est.distance_error(target) < 0.02);
        // Slide by 16 and re-solve: must go incremental and stay close to
        // a fresh replay of the same window.
        let mut incremental_ticks = 0;
        for chunk in reads[128..].chunks(16) {
            for r in chunk {
                window.push(r.0, r.1, r.2);
            }
            let (est, path) = state.solve_window(&mut window, &mut ws).unwrap();
            let oracle = localizer.locate_window_in(&window, &mut ws).unwrap();
            assert!(
                est.position.distance(oracle.position) < 1e-6,
                "path {path:?}: {} vs oracle {}",
                est.position,
                oracle.position
            );
            if path == ResolvePath::Incremental {
                incremental_ticks += 1;
            }
        }
        assert!(
            incremental_ticks >= 10,
            "expected mostly delta ticks, got {incremental_ticks}"
        );
        assert!(state.rows_delta() > 0);
        assert!(state.delta_solves() >= incremental_ticks);
    }

    #[test]
    fn splice_forces_replay_tick() {
        let target = Point3::new(0.8, 0.6, 0.0);
        let reads = circle_reads(target, 300);
        let mut window = SlidingWindow::new(128).unwrap();
        let mut ws = Workspace::new();
        let localizer = Localizer::new(config(), SolveSpace::TwoD);
        let mut state = IncrementalState::new(localizer.clone());
        for r in &reads[..160] {
            window.push(r.0, r.1, r.2);
        }
        state.solve_window(&mut window, &mut ws).unwrap();
        // Deliver a chunk with one read held back, then spliced late.
        for r in &reads[161..180] {
            window.push(r.0, r.1, r.2);
        }
        let held = &reads[160];
        window.push(held.0, held.1, held.2); // lands mid-window → splice
        let (est, path) = state.solve_window(&mut window, &mut ws).unwrap();
        assert_eq!(path, ResolvePath::Replayed);
        let oracle = localizer.locate_window_in(&window, &mut ws).unwrap();
        assert_eq!(est, oracle, "replay tick must be bit-identical");
        // Next in-order chunk goes incremental again.
        for r in &reads[180..200] {
            window.push(r.0, r.1, r.2);
        }
        let (_, path) = state.solve_window(&mut window, &mut ws).unwrap();
        assert_eq!(path, ResolvePath::Incremental);
    }

    #[test]
    fn periodic_resync_reanchors() {
        let target = Point3::new(1.1, 0.1, 0.0);
        let reads = circle_reads(target, 128 + (RESYNC_EVERY as usize + 4) * 4);
        let mut window = SlidingWindow::new(128).unwrap();
        let mut ws = Workspace::new();
        let localizer = Localizer::new(config(), SolveSpace::TwoD);
        let mut state = IncrementalState::new(localizer.clone());
        for r in &reads[..128] {
            window.push(r.0, r.1, r.2);
        }
        state.solve_window(&mut window, &mut ws).unwrap();
        let mut replays = 0;
        for chunk in reads[128..].chunks(4) {
            for r in chunk {
                window.push(r.0, r.1, r.2);
            }
            let (_, path) = state.solve_window(&mut window, &mut ws).unwrap();
            if path == ResolvePath::Replayed {
                replays += 1;
            }
        }
        // More ticks than RESYNC_EVERY ran, so at least one periodic
        // re-anchor must have fired.
        assert!(replays >= 1, "expected a periodic resync");
        assert!(state.rebuilds() >= 2); // initial + periodic
    }

    #[test]
    fn invalidate_forces_replay() {
        let target = Point3::new(0.7, 0.7, 0.0);
        let reads = circle_reads(target, 200);
        let mut window = SlidingWindow::new(96).unwrap();
        let mut ws = Workspace::new();
        let localizer = Localizer::new(config(), SolveSpace::TwoD);
        let mut state = IncrementalState::new(localizer.clone());
        for r in &reads[..120] {
            window.push(r.0, r.1, r.2);
        }
        state.solve_window(&mut window, &mut ws).unwrap();
        for r in &reads[120..136] {
            window.push(r.0, r.1, r.2);
        }
        state.invalidate();
        let (_, path) = state.solve_window(&mut window, &mut ws).unwrap();
        assert_eq!(path, ResolvePath::Replayed);
    }
}
