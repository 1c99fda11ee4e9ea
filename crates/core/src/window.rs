//! Bounded-memory sliding windows over a live read stream.
//!
//! Offline entry points ([`crate::Localizer::locate`]) consume a whole
//! trace at once. A deployed reader instead produces one read at a time,
//! indefinitely — the online pipeline keeps only the most recent reads in
//! a [`SlidingWindow`]: a time-ordered ring buffer with a hard capacity,
//! so an arbitrary-length trace runs in O(window) memory.
//!
//! The window stores each sample's **wrapped** phase exactly as the
//! reader reported it and nothing derived from it, so an in-order push
//! onto a full window is O(1): pop the front, push the back, bump the
//! counters. Unwrapping belongs to the solves:
//! [`crate::Localizer::locate_window_in`] replays the window through the
//! exact same unwrap → smooth → pairs → solve path as the batch
//! `locate`, so a streaming solve on a static window is
//! **bit-identical** to the batch solver on the same reads.
//! That full replay remains the parity oracle; an
//! [`crate::IncrementalState`] can instead consume the window's
//! [`WindowDelta`] (see [`SlidingWindow::take_slide_delta`]) to re-solve
//! in O(delta) per tick — see DESIGN.md §"Streaming calibration" and
//! §"Incremental re-solve" for the numerical tradeoff.
//!
//! Out-of-order arrival is handled by timestamp-sorted insertion: a late
//! read is spliced into its time slot (so the window always equals the
//! re-sorted trace) at the cost of one `VecDeque::insert` shift, and a
//! read older than everything a full window retains is rejected as too
//! late. A read with a non-finite time, position or phase is rejected on
//! its own count.

use std::collections::VecDeque;

use lion_geom::Point3;

use crate::error::CoreError;

/// One read held by a [`SlidingWindow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Read timestamp (seconds, the stream's own clock).
    pub time: f64,
    /// Tag position at the moment of the read.
    pub position: Point3,
    /// The phase exactly as reported, in `[0, 2π)` — what solves consume.
    pub wrapped: f64,
}

/// What [`SlidingWindow::push`] did with a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Inserted; the window had room.
    Inserted,
    /// Inserted; the oldest sample was evicted to make room.
    Evicted,
    /// Rejected: the read is older than everything a full window retains.
    TooLate,
    /// Rejected: the read's time, position or phase is NaN or infinite.
    NonFinite,
}

/// How the window's contents changed since the last
/// [`SlidingWindow::take_slide_delta`] call — the contract an
/// incremental re-solver consumes instead of replaying the whole window.
///
/// The common streaming shape is pure sliding: `evicted` reads left the
/// front, `appended` reads joined the back, nothing moved in between.
/// `spliced` flags everything else — an out-of-order read inserted into
/// the middle, or a [`SlidingWindow::clear`] — after which positional
/// bookkeeping from the previous tick is void and the consumer must fall
/// back to a full replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowDelta {
    /// Reads accepted since the last delta take (all at the back unless
    /// `spliced`).
    pub appended: usize,
    /// Reads evicted from the front since the last delta take.
    pub evicted: usize,
    /// Set when an accepted read landed anywhere but the back, or the
    /// window was cleared: the slide model above does not hold.
    pub spliced: bool,
}

/// A bounded, time-ordered ring buffer of phase reads.
///
/// It holds the reads as reported, the eviction and rejection counters
/// and the pending [`WindowDelta`]. It derives nothing per read, so a
/// push costs the same at any capacity.
///
/// # Example
///
/// ```
/// use lion_core::window::{PushOutcome, SlidingWindow};
/// use lion_geom::Point3;
///
/// # fn main() -> Result<(), lion_core::CoreError> {
/// let mut w = SlidingWindow::new(3)?;
/// for i in 0..5 {
///     w.push(i as f64, Point3::new(i as f64 * 0.01, 0.0, 0.0), 0.1 * i as f64);
/// }
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.evicted(), 2);
/// // A read older than the retained span of a full window is rejected.
/// assert_eq!(w.push(0.5, Point3::ORIGIN, 0.0), PushOutcome::TooLate);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    samples: VecDeque<WindowSample>,
    capacity: usize,
    evicted: u64,
    rejected_late: u64,
    rejected_non_finite: u64,
    pending: WindowDelta,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` reads.
    ///
    /// The backing buffer is allocated once, up front; pushes never
    /// reallocate, which is what keeps unbounded streams in O(window)
    /// memory.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `capacity` is zero.
    pub fn new(capacity: usize) -> Result<Self, CoreError> {
        if capacity == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "window_capacity",
                found: "0".to_string(),
            });
        }
        Ok(SlidingWindow {
            samples: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
            rejected_late: 0,
            rejected_non_finite: 0,
            pending: WindowDelta::default(),
        })
    }

    /// Maximum number of reads retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocated slots of the backing buffer — exposed so tests can pin
    /// the O(window) memory guarantee (it must not grow after warm-up).
    pub fn backing_capacity(&self) -> usize {
        self.samples.capacity()
    }

    /// Reads currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no reads are held.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns `true` when the window is at capacity (pushes evict).
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.capacity
    }

    /// Total reads evicted to make room since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total reads rejected as too late since construction.
    pub fn rejected_late(&self) -> u64 {
        self.rejected_late
    }

    /// Total reads rejected for a non-finite field since construction.
    pub fn rejected_non_finite(&self) -> u64 {
        self.rejected_non_finite
    }

    /// Time span covered by the window (newest − oldest timestamp), the
    /// online analogue of the paper's *scanning range*; 0 when fewer than
    /// two reads are held.
    pub fn span(&self) -> f64 {
        match (self.samples.front(), self.samples.back()) {
            (Some(a), Some(b)) => b.time - a.time,
            _ => 0.0,
        }
    }

    /// The held samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &WindowSample> {
        self.samples.iter()
    }

    /// The sample at index `i` (0 = oldest), or `None` past the end.
    pub fn sample(&self, i: usize) -> Option<&WindowSample> {
        self.samples.get(i)
    }

    /// Returns the changes accumulated since the previous call and resets
    /// the accounting, so consecutive calls describe disjoint spans of
    /// stream history. A fresh window reports an all-zero delta.
    ///
    /// Rejected reads ([`PushOutcome::TooLate`],
    /// [`PushOutcome::NonFinite`]) never appear in a delta — they did not
    /// change the window.
    pub fn take_slide_delta(&mut self) -> WindowDelta {
        std::mem::take(&mut self.pending)
    }

    /// Inserts a read in timestamp order, evicting the oldest read when
    /// full. A read with a non-finite field is rejected as
    /// [`PushOutcome::NonFinite`], one older than everything a full
    /// window retains as [`PushOutcome::TooLate`]. Ties insert after
    /// existing equal timestamps, so in-order delivery is never
    /// reordered.
    pub fn push(&mut self, time: f64, position: Point3, wrapped: f64) -> PushOutcome {
        if !time.is_finite() || !position.is_finite() || !wrapped.is_finite() {
            self.rejected_non_finite += 1;
            return PushOutcome::NonFinite;
        }
        let mut outcome = PushOutcome::Inserted;
        if self.is_full() {
            if let Some(front) = self.samples.front() {
                if time < front.time {
                    self.rejected_late += 1;
                    return PushOutcome::TooLate;
                }
            }
            // Evict BEFORE inserting so the backing buffer never exceeds
            // `capacity` elements and therefore never reallocates.
            self.samples.pop_front();
            self.evicted += 1;
            self.pending.evicted += 1;
            outcome = PushOutcome::Evicted;
        }
        // Insertion index: after every sample with time <= new time.
        // Streams are overwhelmingly in-order, so scan from the back.
        let mut idx = self.samples.len();
        while idx > 0 && self.samples[idx - 1].time > time {
            idx -= 1;
        }
        self.pending.appended += 1;
        if idx < self.samples.len() {
            self.pending.spliced = true;
        }
        self.samples.insert(
            idx,
            WindowSample {
                time,
                position,
                wrapped,
            },
        );
        outcome
    }

    /// Writes the window's `(position, wrapped phase)` measurements —
    /// oldest first — into `out` (cleared first). This is exactly the
    /// list the batch entry points accept, which is what makes streaming
    /// solves bit-identical to [`crate::Localizer::locate`] on the same
    /// window.
    pub fn write_measurements_into(&self, out: &mut Vec<(Point3, f64)>) {
        out.clear();
        out.extend(self.samples.iter().map(|s| (s.position, s.wrapped)));
    }

    /// Drops every held read (counters are kept). The pending
    /// [`WindowDelta`] is marked spliced: positional bookkeeping from
    /// before the clear no longer describes the window.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.pending.spliced = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn p(x: f64) -> Point3 {
        Point3::new(x, 0.0, 0.0)
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(
            SlidingWindow::new(0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn push_evicts_oldest_beyond_capacity() {
        let mut w = SlidingWindow::new(4).unwrap();
        for i in 0..10 {
            let out = w.push(i as f64, p(i as f64), 0.0);
            if i < 4 {
                assert_eq!(out, PushOutcome::Inserted);
            } else {
                assert_eq!(out, PushOutcome::Evicted);
            }
        }
        assert_eq!(w.len(), 4);
        assert_eq!(w.evicted(), 6);
        let times: Vec<f64> = w.samples().map(|s| s.time).collect();
        assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn out_of_order_insertion_sorts_by_time() {
        let mut w = SlidingWindow::new(8).unwrap();
        for t in [0.0, 3.0, 1.0, 2.0, 5.0, 4.0] {
            w.push(t, p(t), 0.0);
        }
        let times: Vec<f64> = w.samples().map(|s| s.time).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn too_late_rejected_only_when_full() {
        let mut w = SlidingWindow::new(3).unwrap();
        for t in [5.0, 6.0] {
            w.push(t, p(t), 0.0);
        }
        // Not full: an older read is fine.
        assert_eq!(w.push(1.0, p(1.0), 0.0), PushOutcome::Inserted);
        // Full: older than the retained front is rejected.
        assert_eq!(w.push(0.5, p(0.5), 0.0), PushOutcome::TooLate);
        assert_eq!(w.rejected_late(), 1);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn non_finite_reads_rejected_apart_from_late_ones() {
        let mut w = SlidingWindow::new(3).unwrap();
        w.push(1.0, p(1.0), 0.5);
        let before: Vec<WindowSample> = w.samples().copied().collect();
        w.take_slide_delta();
        let mut rejected = 0;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let reads = [
                (bad, p(2.0), 0.5),
                (2.0, Point3::new(bad, 0.0, 0.0), 0.5),
                (2.0, Point3::new(2.0, bad, 0.0), 0.5),
                (2.0, Point3::new(2.0, 0.0, bad), 0.5),
                (2.0, p(2.0), bad),
            ];
            for (time, position, phase) in reads {
                assert_eq!(w.push(time, position, phase), PushOutcome::NonFinite);
                rejected += 1;
            }
        }
        assert_eq!(w.rejected_non_finite(), rejected);
        assert_eq!(w.rejected_late(), 0);
        assert_eq!(w.samples().copied().collect::<Vec<_>>(), before);
        assert_eq!(w.take_slide_delta(), WindowDelta::default());
    }

    #[test]
    fn span_and_measurements() {
        let mut w = SlidingWindow::new(4).unwrap();
        assert_eq!(w.span(), 0.0);
        w.push(1.0, p(0.1), 0.2);
        w.push(3.0, p(0.3), 0.4);
        assert_eq!(w.span(), 2.0);
        let mut out = vec![(Point3::ORIGIN, 9.9)];
        w.write_measurements_into(&mut out);
        assert_eq!(out, vec![(p(0.1), 0.2), (p(0.3), 0.4)]);
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    fn slide_delta_counts_in_order_appends_and_evictions() {
        let mut w = SlidingWindow::new(4).unwrap();
        assert_eq!(w.take_slide_delta(), WindowDelta::default());
        for i in 0..3 {
            w.push(i as f64, p(i as f64), 0.0);
        }
        let d = w.take_slide_delta();
        assert_eq!(d.appended, 3);
        assert_eq!(d.evicted, 0);
        assert!(!d.spliced);
        // Fill to capacity, then slide twice.
        for i in 3..6 {
            w.push(i as f64, p(i as f64), 0.0);
        }
        let d = w.take_slide_delta();
        assert_eq!(d.appended, 3);
        assert_eq!(d.evicted, 2);
        assert!(!d.spliced);
        // Take resets: nothing new means an all-zero delta.
        assert_eq!(w.take_slide_delta(), WindowDelta::default());
    }

    #[test]
    fn slide_delta_flags_splices_and_clears() {
        let mut w = SlidingWindow::new(8).unwrap();
        for t in [0.0, 1.0, 3.0] {
            w.push(t, p(t), 0.0);
        }
        w.take_slide_delta();
        // Out-of-order read lands mid-window.
        w.push(2.0, p(2.0), 0.0);
        let d = w.take_slide_delta();
        assert_eq!(d.appended, 1);
        assert!(d.spliced);
        // A subsequent in-order append is clean again.
        w.push(4.0, p(4.0), 0.0);
        assert!(!w.take_slide_delta().spliced);
        w.clear();
        let d = w.take_slide_delta();
        assert_eq!(d.appended, 0);
        assert!(d.spliced);
    }

    #[test]
    fn slide_delta_ignores_rejected_reads() {
        let mut w = SlidingWindow::new(2).unwrap();
        w.push(5.0, p(5.0), 0.0);
        w.push(6.0, p(6.0), 0.0);
        w.take_slide_delta();
        assert_eq!(w.push(1.0, p(1.0), 0.0), PushOutcome::TooLate);
        assert_eq!(w.push(f64::NAN, p(0.0), 0.0), PushOutcome::NonFinite);
        assert_eq!(w.take_slide_delta(), WindowDelta::default());
    }

    #[test]
    fn backing_buffer_never_grows() {
        let mut w = SlidingWindow::new(256).unwrap();
        for i in 0..1000 {
            w.push(
                i as f64,
                p(i as f64 * 1e-3),
                (i as f64 * 0.3).rem_euclid(TAU),
            );
        }
        let warm = w.backing_capacity();
        for i in 1000..20_000 {
            w.push(
                i as f64,
                p(i as f64 * 1e-3),
                (i as f64 * 0.3).rem_euclid(TAU),
            );
        }
        assert_eq!(w.backing_capacity(), warm, "ring buffer reallocated");
        assert_eq!(w.len(), 256);
    }
}
