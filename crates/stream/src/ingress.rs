//! Bounded ingress queue with oldest-drop backpressure.
//!
//! A live reader produces reads faster than a solver under load can drain
//! them. [`Ingress`] is the buffer between the two: a fixed-capacity FIFO
//! that, when full, **drops the oldest queued read** to admit the newest —
//! the right policy for a localization stream, where the newest reads
//! carry the freshest geometry and an old read's information is
//! superseded anyway once the window slides past it.
//!
//! Drops are deterministic (a pure function of the offered sequence and
//! the drain schedule) and counted, so backpressure behaviour is testable
//! exactly — see `tests/stream_backpressure.rs` at the workspace root.
//!
//! Each queued read carries the instant its burst was delivered. A caller
//! that delivers a burst reads the clock once and offers every read of it
//! with [`Ingress::offer_at`], so queueing costs no clock read per read;
//! [`Ingress::offer`] stamps "now" for one-off offers.

use std::collections::VecDeque;
use std::time::Instant;

use crate::read::StreamRead;

/// A bounded FIFO of [`StreamRead`]s that sheds the oldest entry on
/// overflow.
///
/// # Example
///
/// ```
/// use lion_stream::{Ingress, StreamRead};
///
/// # fn main() -> Result<(), lion_core::CoreError> {
/// let mut q = Ingress::new(2)?;
/// let read = |t: f64| StreamRead {
///     time: t,
///     ..StreamRead::default()
/// };
/// assert!(q.offer(read(0.0)).is_none());
/// assert!(q.offer(read(1.0)).is_none());
/// // Full: the oldest read is pushed out and handed back.
/// let shed = q.offer(read(2.0)).expect("overflow sheds");
/// assert_eq!(shed.time, 0.0);
/// assert_eq!(q.overflow_dropped(), 1);
/// assert_eq!(q.pop().expect("queued").time, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ingress {
    queue: VecDeque<(StreamRead, Instant)>,
    capacity: usize,
    offered: u64,
    overflow_dropped: u64,
}

impl Ingress {
    /// Creates a queue admitting at most `capacity` reads, allocated once
    /// up front (offers never reallocate).
    ///
    /// # Errors
    ///
    /// [`lion_core::CoreError::InvalidConfig`] when `capacity` is zero.
    pub fn new(capacity: usize) -> Result<Self, lion_core::CoreError> {
        if capacity == 0 {
            return Err(lion_core::CoreError::InvalidConfig {
                parameter: "ingress_capacity",
                found: "0".to_string(),
            });
        }
        Ok(Ingress {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            offered: 0,
            overflow_dropped: 0,
        })
    }

    /// Enqueues a read, stamping it with the current instant: exactly
    /// [`Ingress::offer_at`] with `Instant::now()`.
    pub fn offer(&mut self, read: StreamRead) -> Option<StreamRead> {
        self.offer_at(read, Instant::now())
    }

    /// Enqueues a read delivered at `arrival` — one instant for every
    /// read of a burst. When full, the **oldest** queued read is removed
    /// to make room and returned (so callers can count or log it);
    /// otherwise returns `None`.
    pub fn offer_at(&mut self, read: StreamRead, arrival: Instant) -> Option<StreamRead> {
        self.offered += 1;
        let shed = if self.queue.len() == self.capacity {
            // Shed before pushing so the backing buffer never exceeds
            // `capacity` elements and therefore never reallocates.
            self.overflow_dropped += 1;
            self.queue.pop_front()
        } else {
            None
        };
        self.queue.push_back((read, arrival));
        shed.map(|(read, _)| read)
    }

    /// Dequeues the oldest queued read.
    pub fn pop(&mut self) -> Option<StreamRead> {
        self.queue.pop_front().map(|(read, _)| read)
    }

    /// Dequeues the oldest queued read together with the instant its
    /// burst was delivered — feed both to
    /// [`crate::StreamLocalizer::push_at`] so the
    /// `lion.stream.stream_lag_ns` histogram runs from burst delivery and
    /// includes queue wait.
    pub fn pop_with_arrival(&mut self) -> Option<(StreamRead, Instant)> {
        self.queue.pop_front()
    }

    /// Reads currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Maximum queued reads.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total reads ever offered.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Total reads shed to overflow.
    pub fn overflow_dropped(&self) -> u64 {
        self.overflow_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(t: f64) -> StreamRead {
        StreamRead {
            time: t,
            ..StreamRead::default()
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(Ingress::new(0).is_err());
    }

    #[test]
    fn fifo_under_capacity() {
        let mut q = Ingress::new(4).unwrap();
        for t in 0..3 {
            assert!(q.offer(read(t as f64)).is_none());
        }
        assert_eq!(q.len(), 3);
        for t in 0..3 {
            assert_eq!(q.pop().unwrap().time, t as f64);
        }
        assert!(q.is_empty());
        assert_eq!(q.overflow_dropped(), 0);
    }

    #[test]
    fn overflow_sheds_oldest_deterministically() {
        let mut q = Ingress::new(3).unwrap();
        for t in 0..8 {
            q.offer(read(t as f64));
        }
        // Reads 0..5 were shed, 5..8 survive.
        assert_eq!(q.overflow_dropped(), 5);
        assert_eq!(q.offered(), 8);
        let survivors: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|r| r.time).collect();
        assert_eq!(survivors, vec![5.0, 6.0, 7.0]);
    }

    #[test]
    fn pop_with_arrival_orders_instants() {
        let mut q = Ingress::new(4).unwrap();
        q.offer(read(0.0));
        q.offer(read(1.0));
        let (first, t0) = q.pop_with_arrival().unwrap();
        let (second, t1) = q.pop_with_arrival().unwrap();
        assert_eq!(first.time, 0.0);
        assert_eq!(second.time, 1.0);
        assert!(t1 >= t0);
    }

    #[test]
    fn one_burst_pops_with_one_arrival_and_offer_stamps_now() {
        let mut burst = Ingress::new(3).unwrap();
        let mut single = Ingress::new(3).unwrap();
        let delivered = Instant::now();
        // A burst of five into three slots sheds the oldest two, exactly
        // as five one-off offers do.
        for t in 0..5 {
            burst.offer_at(read(t as f64), delivered);
            single.offer(read(t as f64));
        }
        assert_eq!(burst.offered(), single.offered());
        assert_eq!(burst.overflow_dropped(), 2);
        assert_eq!(single.overflow_dropped(), 2);
        for t in 2..5 {
            let (r, arrival) = burst.pop_with_arrival().unwrap();
            assert_eq!(r.time, t as f64);
            assert_eq!(arrival, delivered);
            assert_eq!(single.pop().unwrap().time, t as f64);
        }
        // `offer` stamps the instant it was called.
        let before = Instant::now();
        burst.offer(read(5.0));
        let after = Instant::now();
        let (_, stamped) = burst.pop_with_arrival().unwrap();
        assert!(before <= stamped && stamped <= after);
    }

    #[test]
    fn backing_buffer_never_grows() {
        let mut q = Ingress::new(16).unwrap();
        for t in 0..64 {
            q.offer(read(t as f64));
        }
        let warm = q.queue.capacity();
        for t in 64..4096 {
            q.offer(read(t as f64));
        }
        assert_eq!(q.queue.capacity(), warm, "ingress buffer reallocated");
    }
}
