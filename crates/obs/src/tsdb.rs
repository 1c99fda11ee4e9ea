//! An embedded, zero-dependency metrics time-series store.
//!
//! The [`Tsdb`] keeps bounded history for named series so trends —
//! phase-offset drift, residual growth, SLO burn — are answerable from
//! the process itself instead of requiring an external collector. Three
//! kinds of series are stored, matching the [`Registry`] metric kinds:
//!
//! - **gauges**: each raw point keeps `last/min/max/sum/count` so
//!   downsampled tiers preserve extremes and averages exactly;
//! - **counters**: each point stores the *cumulative* value, so the
//!   increase over any window is exact — no per-interval rounding;
//! - **histograms**: each point stores the sparse bucket *delta* against
//!   the sampler's previous snapshot ([`Histogram::sparse_delta`]), so a
//!   windowed quantile is reconstructed exactly (up to the histogram's
//!   own ≤ 6.25% bucket error) by summing the deltas in the window. The
//!   point's exemplars are likewise only the ones new since that
//!   snapshot, so a window's exemplars come from the window.
//!
//! # Tiers and downsampling
//!
//! Every series keeps three ring buffers: **raw** points as pushed, a
//! **10s** tier, and a **1m** tier. Downsampling is *fold-on-push*: each
//! incoming point is folded into the open 10s aggregation bucket
//! immediately, and a bucket is sealed into its ring when a point
//! arrives past the bucket boundary (sealed 10s buckets cascade into the
//! open 1m bucket the same way). Because folding happens before the raw
//! ring trims, raw-tier eviction can never lose data from the coarser
//! tiers.
//!
//! # Memory cap and eviction
//!
//! The store tracks an approximate byte count (point payloads plus a
//! fixed per-series overhead) and enforces [`TsdbConfig::memory_cap_bytes`]
//! after every insert by evicting the globally-oldest raw point
//! (smallest timestamp, ties broken by lexicographically smallest series
//! name), falling back to the 10s then 1m tiers once raw rings are
//! empty. Eviction is deterministic and counted —
//! [`TsdbStats::evicted_points`] / [`TsdbStats::inserted_points`] make
//! cap pressure observable.
//!
//! # Sampling
//!
//! A [`Sampler`] snapshots a [`Registry`] into the store on a cadence
//! driven by an injectable [`SampleClock`]. Production uses
//! [`WallClock`]; tests (and the worker-count parity gate) use
//! [`ManualClock`], which makes every sample timestamp — and therefore
//! every stored series — deterministic.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{merge_exemplars, Exemplar, Histogram};
use crate::json;
use crate::registry::{Metric, Registry};

/// Width of the mid (10s) downsampling tier in nanoseconds.
pub const MID_BUCKET_NS: u64 = 10_000_000_000;
/// Width of the coarse (1m) downsampling tier in nanoseconds.
pub const COARSE_BUCKET_NS: u64 = 60_000_000_000;

/// Approximate fixed overhead charged per series (map entry, ring
/// buffers, open aggregation buckets) on top of the per-point payloads.
const SERIES_OVERHEAD_BYTES: usize = 160;

/// A storage/query resolution tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Points exactly as pushed.
    Raw,
    /// 10-second aggregation buckets.
    Mid,
    /// 1-minute aggregation buckets.
    Coarse,
}

impl Tier {
    /// The tier's wire label (`raw`, `10s`, `1m`) as used by `/query`.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Raw => "raw",
            Tier::Mid => "10s",
            Tier::Coarse => "1m",
        }
    }

    /// Parses a wire label; the inverse of [`Tier::label`].
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "raw" => Some(Tier::Raw),
            "10s" => Some(Tier::Mid),
            "1m" => Some(Tier::Coarse),
            _ => None,
        }
    }
}

/// Sizing knobs for a [`Tsdb`].
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Raw points retained per series.
    pub raw_capacity: usize,
    /// 10s aggregation buckets retained per series (360 ≙ 1 hour).
    pub mid_capacity: usize,
    /// 1m aggregation buckets retained per series (1440 ≙ 24 hours).
    pub coarse_capacity: usize,
    /// Hard cap on the store's (approximate) total bytes; enforced by
    /// deterministic oldest-first eviction after every insert.
    pub memory_cap_bytes: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig {
            raw_capacity: 512,
            mid_capacity: 360,
            coarse_capacity: 1440,
            memory_cap_bytes: 4 << 20,
        }
    }
}

/// One stored gauge observation (or a fold of several, in the 10s/1m
/// tiers — `last` is the most recent value, `min`/`max`/`sum`/`count`
/// aggregate the folded points exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugePoint {
    /// Sample time (bucket start time in the downsampled tiers).
    pub t_ns: u64,
    /// Most recent value in the bucket.
    pub last: f64,
    /// Smallest value in the bucket.
    pub min: f64,
    /// Largest value in the bucket.
    pub max: f64,
    /// Sum of folded values (mean = `sum / count`).
    pub sum: f64,
    /// Number of folded values.
    pub count: u64,
}

/// One stored counter observation. The value is *cumulative* (the
/// counter's running total at `t_ns`); downsampled tiers keep the last
/// cumulative value per bucket, so rates over any pair of retained
/// points stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterPoint {
    /// Sample time (bucket start time in the downsampled tiers).
    pub t_ns: u64,
    /// Cumulative counter value at `t_ns`.
    pub value: u64,
}

/// One stored histogram increment: the sparse bucket delta between two
/// consecutive sampler snapshots. Summing the deltas over a window and
/// reconstructing with [`Histogram::from_sparse`] yields the window's
/// exact bucket counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistPoint {
    /// Sample time (bucket start time in the downsampled tiers).
    pub t_ns: u64,
    /// Observations added in the interval.
    pub count: u64,
    /// Sum added in the interval.
    pub sum: u64,
    /// Sparse `(bucket index, count delta)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Exemplars the source histogram gained in the interval.
    pub exemplars: Vec<Exemplar>,
}

/// Behaviour shared by the three point types so [`TieredSeries`] can
/// fold any of them into aggregation buckets.
trait TierPoint: Clone {
    fn t_ns(&self) -> u64;
    /// Rewrites the timestamp to the aggregation bucket's start time.
    fn align(&mut self, bucket_start_ns: u64);
    /// Folds a newer point into this aggregation bucket.
    fn fold(&mut self, incoming: &Self);
    /// Approximate heap + inline size of the point.
    fn bytes(&self) -> usize;
}

impl TierPoint for GaugePoint {
    fn t_ns(&self) -> u64 {
        self.t_ns
    }
    fn align(&mut self, bucket_start_ns: u64) {
        self.t_ns = bucket_start_ns;
    }
    fn fold(&mut self, incoming: &Self) {
        self.last = incoming.last;
        self.min = self.min.min(incoming.min);
        self.max = self.max.max(incoming.max);
        self.sum += incoming.sum;
        self.count = self.count.saturating_add(incoming.count);
    }
    fn bytes(&self) -> usize {
        std::mem::size_of::<GaugePoint>()
    }
}

impl TierPoint for CounterPoint {
    fn t_ns(&self) -> u64 {
        self.t_ns
    }
    fn align(&mut self, bucket_start_ns: u64) {
        self.t_ns = bucket_start_ns;
    }
    fn fold(&mut self, incoming: &Self) {
        // Cumulative value: the newest total represents the bucket.
        self.value = incoming.value;
    }
    fn bytes(&self) -> usize {
        std::mem::size_of::<CounterPoint>()
    }
}

impl TierPoint for HistPoint {
    fn t_ns(&self) -> u64 {
        self.t_ns
    }
    fn align(&mut self, bucket_start_ns: u64) {
        self.t_ns = bucket_start_ns;
    }
    fn fold(&mut self, incoming: &Self) {
        self.count = self.count.saturating_add(incoming.count);
        self.sum = self.sum.saturating_add(incoming.sum);
        merge_sparse(&mut self.buckets, &incoming.buckets);
        merge_exemplars(&mut self.exemplars, &incoming.exemplars);
    }
    fn bytes(&self) -> usize {
        std::mem::size_of::<HistPoint>()
            + self.buckets.len() * std::mem::size_of::<(u32, u64)>()
            + self.exemplars.len() * std::mem::size_of::<Exemplar>()
    }
}

/// Adds sparse `(index, count)` pairs into a sorted sparse vector.
fn merge_sparse(into: &mut Vec<(u32, u64)>, from: &[(u32, u64)]) {
    for &(idx, c) in from {
        match into.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => into[pos].1 = into[pos].1.saturating_add(c),
            Err(pos) => into.insert(pos, (idx, c)),
        }
    }
}

/// Three ring buffers plus the open (still-accumulating) 10s and 1m
/// aggregation buckets for one series.
#[derive(Debug)]
struct TieredSeries<P> {
    raw: VecDeque<P>,
    mid: VecDeque<P>,
    coarse: VecDeque<P>,
    open_mid: Option<P>,
    open_coarse: Option<P>,
}

impl<P: TierPoint> TieredSeries<P> {
    fn new() -> Self {
        TieredSeries {
            raw: VecDeque::new(),
            mid: VecDeque::new(),
            coarse: VecDeque::new(),
            open_mid: None,
            open_coarse: None,
        }
    }

    /// Pushes a point, folding it into the downsampling tiers first so
    /// raw-ring trimming can never lose mid/coarse data. Returns the
    /// signed byte delta of everything that changed.
    fn push(&mut self, p: P, cfg: &TsdbConfig) -> i64 {
        let mut delta = self.fold_mid(&p, cfg);
        delta += p.bytes() as i64;
        self.raw.push_back(p);
        if self.raw.len() > cfg.raw_capacity.max(1) {
            if let Some(old) = self.raw.pop_front() {
                delta -= old.bytes() as i64;
            }
        }
        delta
    }

    fn fold_mid(&mut self, p: &P, cfg: &TsdbConfig) -> i64 {
        let bucket = p.t_ns() / MID_BUCKET_NS;
        let mut delta = 0i64;
        let needs_seal = self
            .open_mid
            .as_ref()
            .is_some_and(|open| bucket > open.t_ns() / MID_BUCKET_NS);
        if needs_seal {
            delta += self.seal_mid(cfg);
        }
        match &mut self.open_mid {
            Some(open) => {
                let before = open.bytes() as i64;
                open.fold(p);
                delta += open.bytes() as i64 - before;
            }
            None => {
                let mut open = p.clone();
                open.align(bucket * MID_BUCKET_NS);
                delta += open.bytes() as i64;
                self.open_mid = Some(open);
            }
        }
        delta
    }

    fn seal_mid(&mut self, cfg: &TsdbConfig) -> i64 {
        let Some(sealed) = self.open_mid.take() else {
            return 0;
        };
        let mut delta = self.fold_coarse(&sealed, cfg);
        self.mid.push_back(sealed);
        if self.mid.len() > cfg.mid_capacity.max(1) {
            if let Some(old) = self.mid.pop_front() {
                delta -= old.bytes() as i64;
            }
        }
        delta
    }

    fn fold_coarse(&mut self, sealed: &P, cfg: &TsdbConfig) -> i64 {
        let bucket = sealed.t_ns() / COARSE_BUCKET_NS;
        let mut delta = 0i64;
        let needs_seal = self
            .open_coarse
            .as_ref()
            .is_some_and(|open| bucket > open.t_ns() / COARSE_BUCKET_NS);
        if needs_seal {
            delta += self.seal_coarse(cfg);
        }
        match &mut self.open_coarse {
            Some(open) => {
                let before = open.bytes() as i64;
                open.fold(sealed);
                delta += open.bytes() as i64 - before;
            }
            None => {
                let mut open = sealed.clone();
                open.align(bucket * COARSE_BUCKET_NS);
                delta += open.bytes() as i64;
                self.open_coarse = Some(open);
            }
        }
        delta
    }

    fn seal_coarse(&mut self, cfg: &TsdbConfig) -> i64 {
        let Some(sealed) = self.open_coarse.take() else {
            return 0;
        };
        let mut delta = 0i64;
        self.coarse.push_back(sealed);
        if self.coarse.len() > cfg.coarse_capacity.max(1) {
            if let Some(old) = self.coarse.pop_front() {
                delta -= old.bytes() as i64;
            }
        }
        delta
    }

    fn ring(&self, tier: Tier) -> &VecDeque<P> {
        match tier {
            Tier::Raw => &self.raw,
            Tier::Mid => &self.mid,
            Tier::Coarse => &self.coarse,
        }
    }

    fn front_t(&self, tier: Tier) -> Option<u64> {
        self.ring(tier).front().map(TierPoint::t_ns)
    }

    fn pop_front(&mut self, tier: Tier) -> i64 {
        let ring = match tier {
            Tier::Raw => &mut self.raw,
            Tier::Mid => &mut self.mid,
            Tier::Coarse => &mut self.coarse,
        };
        ring.pop_front().map_or(0, |p| p.bytes() as i64)
    }

    fn range(&self, tier: Tier, from_ns: u64, to_ns: u64) -> Vec<P> {
        self.ring(tier)
            .iter()
            .filter(|p| p.t_ns() >= from_ns && p.t_ns() <= to_ns)
            .cloned()
            .collect()
    }
}

/// One series' storage, dispatching on kind.
#[derive(Debug)]
enum SeriesData {
    Gauge(TieredSeries<GaugePoint>),
    Counter(TieredSeries<CounterPoint>),
    Histogram(TieredSeries<HistPoint>),
}

impl SeriesData {
    fn kind(&self) -> &'static str {
        match self {
            SeriesData::Gauge(_) => "gauge",
            SeriesData::Counter(_) => "counter",
            SeriesData::Histogram(_) => "histogram",
        }
    }

    fn len(&self, tier: Tier) -> usize {
        match self {
            SeriesData::Gauge(s) => s.ring(tier).len(),
            SeriesData::Counter(s) => s.ring(tier).len(),
            SeriesData::Histogram(s) => s.ring(tier).len(),
        }
    }

    fn front_t(&self, tier: Tier) -> Option<u64> {
        match self {
            SeriesData::Gauge(s) => s.front_t(tier),
            SeriesData::Counter(s) => s.front_t(tier),
            SeriesData::Histogram(s) => s.front_t(tier),
        }
    }

    fn pop_front(&mut self, tier: Tier) -> i64 {
        match self {
            SeriesData::Gauge(s) => s.pop_front(tier),
            SeriesData::Counter(s) => s.pop_front(tier),
            SeriesData::Histogram(s) => s.pop_front(tier),
        }
    }

    /// Approximate total bytes of every stored and open point.
    fn total_bytes(&self) -> i64 {
        fn sum<P: TierPoint>(s: &TieredSeries<P>) -> i64 {
            let stored: usize = s
                .raw
                .iter()
                .chain(s.mid.iter())
                .chain(s.coarse.iter())
                .map(TierPoint::bytes)
                .sum();
            let open = s.open_mid.as_ref().map_or(0, TierPoint::bytes)
                + s.open_coarse.as_ref().map_or(0, TierPoint::bytes);
            (stored + open) as i64
        }
        match self {
            SeriesData::Gauge(s) => sum(s),
            SeriesData::Counter(s) => sum(s),
            SeriesData::Histogram(s) => sum(s),
        }
    }
}

/// Points returned by [`Tsdb::query`], matching the series kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesPoints {
    /// Gauge observations.
    Gauge(Vec<GaugePoint>),
    /// Cumulative counter observations.
    Counter(Vec<CounterPoint>),
    /// Histogram increments.
    Histogram(Vec<HistPoint>),
}

impl SeriesPoints {
    /// Number of points in the result.
    pub fn len(&self) -> usize {
        match self {
            SeriesPoints::Gauge(v) => v.len(),
            SeriesPoints::Counter(v) => v.len(),
            SeriesPoints::Histogram(v) => v.len(),
        }
    }

    /// Whether the result holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-series metadata from [`Tsdb::series_list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesInfo {
    /// Series name.
    pub name: String,
    /// `gauge`, `counter`, or `histogram`.
    pub kind: &'static str,
    /// Raw points retained.
    pub raw_len: usize,
    /// 10s buckets retained.
    pub mid_len: usize,
    /// 1m buckets retained.
    pub coarse_len: usize,
}

/// Store-wide accounting from [`Tsdb::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsdbStats {
    /// Number of series.
    pub series: usize,
    /// Approximate bytes currently held.
    pub bytes: u64,
    /// The configured cap.
    pub memory_cap_bytes: usize,
    /// Raw points accepted since creation.
    pub inserted_points: u64,
    /// Points dropped by cap eviction since creation.
    pub evicted_points: u64,
}

#[derive(Debug)]
struct TsdbInner {
    config: TsdbConfig,
    series: BTreeMap<String, SeriesData>,
    bytes: i64,
    inserted: u64,
    evicted: u64,
}

impl TsdbInner {
    fn evict_to_cap(&mut self) {
        while self.bytes > self.config.memory_cap_bytes as i64 {
            if !self.evict_one() {
                break;
            }
            self.evicted += 1;
        }
    }

    /// Drops the globally-oldest point: raw tier first, then 10s, then
    /// 1m; within a tier the smallest timestamp wins, ties broken by the
    /// lexicographically smallest series name. Returns false when no
    /// ring holds any point (open aggregation buckets are not evicted).
    fn evict_one(&mut self) -> bool {
        for tier in [Tier::Raw, Tier::Mid, Tier::Coarse] {
            let mut best: Option<(u64, &str)> = None;
            for (name, data) in &self.series {
                if let Some(t) = data.front_t(tier) {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, name));
                    }
                }
            }
            if let Some((_, name)) = best {
                let name = name.to_string();
                let freed = self
                    .series
                    .get_mut(&name)
                    .map_or(0, |data| data.pop_front(tier));
                self.bytes -= freed;
                return true;
            }
        }
        false
    }
}

/// The embedded time-series store. Thread-safe; shared as `Arc<Tsdb>`
/// between the sampler and the HTTP plane.
#[derive(Debug)]
pub struct Tsdb {
    inner: Mutex<TsdbInner>,
}

impl Tsdb {
    /// Creates an empty store with the given sizing.
    pub fn new(config: TsdbConfig) -> Tsdb {
        Tsdb {
            inner: Mutex::new(TsdbInner {
                config,
                series: BTreeMap::new(),
                bytes: 0,
                inserted: 0,
                evicted: 0,
            }),
        }
    }

    fn with_series(
        &self,
        name: &str,
        make: impl FnOnce() -> SeriesData,
        same_kind: impl Fn(&SeriesData) -> bool,
        f: impl FnOnce(&mut SeriesData, &TsdbConfig) -> i64,
    ) {
        let mut inner = self.inner.lock().expect("tsdb poisoned");
        let exists_ok = inner.series.get(name).map(&same_kind);
        match exists_ok {
            Some(true) => {}
            Some(false) => {
                // Kind conflict: last writer wins, mirroring Registry.
                if let Some(old) = inner.series.remove(name) {
                    inner.bytes -= old.total_bytes() + (SERIES_OVERHEAD_BYTES + name.len()) as i64;
                }
                inner.series.insert(name.to_string(), make());
                inner.bytes += (SERIES_OVERHEAD_BYTES + name.len()) as i64;
            }
            None => {
                inner.series.insert(name.to_string(), make());
                inner.bytes += (SERIES_OVERHEAD_BYTES + name.len()) as i64;
            }
        }
        let config = inner.config.clone();
        let delta = inner
            .series
            .get_mut(name)
            .map_or(0, |data| f(data, &config));
        inner.bytes += delta;
        inner.inserted += 1;
        inner.evict_to_cap();
    }

    /// Appends a gauge observation.
    pub fn push_gauge(&self, name: &str, t_ns: u64, value: f64) {
        self.with_series(
            name,
            || SeriesData::Gauge(TieredSeries::new()),
            |d| matches!(d, SeriesData::Gauge(_)),
            |data, cfg| match data {
                SeriesData::Gauge(s) => s.push(
                    GaugePoint {
                        t_ns,
                        last: value,
                        min: value,
                        max: value,
                        sum: value,
                        count: 1,
                    },
                    cfg,
                ),
                _ => 0,
            },
        )
    }

    /// Appends a counter observation (`cumulative` is the running total).
    pub fn push_counter(&self, name: &str, t_ns: u64, cumulative: u64) {
        self.with_series(
            name,
            || SeriesData::Counter(TieredSeries::new()),
            |d| matches!(d, SeriesData::Counter(_)),
            |data, cfg| match data {
                SeriesData::Counter(s) => s.push(
                    CounterPoint {
                        t_ns,
                        value: cumulative,
                    },
                    cfg,
                ),
                _ => 0,
            },
        )
    }

    /// Appends a histogram increment (a sparse bucket delta between two
    /// sampler snapshots — see [`Histogram::sparse_delta`]).
    pub fn push_histogram_delta(
        &self,
        name: &str,
        t_ns: u64,
        count: u64,
        sum: u64,
        buckets: Vec<(u32, u64)>,
        exemplars: Vec<Exemplar>,
    ) {
        self.with_series(
            name,
            || SeriesData::Histogram(TieredSeries::new()),
            |d| matches!(d, SeriesData::Histogram(_)),
            |data, cfg| match data {
                SeriesData::Histogram(s) => s.push(
                    HistPoint {
                        t_ns,
                        count,
                        sum,
                        buckets,
                        exemplars,
                    },
                    cfg,
                ),
                _ => 0,
            },
        )
    }

    /// Every series with its kind and per-tier lengths, name-sorted.
    pub fn series_list(&self) -> Vec<SeriesInfo> {
        let inner = self.inner.lock().expect("tsdb poisoned");
        inner
            .series
            .iter()
            .map(|(name, data)| SeriesInfo {
                name: name.clone(),
                kind: data.kind(),
                raw_len: data.len(Tier::Raw),
                mid_len: data.len(Tier::Mid),
                coarse_len: data.len(Tier::Coarse),
            })
            .collect()
    }

    /// Points of `name` in `tier` with `from_ns <= t_ns <= to_ns`, or
    /// `None` when the series does not exist. The downsampled tiers
    /// return only *sealed* buckets, so they lag raw by up to one
    /// bucket width.
    pub fn query(&self, name: &str, tier: Tier, from_ns: u64, to_ns: u64) -> Option<SeriesPoints> {
        let inner = self.inner.lock().expect("tsdb poisoned");
        inner.series.get(name).map(|data| match data {
            SeriesData::Gauge(s) => SeriesPoints::Gauge(s.range(tier, from_ns, to_ns)),
            SeriesData::Counter(s) => SeriesPoints::Counter(s.range(tier, from_ns, to_ns)),
            SeriesData::Histogram(s) => SeriesPoints::Histogram(s.range(tier, from_ns, to_ns)),
        })
    }

    /// Current accounting: series/byte totals plus the deterministic
    /// insertion and eviction counters.
    pub fn stats(&self) -> TsdbStats {
        let inner = self.inner.lock().expect("tsdb poisoned");
        TsdbStats {
            series: inner.series.len(),
            bytes: inner.bytes.max(0) as u64,
            memory_cap_bytes: inner.config.memory_cap_bytes,
            inserted_points: inner.inserted,
            evicted_points: inner.evicted,
        }
    }
}

/// The sampler's time source. Injectable so tests (and the worker-count
/// parity gate) can drive sampling with a [`ManualClock`] and get
/// bit-identical timestamps, while production uses [`WallClock`].
pub trait SampleClock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since an arbitrary fixed epoch; must be monotone.
    fn now_ns(&self) -> u64;
}

/// Real time: monotonic nanoseconds since process start.
#[derive(Debug, Default)]
pub struct WallClock;

impl SampleClock for WallClock {
    fn now_ns(&self) -> u64 {
        crate::trace::now_ns()
    }
}

/// A hand-driven clock for deterministic sampling in tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ns: AtomicU64,
}

impl ManualClock {
    /// Creates a clock reading `start_ns`.
    pub fn new(start_ns: u64) -> Arc<ManualClock> {
        Arc::new(ManualClock {
            now_ns: AtomicU64::new(start_ns),
        })
    }

    /// Sets the clock to `t_ns`.
    pub fn set(&self, t_ns: u64) {
        self.now_ns.store(t_ns, Ordering::SeqCst);
    }

    /// Advances the clock by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.now_ns.fetch_add(delta_ns, Ordering::SeqCst);
    }
}

impl SampleClock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::SeqCst)
    }
}

/// Snapshots a [`Registry`] into a [`Tsdb`] on a clock-driven cadence.
///
/// Counters store their cumulative value, gauges their current value,
/// and histograms the sparse bucket delta against the sampler's previous
/// snapshot of the same histogram — the store's exact-increment
/// primitive — with only the exemplars that snapshot lacked. The first [`Sampler::tick`] samples immediately; later
/// ticks sample only once the injected clock passes the next due time.
#[derive(Debug)]
pub struct Sampler {
    tsdb: Arc<Tsdb>,
    period_ns: u64,
    clock: Arc<dyn SampleClock>,
    next_due_ns: Option<u64>,
    prev_hist: BTreeMap<String, Histogram>,
    ticks: u64,
}

impl Sampler {
    /// Creates a sampler writing into `tsdb` every `period_ns` of
    /// `clock` time.
    pub fn new(tsdb: Arc<Tsdb>, period_ns: u64, clock: Arc<dyn SampleClock>) -> Sampler {
        Sampler {
            tsdb,
            period_ns: period_ns.max(1),
            clock,
            next_due_ns: None,
            prev_hist: BTreeMap::new(),
            ticks: 0,
        }
    }

    /// Samples `registry` if the clock has reached the next due time
    /// (the first call is always due). Returns the sample timestamp when
    /// a sample was taken.
    pub fn tick(&mut self, registry: &Registry) -> Option<u64> {
        let now = self.due()?;
        self.sample_if_due(registry, now)
    }

    /// Reads the clock once and returns the reading if a sample is due
    /// at it, without sampling. Callers that must refresh the registry
    /// before a sample ask here first, refresh, and then call
    /// [`Sampler::sample_if_due`] with the same reading.
    pub(crate) fn due(&self) -> Option<u64> {
        let now = self.clock.now_ns();
        self.is_due(now).then_some(now)
    }

    /// Samples `registry` at `now`, a reading taken by [`Sampler::due`],
    /// unless a sample taken since that reading has moved the next due
    /// time past it. Returns the sample timestamp when a sample was
    /// taken. Reads no clock.
    pub(crate) fn sample_if_due(&mut self, registry: &Registry, now: u64) -> Option<u64> {
        if !self.is_due(now) {
            return None;
        }
        self.sample_at(registry, now);
        self.next_due_ns = Some(now.saturating_add(self.period_ns));
        Some(now)
    }

    fn is_due(&self, now: u64) -> bool {
        self.next_due_ns.is_none_or(|due| now >= due)
    }

    /// Number of samples taken.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The store this sampler writes into.
    pub fn tsdb(&self) -> &Arc<Tsdb> {
        &self.tsdb
    }

    fn sample_at(&mut self, registry: &Registry, t_ns: u64) {
        let snapshot = registry.snapshot();
        for (name, metric) in snapshot.metrics {
            match metric {
                Metric::Counter(v) => self.tsdb.push_counter(&name, t_ns, v),
                Metric::Gauge(v) => self.tsdb.push_gauge(&name, t_ns, v),
                Metric::Histogram(h) => {
                    let prev = self.prev_hist.get(&name);
                    let (buckets, dcount, dsum) = h.sparse_delta(prev);
                    let fresh = h
                        .exemplars()
                        .iter()
                        .filter(|e| prev.is_none_or(|p| !p.exemplars().contains(e)))
                        .copied()
                        .collect();
                    self.tsdb
                        .push_histogram_delta(&name, t_ns, dcount, dsum, buckets, fresh);
                    self.prev_hist.insert(name, h);
                }
            }
        }
        self.ticks += 1;
    }
}

// ---------------------------------------------------------------------
// JSON rendering for /query (ndjson: one object per point).

impl GaugePoint {
    /// One ndjson line for `/query`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_ns\":{},\"last\":{},\"min\":{},\"max\":{},\"sum\":{},\"count\":{}}}",
            self.t_ns,
            json::number(self.last),
            json::number(self.min),
            json::number(self.max),
            json::number(self.sum),
            self.count
        )
    }
}

impl CounterPoint {
    /// One ndjson line for `/query`.
    pub fn to_json(&self) -> String {
        format!("{{\"t_ns\":{},\"value\":{}}}", self.t_ns, self.value)
    }
}

impl HistPoint {
    /// One ndjson line for `/query`: the increment's count/sum plus
    /// quantiles reconstructed from its sparse buckets, and any
    /// exemplars.
    pub fn to_json(&self) -> String {
        let h = Histogram::from_sparse(&self.buckets);
        let mut out = format!(
            "{{\"t_ns\":{},\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}",
            self.t_ns,
            self.count,
            self.sum,
            h.p50(),
            h.p99()
        );
        if !self.exemplars.is_empty() {
            out.push_str(",\"exemplars\":[");
            for (i, e) in self.exemplars.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"value\":{},\"trace_id\":{}}}",
                    e.value, e.trace_id
                ));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TsdbConfig {
        TsdbConfig {
            raw_capacity: 8,
            mid_capacity: 4,
            coarse_capacity: 4,
            memory_cap_bytes: 1 << 20,
        }
    }

    #[test]
    fn gauge_downsampling_preserves_extremes_and_means() {
        let db = Tsdb::new(small_config());
        // Two 10s buckets: [1,5,3] then [10].
        db.push_gauge("g", 1_000_000_000, 1.0);
        db.push_gauge("g", 2_000_000_000, 5.0);
        db.push_gauge("g", 3_000_000_000, 3.0);
        db.push_gauge("g", 11_000_000_000, 10.0);
        // First bucket sealed into the 10s tier when the second opened.
        let SeriesPoints::Gauge(mid) = db.query("g", Tier::Mid, 0, u64::MAX).unwrap() else {
            panic!("gauge series");
        };
        assert_eq!(mid.len(), 1);
        let b = &mid[0];
        assert_eq!(b.t_ns, 0);
        assert_eq!(b.last, 3.0);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.count, 3);
        assert_eq!(b.sum, 9.0);
        // Raw keeps everything (capacity 8).
        assert_eq!(db.query("g", Tier::Raw, 0, u64::MAX).unwrap().len(), 4);
    }

    #[test]
    fn raw_eviction_cannot_lose_downsampled_history() {
        // Raw capacity 2: pushing a full 10s bucket's worth of points
        // trims raw, but the sealed 10s bucket still aggregates all of
        // them because folding happens before the trim.
        let mut cfg = small_config();
        cfg.raw_capacity = 2;
        let db = Tsdb::new(cfg);
        for i in 0..10u64 {
            db.push_gauge("g", i * 1_000_000_000, i as f64);
        }
        db.push_gauge("g", 11_000_000_000, 99.0); // seals bucket 0
        let SeriesPoints::Gauge(mid) = db.query("g", Tier::Mid, 0, u64::MAX).unwrap() else {
            panic!("gauge series");
        };
        assert_eq!(mid[0].count, 10);
        assert_eq!(mid[0].max, 9.0);
        assert_eq!(mid[0].min, 0.0);
        assert_eq!(db.query("g", Tier::Raw, 0, u64::MAX).unwrap().len(), 2);
    }

    #[test]
    fn eviction_is_oldest_first_and_counted() {
        let cfg = TsdbConfig {
            raw_capacity: 1024,
            mid_capacity: 16,
            coarse_capacity: 16,
            // Room for the two series' overhead plus only a few points.
            memory_cap_bytes: 2 * (SERIES_OVERHEAD_BYTES + 1)
                + 8 * std::mem::size_of::<GaugePoint>(),
        };
        let db = Tsdb::new(cfg);
        // Interleave two series; "a" gets the older timestamps.
        for i in 0..20u64 {
            db.push_gauge("a", i * 2_000_000, i as f64);
            db.push_gauge("b", i * 2_000_000 + 1_000_000, i as f64);
        }
        let stats = db.stats();
        assert!(stats.bytes <= stats.memory_cap_bytes as u64);
        assert!(stats.evicted_points > 0);
        assert_eq!(stats.inserted_points, 40);
        // Survivors are the newest points: the oldest remaining "a"
        // timestamp is newer than everything evicted.
        let SeriesPoints::Gauge(a) = db.query("a", Tier::Raw, 0, u64::MAX).unwrap() else {
            panic!("gauge series");
        };
        let SeriesPoints::Gauge(b) = db.query("b", Tier::Raw, 0, u64::MAX).unwrap() else {
            panic!("gauge series");
        };
        let oldest_kept = a
            .first()
            .map(|p| p.t_ns)
            .into_iter()
            .chain(b.first().map(|p| p.t_ns))
            .min()
            .unwrap();
        let total_kept = a.len() + b.len();
        assert_eq!(total_kept as u64 + stats.evicted_points, 40);
        // Every evicted point was older than every kept point.
        assert!(oldest_kept >= stats.evicted_points / 2 * 2_000_000);
    }

    #[test]
    fn soak_one_million_samples_stay_under_cap() {
        let cfg = TsdbConfig {
            raw_capacity: 512,
            mid_capacity: 360,
            coarse_capacity: 1440,
            memory_cap_bytes: 64 << 10,
        };
        let db = Tsdb::new(cfg);
        let names = ["soak.a", "soak.b", "soak.c", "soak.d"];
        for i in 0..250_000u64 {
            let t = i * 1_000_000; // 1ms cadence → crosses many buckets
            for (k, name) in names.iter().enumerate() {
                db.push_gauge(name, t, (i + k as u64) as f64);
            }
            if i % 50_000 == 0 {
                assert!(
                    db.stats().bytes <= db.stats().memory_cap_bytes as u64,
                    "over cap at i={i}: {:?}",
                    db.stats()
                );
            }
        }
        let stats = db.stats();
        assert_eq!(stats.inserted_points, 1_000_000);
        assert!(stats.bytes <= stats.memory_cap_bytes as u64, "{stats:?}");
        assert!(stats.evicted_points > 0);
        assert_eq!(stats.series, 4);
    }

    #[test]
    fn sampler_snapshots_all_metric_kinds_with_exact_deltas() {
        let registry = Registry::new();
        let clock = ManualClock::new(0);
        let db = Arc::new(Tsdb::new(TsdbConfig::default()));
        let mut sampler = Sampler::new(db.clone(), 1_000_000_000, clock.clone());

        registry.counter_add("c", 5);
        registry.gauge_set("g", 1.5);
        registry.histogram_record("h", 1_000);
        assert_eq!(sampler.tick(&registry), Some(0));
        // Not due yet.
        clock.set(500_000_000);
        assert_eq!(sampler.tick(&registry), None);

        registry.counter_add("c", 7);
        registry.histogram_record("h", 2_000);
        clock.set(1_000_000_000);
        assert_eq!(sampler.tick(&registry), Some(1_000_000_000));
        assert_eq!(sampler.ticks(), 2);

        // Counter points are cumulative.
        let SeriesPoints::Counter(c) = db.query("c", Tier::Raw, 0, u64::MAX).unwrap() else {
            panic!("counter series");
        };
        assert_eq!(
            c,
            vec![
                CounterPoint { t_ns: 0, value: 5 },
                CounterPoint {
                    t_ns: 1_000_000_000,
                    value: 12
                }
            ]
        );
        // Histogram points are per-interval deltas: 1 then 1 observation.
        let SeriesPoints::Histogram(h) = db.query("h", Tier::Raw, 0, u64::MAX).unwrap() else {
            panic!("histogram series");
        };
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].count, 1);
        assert_eq!(h[0].sum, 1_000);
        assert_eq!(h[1].count, 1);
        assert_eq!(h[1].sum, 2_000);
        let SeriesPoints::Gauge(g) = db.query("g", Tier::Raw, 0, u64::MAX).unwrap() else {
            panic!("gauge series");
        };
        assert_eq!(g.iter().map(|p| p.last).collect::<Vec<_>>(), [1.5, 1.5]);
    }

    #[test]
    fn query_respects_tier_and_range_bounds() {
        let db = Tsdb::new(small_config());
        for i in 0..5u64 {
            db.push_counter("c", i * 1_000_000_000, i * 10);
        }
        let got = db
            .query("c", Tier::Raw, 1_000_000_000, 3_000_000_000)
            .unwrap();
        assert_eq!(got.len(), 3);
        assert!(db.query("missing", Tier::Raw, 0, u64::MAX).is_none());
        assert!(db.query("c", Tier::Coarse, 0, u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn tier_labels_round_trip() {
        for tier in [Tier::Raw, Tier::Mid, Tier::Coarse] {
            assert_eq!(Tier::parse(tier.label()), Some(tier));
        }
        assert_eq!(Tier::parse("5s"), None);
    }

    #[test]
    fn sampler_deadline_saturates_near_the_end_of_the_clock() {
        let registry = Registry::new();
        registry.gauge_set("g", 1.0);
        let clock = ManualClock::new(u64::MAX - 5);
        let db = Arc::new(Tsdb::new(TsdbConfig::default()));
        let mut sampler = Sampler::new(db, 10, clock);
        assert_eq!(sampler.tick(&registry), Some(u64::MAX - 5));
        // The next deadline saturates at u64::MAX instead of wrapping
        // to 4, so the same instant is not due again.
        assert_eq!(sampler.tick(&registry), None);
        assert_eq!(sampler.ticks(), 1);
    }

    #[test]
    fn stored_exemplars_exclude_traces_recorded_before_the_point() {
        let sec = 1_000_000_000u64;
        let registry = Registry::new();
        let clock = ManualClock::new(0);
        let db = Arc::new(Tsdb::new(TsdbConfig::default()));
        let mut sampler = Sampler::new(db.clone(), 10 * sec, clock.clone());
        // A 5 ms solve traced at t = 0, then fast untraced solves only.
        registry.histogram_record_with_exemplar("h", 5_000_000, 0xabc);
        sampler.tick(&registry);
        for t in 1..=6u64 {
            registry.histogram_record("h", 1_000);
            clock.set(t * 10 * sec);
            sampler.tick(&registry);
        }
        let SeriesPoints::Histogram(points) = db.query("h", Tier::Raw, 0, u64::MAX).unwrap() else {
            panic!("histogram series");
        };
        assert_eq!(points.len(), 7);
        // Only the t = 0 point carries the slow solve's trace; every
        // later point holds one fast, untraced solve and no exemplar.
        assert_eq!(points[0].t_ns, 0);
        assert_eq!(points[0].exemplars.len(), 1);
        assert_eq!(points[0].exemplars[0].trace_id, 0xabc);
        for p in &points[1..] {
            assert_eq!((p.count, p.sum), (1, 1_000), "point at {}", p.t_ns);
            assert!(p.exemplars.is_empty(), "stale exemplar at {}", p.t_ns);
        }
    }
}
