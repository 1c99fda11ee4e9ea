//! The steady-state adaptive sweep must not touch the heap.
//!
//! A counting global allocator wraps the system allocator; after two
//! warm-up sweeps size every workspace buffer and intern the telemetry
//! keys, a third sweep over the same workload must perform **zero**
//! allocations. Runs single-threaded by construction (one test in this
//! binary), so the counter observes only the sweep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::f64::consts::{PI, TAU};
use std::sync::atomic::{AtomicU64, Ordering};

use lion_core::{
    locate_window_in, AdaptiveConfig, AdaptiveOutcome, Localizer2d, LocalizerConfig, PairStrategy,
    SlidingWindow, SolveSpace, Workspace,
};
use lion_geom::Point3;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

fn linear_scan(target: Point3, half_range: f64, step: f64) -> Vec<(Point3, f64)> {
    let n = (2.0 * half_range / step) as usize;
    (0..=n)
        .map(|i| {
            let p = Point3::new(-half_range + i as f64 * step, 0.0, 0.0);
            (p, (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU))
        })
        .collect()
}

#[test]
fn steady_state_sweep_allocates_nothing() {
    let target = Point3::new(0.1, 0.8, 0.0);
    let m = linear_scan(target, 0.6, 0.005);
    let config = LocalizerConfig {
        smoothing_window: 9,
        pair_strategy: PairStrategy::Interval { interval: 0.2 },
        side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
        ..LocalizerConfig::default()
    };
    let localizer = Localizer2d::new(config);
    let grid = AdaptiveConfig::default();
    let mut ws = Workspace::new();
    let mut out = AdaptiveOutcome::default();
    // Two warm-up sweeps: the first grows every buffer, the second
    // verifies the workload itself is stable (and interns the global
    // telemetry counter/histogram keys).
    for _ in 0..2 {
        localizer
            .locate_adaptive_into(&m, &grid, &mut ws, &mut out)
            .expect("clean sweep succeeds");
    }
    assert_eq!(out.trials.len(), 36, "every grid cell must solve");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    localizer
        .locate_adaptive_into(&m, &grid, &mut ws, &mut out)
        .expect("clean sweep succeeds");
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "steady-state adaptive sweep performed {during} heap allocations"
    );
    // Window-9 smoothing biases clean data slightly; only sanity here.
    assert!(out.estimate.distance_error(target) < 5e-2);

    // The SoA-staged windowed path: in steady state, pushing one read
    // into a full sliding window and re-running the windowed locate
    // (which stages the window into the workspace's SoA sample lanes,
    // unwraps, smooths, and solves) must also leave the heap untouched.
    let config = localizer.config().clone();
    let mut window = SlidingWindow::new(128).expect("valid capacity");
    let mut feed = m.iter().cycle();
    let mut tick = 0.0_f64;
    let mut push_one = |window: &mut SlidingWindow| {
        let &(p, phase) = feed.next().expect("endless feed");
        tick += 0.01;
        window.push(tick, p, phase);
    };
    for _ in 0..128 {
        push_one(&mut window);
    }
    for _ in 0..2 {
        locate_window_in(&config, SolveSpace::TwoD, &window, &mut ws).expect("clean window solves");
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    push_one(&mut window);
    let est =
        locate_window_in(&config, SolveSpace::TwoD, &window, &mut ws).expect("clean window solves");
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "steady-state windowed locate performed {during} heap allocations"
    );
    assert!(est.distance_error(target) < 1e-1);
}
