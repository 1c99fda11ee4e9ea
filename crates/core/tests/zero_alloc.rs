//! The steady-state adaptive sweep must not touch the heap.
//!
//! A counting global allocator wraps the system allocator; after two
//! warm-up sweeps size every workspace buffer and intern the telemetry
//! keys, a third sweep over the same workload must perform **zero**
//! allocations. Covered: the 2D `Interval` sweep, the windowed locate,
//! and the 3D `StructuredScan` calibration sweep on a scan shorter than
//! the widest range (so ranges are copied, not only solved). Runs
//! single-threaded by construction (one test in this binary), so the
//! counter observes only the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::f64::consts::{PI, TAU};
use std::sync::atomic::{AtomicU64, Ordering};

use lion_core::{
    AdaptiveConfig, AdaptiveOutcome, Localizer, LocalizerConfig, PairStrategy, SlidingWindow,
    SolveSpace, Workspace,
};
use lion_geom::{Point3, ThreeLineScan, Trajectory};

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
    let localizer = Localizer::new(config, SolveSpace::TwoD);
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
        localizer
            .locate_window_in(&window, &mut ws)
            .expect("clean window solves");
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    push_one(&mut window);
    let est = localizer
        .locate_window_in(&window, &mut ws)
        .expect("clean window solves");
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "steady-state windowed locate performed {during} heap allocations"
    );
    assert!(est.distance_error(target) < 1e-1);

    // The calibration sweep: 3D, `StructuredScan` pairs on the paper's
    // 0.8 m three-line scan, the default grid. Ranges 0.9–1.1 m keep the
    // whole scan, so they copy the 0.8 m range's trials.
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let antenna = Point3::new(0.03, 0.8, 0.12);
    let path = scan.to_path();
    let m: Vec<(Point3, f64)> = (0..=(path.length() / 0.002) as usize)
        .map(|i| {
            let p = path.position(i as f64 * 0.002);
            (p, (4.0 * PI * antenna.distance(p) / LAMBDA).rem_euclid(TAU))
        })
        .collect();
    let localizer = Localizer::new(
        LocalizerConfig {
            pair_strategy: PairStrategy::StructuredScan {
                scan,
                x_interval: 0.2,
                tolerance: 0.003,
            },
            side_hint: Some(Point3::new(0.0, 0.8, 0.1)),
            ..LocalizerConfig::default()
        },
        SolveSpace::ThreeD,
    );
    for _ in 0..2 {
        localizer
            .locate_adaptive_into(&m, &grid, &mut ws, &mut out)
            .expect("clean 3D sweep succeeds");
    }
    ws.take_metrics();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    localizer
        .locate_adaptive_into(&m, &grid, &mut ws, &mut out)
        .expect("clean 3D sweep succeeds");
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "steady-state 3D StructuredScan sweep performed {during} heap allocations"
    );
    assert!(
        ws.metrics().adaptive_cells_reused > 0,
        "ranges must be copied"
    );
    assert!(out.estimate.distance_error(antenna) < 5e-2);
}
