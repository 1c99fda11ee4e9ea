# Project task runner. `just verify` is the full pre-merge gate.

# Build, test, lint, check doc links, and check formatting — everything
# CI would run.
# Tests run with overflow-checks on (see [profile.test] in Cargo.toml);
# the streaming parity + backpressure suites (among them the O(delta)
# resolver's back-and-forth scan gate
# incremental_ping_pong_scan_stays_on_delta_ticks: every delta tick
# within 1e-6 of replay through the turnarounds, at most one tick in six
# replayed), the zero-allocation gates (the steady-state sweeps, the
# windowed locate and steady_state_incremental_ticks_allocate_nothing,
# the resolver's delta and resync ticks), the adaptive sweep's
# reuse and per-cell oracles, the structured-pairing oracle (the cross
# partners found once per range against the per-interval three-cursor
# pass, and the lion-core unit gate one_classification_pairs_every_interval),
# the NormalEq bit-identity proptest (`normal_eq_reloads_equal_a_fresh_load`,
# under the `normal_eq` filter: systems of every row count mod 4 loaded
# into a reused NormalEq solve, reweight and run IRLS `==` a fresh one,
# and every stored entry reads back against the plain row list) and its
# QR oracles, the
# accelerated-IRLS fixed-point oracle, the sliding window's sorted-Vec
# model proptest, the engine's serial-vs-N-workers gate for batch and
# calibration jobs, the staged-layout gates (stage_layout: staged lanes
# equal the input, a non-finite read reports its own index, the lane
# interval scan picks the point loop's pairs; the lion-core unit gates
# frame_sums_follow_the_documented_lane_order and
# pair_lanes_match_the_pair_list; the lion-linalg unit gate
# lane_sums_match_the_indexed_oracle) and the Doctor's health suite are
# named explicitly so a test-filter typo can't silently skip a
# bit-identicality gate.
# The SIMD parity binary runs unfiltered, so its kernel-vs-scalar-twin
# gates always run, among them the blocked-layout oracles
# blocked_gram_and_residuals_match_the_row_major_oracle (the Gram and
# residual kernels over blocked rows against the row-major arithmetic
# they replaced, N = 2–6) and block_rows_places_every_entry_at_its_blocked_index,
# gaussian_weights_match_scalar_across_chunk_seams,
# gram_sums_follow_the_documented_lane_order,
# radical_rows_match_scalar_for_every_frame_width_and_tail,
# radical_rows_never_write_past_the_last_row and the circular-resultant
# gates resultant_kernel_matches_scalar_at_every_tail_and_random_sizes,
# resultant_sums_follow_the_documented_lane_order,
# sin_cos_stays_within_two_ulp_of_libm_over_the_domain,
# hostile_magnitudes_fold_through_libm and the fusion probes
# gram_products_are_fused_like_mul_add,
# residual_dots_are_fused_like_mul_add, exp_is_fused_like_mul_add and
# sin_cos_is_fused_like_mul_add,
# which tell a kernel that fuses its multiply-adds like `f64::mul_add`
# from one that rounds the products first, on both backends.
# The scalar-fallback step reruns stream_parity (with the ping-pong
# gate), engine_determinism, steady_state_incremental_ticks_allocate_nothing,
# sweep_cells, structured_pairs, the staged-layout gates, the SIMD
# parity binary with its blocked-layout oracles, the lion-linalg
# proptests and lane-sum oracle, the accelerated-IRLS fixed-point oracle, the
# lion-stream estimator tests and the lion-core calibrate tests with
# LION_SIMD=scalar, so the fallback kernels (whose
# `mul_add` is a libm `fma` call on x86_64) pass the same gates from
# process start, not only under `simd::force`. The stream clock gates
# are named too: one_burst_pops_with_one_arrival_and_offer_stamps_now
# (reads offered in one burst pop with its one arrival instant, `offer`
# stamps now, shed counts match one-off offers) and
# every_solve_feeds_one_slo_sample_timed_by_the_solve_histogram (with a
# hub installed, one SLO sample per emitted estimate, each the time the
# `lion.stream.solve_ns` histogram recorded, plus one failure per solve
# error). The end-to-end
# benchmark's own tests run every
# workload at tiny scale and check the ledger identity; it sits outside
# the workspace, so it gets its own clippy step.
verify:
    cargo build --release
    cargo test --workspace -q
    cargo test -q --test stream_parity --test stream_backpressure
    cargo test -q --test engine_determinism
    cargo test -q --test tracing_causality
    cargo test -q -p lion-linalg --test proptests normal_eq
    cargo test -q -p lion-linalg --test irls_fixed_point
    cargo test -q -p lion-core --test zero_alloc --test adaptive_regression
    cargo test -q -p lion-core --test sweep_reuse --test sweep_cells --test structured_pairs
    cargo test -q -p lion-core --test stage_layout
    cargo test -q -p lion-core --lib -- frame_sums_follow_the_documented_lane_order pair_lanes_match_the_pair_list one_classification_pairs_every_interval
    cargo test -q -p lion-linalg --lib lane_sums_match_the_indexed_oracle
    cargo test -q -p lion-core --test scalar_dispatch
    cargo test -q -p lion-core --test proptests window
    cargo test -q -p lion-linalg --test simd_parity
    LION_SIMD=scalar sh -c 'cargo test -q --test stream_parity --test engine_determinism && cargo test -q -p lion-core --test zero_alloc steady_state_incremental_ticks_allocate_nothing && cargo test -q -p lion-core --test sweep_cells --test stage_layout --test structured_pairs && cargo test -q -p lion-core --lib -- frame_sums_follow_the_documented_lane_order pair_lanes_match_the_pair_list one_classification_pairs_every_interval && cargo test -q -p lion-linalg --test proptests --test simd_parity && cargo test -q -p lion-linalg --lib lane_sums_match_the_indexed_oracle && cargo test -q -p lion-linalg --test irls_fixed_point && cargo test -q -p lion-stream --lib estimator && cargo test -q -p lion-core --lib calibrate'
    cargo test -q -p lion-obs --test http_plane
    cargo test -q -p lion-stream --lib one_burst_pops_with_one_arrival_and_offer_stamps_now
    cargo test -q --test fleet_health -- fleet_rollup_is_scrapeable_and_does_not_perturb_outcomes every_solve_feeds_one_slo_sample_timed_by_the_solve_histogram
    cargo test -q --test history_determinism --test doctor
    cargo build --release --offline --manifest-path bench_e2e/Cargo.toml
    cargo test --release --offline --manifest-path bench_e2e/Cargo.toml
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy --offline --manifest-path bench_e2e/Cargo.toml --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
    cargo fmt --check

# Regenerate every paper figure.
figures:
    cargo run --release -p lion-bench --bin run_experiments -- all

# Tracked benchmarks: run the solver, streaming-resolve, and
# SIMD-kernel bench bins and diff against the
# committed baselines (generous 3× regression threshold; speedup ratios
# must stay near their committed values, and the kernel bench enforces
# the absolute 700 µs single-solve / 14 672 ns incremental budgets).
# Each check refuses — exit 0, not failure — when the committed
# baseline's env block (machine, rustc, CPU features, SIMD backend)
# doesn't match this machine; regenerate with `just bench-write` first.
bench:
    cargo run --release -p lion-bench --bin bench_solvers -- --check BENCH_6.json
    cargo run --release -p lion-bench --bin bench_stream_resolve -- --check BENCH_8.json
    cargo run --release -p lion-bench --bin bench_kernels -- --check BENCH_10.json

# Regenerate the committed benchmark baselines. Run on a quiet machine
# and eyeball the diff before committing.
bench-write:
    cargo run --release -p lion-bench --bin bench_solvers -- --write BENCH_6.json
    cargo run --release -p lion-bench --bin bench_stream_resolve -- --write BENCH_8.json
    cargo run --release -p lion-bench --bin bench_kernels -- --write BENCH_10.json

# SIMD kernel bench compiled for this exact CPU (`-C target-cpu=native`
# lets LLVM use every feature the host has, beyond the portable AVX2/NEON
# dispatch). Numbers are NOT comparable to the committed baselines —
# print-only, no --check, never `--write` from here.
bench-native:
    RUSTFLAGS="-C target-cpu=native" cargo run --release -p lion-bench --bin bench_kernels

# Run the Criterion microbenchmarks (solver, hologram, engine batch, ...).
microbench:
    cargo bench --workspace

# Streaming pipeline benchmarks only: throughput across window sizes,
# window-maintenance cost per read at capacities 256, 512 and 4096 (a
# push is O(1), so it should not grow with the window), and single
# windowed re-solve latency. Print-only; no committed baseline.
stream-bench:
    cargo bench -p lion-bench --bench stream

# Run the conveyor batch and export its telemetry (JSON-lines registry
# snapshot + Prometheus text exposition) to target/telemetry/.
telemetry:
    cargo run --release --example conveyor_batch -- target/telemetry

# Record a causally-traced conveyor_stream run: Chrome trace-event JSON
# (load target/trace/*.trace.json at https://ui.perfetto.dev), the
# calibration HealthReport, and the registry snapshot.
trace:
    cargo run --release --example conveyor_stream -- --trace target/trace

# Live telemetry plane for manual poking: run the twelve-portal fleet
# under the HTTP scrape server, with the embedded TSDB sampling in the
# background, and hold until Enter. Scrape /metrics /health /snapshot
# /trace /profile /query on the printed port; range-query stored series
# with `curl 'http://127.0.0.1:9184/query?series=<name>&tier=raw'`.
# Alert rules for a Prometheus scraper: deploy/prometheus/lion-rules.yml.
serve:
    cargo run --release --example conveyor_stream -- --serve 127.0.0.1:9184 --hold
