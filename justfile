# Project task runner. `just verify` is the full pre-merge gate.

# Build, test, lint, check doc links, and check formatting — everything
# CI would run.
# Tests run with overflow-checks on (see [profile.test] in Cargo.toml);
# the streaming parity + backpressure suites, the adaptive sweep's
# reuse and per-cell oracles, the structured-pairing oracle, the
# accelerated-IRLS fixed-point oracle, the sliding window's sorted-Vec
# model proptest, the engine's serial-vs-N-workers gate for batch and
# calibration jobs and the Doctor's health suite are named explicitly
# so a test-filter typo can't silently skip a bit-identicality gate. The end-to-end benchmark's own tests run every
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
    cargo test -q -p lion-core --test scalar_dispatch
    cargo test -q -p lion-core --test proptests window
    cargo test -q -p lion-linalg --test simd_parity
    cargo test -q -p lion-obs --test http_plane
    cargo test -q --test fleet_health
    cargo test -q --test alerts_history --test doctor
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
# under the HTTP scrape server and hold until Enter. Scrape
# /metrics /health /snapshot /trace /profile /query /alerts on the
# printed port.
serve:
    cargo run --release --example conveyor_stream -- --serve 127.0.0.1:9184 --hold

# Metrics-history & alerting demo: same fleet as `just serve` with the
# embedded TSDB sampling in the background; range-query stored series
# with `curl 'http://127.0.0.1:9184/query?series=<name>&tier=raw'` and
# watch alert states at /alerts while it holds.
alerts:
    cargo run --release --example conveyor_stream -- --serve 127.0.0.1:9184 --hold
