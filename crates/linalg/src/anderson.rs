//! Depth-2 Anderson acceleration of the IRLS reweighting fixed point.
//!
//! One IRLS reweight is a map `x ↦ G(x)`: weights from the residuals at
//! `x`, then the weighted solve. Plain IRLS iterates `xₖ₊₁ = G(xₖ)`, which
//! converges only linearly (each step shrinks `‖G(x) − x‖∞` by a roughly
//! constant ratio). Anderson acceleration (Walker & Ni, SIAM J. Numer.
//! Anal. 49(4), 2011) extrapolates from the last few steps instead: with
//! `fₖ = G(xₖ) − xₖ` and the difference columns `ΔF`, `ΔG` of the recent
//! `f`s and `g`s, it picks `γ = argmin ‖fₖ − ΔF·γ‖₂` and steps to
//! `xₖ₊₁ = G(xₖ) − ΔG·γ`. The fixed point is the same; only the path to
//! it changes.
//!
//! The unknown vector has at most five entries (2D/3D position, the
//! reference distance), so the `≤ 2 × 2` least-squares problem is pure
//! scalar arithmetic on a handful of numbers: no kernel, no allocation
//! once the history buffers have grown.

/// How many past differences the step mixes. Depth 2 already captures
/// the one or two slow directions IRLS has on the paper's 3–4 column
/// systems; deeper histories only add ill-conditioned columns.
const DEPTH: usize = 2;

/// Relative determinant below which the 2×2 normal matrix `ΔFᵀΔF` counts
/// as singular: `det ≤ SINGULAR · a₁₁·a₂₂` means the two difference
/// columns are parallel to within `sin²θ ≤ SINGULAR`, and γ would
/// amplify rounding noise instead of extrapolating.
const SINGULAR: f64 = 1e-10;

/// History of the accelerated iteration: the previous `f` and `g`, and up
/// to [`DEPTH`] difference columns, newest first. Lives in the IRLS
/// scratch, so its buffers are reused across solves.
#[derive(Debug, Clone, Default)]
pub(crate) struct Anderson {
    f_prev: Vec<f64>,
    g_prev: Vec<f64>,
    df: [Vec<f64>; DEPTH],
    dg: [Vec<f64>; DEPTH],
    /// Stored difference columns (0..=DEPTH).
    columns: usize,
    /// Whether `f_prev`/`g_prev` hold a previous step.
    has_prev: bool,
    /// `‖f_prev‖∞`, for the restart test.
    f_prev_norm: f64,
}

impl Anderson {
    /// Forgets every earlier step: the next [`Anderson::step`] is plain.
    pub(crate) fn reset(&mut self) {
        self.columns = 0;
        self.has_prev = false;
    }

    /// Given the current iterate `x` and its image `g = G(x)`, overwrites
    /// `x` with the next iterate.
    ///
    /// - The step is `x ← g − ΔG·γ`, with γ minimizing `‖f − ΔF·γ‖₂`
    ///   over the stored differences (`f = g − x`).
    /// - It is plain (`x ← g`) on the first call after a reset and
    ///   whenever the least-squares system for γ is singular.
    /// - When `‖f‖∞` grew since the previous call, the history restarts
    ///   from the newest difference alone. Clearing it outright would
    ///   make the next step plain, and where plain IRLS oscillates away
    ///   from the fixed point, every growth would wipe the one secant
    ///   that could see it.
    pub(crate) fn step(&mut self, x: &mut [f64], g: &[f64]) {
        let n = x.len();
        debug_assert_eq!(g.len(), n);
        let f_norm = x
            .iter()
            .zip(g)
            .fold(0.0_f64, |m, (xi, gi)| m.max((gi - xi).abs()));
        if self.has_prev {
            if f_norm > self.f_prev_norm {
                // Restart: the older differences led away from the fixed
                // point. Only the newest one below survives.
                self.columns = 0;
            }
            // Newest difference column into slot 0, the older one (if
            // any) shifts to slot 1.
            self.df.rotate_right(1);
            self.dg.rotate_right(1);
            self.df[0].clear();
            self.df[0].extend(
                x.iter()
                    .zip(g)
                    .zip(&self.f_prev)
                    .map(|((xi, gi), fp)| (gi - xi) - fp),
            );
            self.dg[0].clear();
            self.dg[0].extend(g.iter().zip(&self.g_prev).map(|(gi, gp)| gi - gp));
            self.columns = (self.columns + 1).min(DEPTH);
        }
        self.f_prev.clear();
        self.f_prev.extend(x.iter().zip(g).map(|(xi, gi)| gi - xi));
        self.g_prev.clear();
        self.g_prev.extend_from_slice(g);
        self.f_prev_norm = f_norm;
        self.has_prev = true;

        x.copy_from_slice(g);
        let f = &self.f_prev;
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(p, q)| p * q).sum::<f64>();
        match self.columns {
            1 => {
                let a11 = dot(&self.df[0], &self.df[0]);
                if a11 > 0.0 {
                    let gamma = dot(&self.df[0], f) / a11;
                    for (xi, d) in x.iter_mut().zip(&self.dg[0]) {
                        *xi -= gamma * d;
                    }
                }
            }
            2 => {
                let a11 = dot(&self.df[0], &self.df[0]);
                let a12 = dot(&self.df[0], &self.df[1]);
                let a22 = dot(&self.df[1], &self.df[1]);
                let det = a11 * a22 - a12 * a12;
                // `!(det > …)` also sends NaN to the plain step.
                if det > SINGULAR * a11 * a22 {
                    let b1 = dot(&self.df[0], f);
                    let b2 = dot(&self.df[1], f);
                    let gamma1 = (a22 * b1 - a12 * b2) / det;
                    let gamma2 = (a11 * b2 - a12 * b1) / det;
                    for ((xi, d1), d2) in x.iter_mut().zip(&self.dg[0]).zip(&self.dg[1]) {
                        *xi -= gamma1 * d1 + gamma2 * d2;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear contraction `G(x) = M·x + c` with fixed point `x*`.
    fn linear_map(x: &[f64]) -> Vec<f64> {
        // Eigenvalues 0.9 and 0.5: plain iteration needs ~170 steps for
        // 1e-8, a depth-2 secant method solves a 2D affine map exactly.
        let (m, c) = ([[0.9, 0.0], [0.0, 0.5]], [0.1, 1.0]);
        vec![
            m[0][0] * x[0] + m[0][1] * x[1] + c[0],
            m[1][0] * x[0] + m[1][1] * x[1] + c[1],
        ]
    }

    #[test]
    fn solves_an_affine_map_in_depth_plus_one_steps() {
        let mut acc = Anderson::default();
        let mut x = vec![0.0, 0.0];
        for _ in 0..DEPTH + 1 {
            let g = linear_map(&x);
            acc.step(&mut x, &g);
        }
        // x* = (I − M)⁻¹c = (1, 2).
        assert!(
            (x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12,
            "{x:?}"
        );
    }

    #[test]
    fn parallel_differences_take_the_plain_step() {
        // One unknown: every pair of difference columns is parallel, so
        // once two are stored the 2×2 system is singular and the step
        // must be exactly x ← g.
        let map = |x: f64| 0.5 * x + 1.0;
        let mut acc = Anderson::default();
        let mut x = vec![10.0];
        for _ in 0..2 {
            let g = [map(x[0])];
            acc.step(&mut x, &g);
        }
        assert_eq!(acc.columns, 1);
        // Perturb the iterate so the map is no longer solved exactly.
        x[0] += 0.25;
        let g = [map(x[0])];
        acc.step(&mut x, &g);
        assert_eq!(acc.columns, 2);
        assert_eq!(x, g);
    }

    #[test]
    fn growing_step_restarts_the_history() {
        let mut acc = Anderson::default();
        let mut x = vec![0.0, 0.0];
        for _ in 0..2 {
            let g = linear_map(&x);
            acc.step(&mut x, &g);
        }
        assert_eq!(acc.columns, 1);
        // An image further away than the last one: the older column is
        // dropped, the newest difference alone drives the step.
        let g = vec![x[0] + 100.0, x[1]];
        acc.step(&mut x, &g);
        assert_eq!(acc.columns, 1);
        assert_ne!(x, g);
    }

    #[test]
    fn first_step_and_step_after_reset_are_plain() {
        let mut acc = Anderson::default();
        let mut x = vec![0.0, 0.0];
        let g = linear_map(&x);
        acc.step(&mut x, &g);
        assert_eq!(x, g);
        let g = linear_map(&x);
        acc.step(&mut x, &g);
        assert_eq!(acc.columns, 1);
        acc.reset();
        let g = linear_map(&x);
        acc.step(&mut x, &g);
        assert_eq!(x, g);
    }
}
