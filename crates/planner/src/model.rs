//! The cost model: turns an [`crate::estimate::OrderWalk`] into predicted
//! nanoseconds per combo.
//!
//! Parameters start at calibrated defaults and are nudged by observed
//! runs, so the model self-tunes toward the host machine without ever
//! being trained offline: the per-node cost learns from
//! `enum_ns / recursions` of every completed enumeration, and the
//! per-filter and build costs learn from every compiled plan's measured
//! filter and build times.

use crate::combo::PlanCombo;
use crate::estimate::{OrderWalk, NUM_KERNELS};
use sm_intersect::IntersectKind;
use sm_match::FilterKind;

/// Tunable model parameters. All costs are nanoseconds.
#[derive(Clone, Debug)]
pub struct ModelParams {
    /// Cost per search-tree node (bookkeeping, injectivity checks,
    /// sink dispatch). Learned online from completed runs.
    pub node_ns: f64,
    /// Cost per intersection element-op, per kernel
    /// (`[Merge, Galloping, Hybrid, Bsr]`).
    pub op_ns: [f64; NUM_KERNELS],
    /// Cost per candidate per filter refinement pass.
    pub filter_pass_ns: f64,
    /// Cost per pruned candidate for building the intersection method's
    /// auxiliary candidate space. Learned online from compiled plans.
    pub build_ns: f64,
    /// Learned filter cost per LDF candidate, per filter (in
    /// [`FilterKind::all`] order); `None` until that filter's first
    /// compile is observed.
    pub filter_ns: [Option<f64>; 7],
    /// Factor on the priors of filters not yet observed: the largest
    /// learned/prior ratio so far. Starts at 1 and only ever grows, so an
    /// unmeasured filter never looks cheaper than its prior.
    pub filter_lift: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            node_ns: 55.0,
            op_ns: [1.2, 2.2, 1.0, 0.7],
            filter_pass_ns: 7.0,
            build_ns: 14.0,
            filter_ns: [None; 7],
            filter_lift: 1.0,
        }
    }
}

/// How many refinement passes a filter performs over the candidate sets —
/// fixed structural knowledge of the seven filtering methods.
pub fn filter_rounds(f: FilterKind) -> f64 {
    match f {
        FilterKind::Ldf => 1.0,
        FilterKind::Nlf => 1.5,
        FilterKind::GraphQl => 4.0,
        FilterKind::Cfl => 3.0,
        FilterKind::Ceci => 2.5,
        FilterKind::DpIso => 3.0,
        FilterKind::Steady => 4.5,
    }
}

/// How much of the LDF candidate set survives each filter — the model's
/// prior on pruning power (Figure 5 of the study: stronger filters keep
/// roughly half to two-thirds of LDF's candidates on the benchmark
/// datasets).
pub fn filter_prune(f: FilterKind) -> f64 {
    match f {
        FilterKind::Ldf => 1.0,
        FilterKind::Nlf => 0.85,
        FilterKind::GraphQl => 0.62,
        FilterKind::Cfl => 0.66,
        FilterKind::Ceci => 0.66,
        FilterKind::DpIso => 0.64,
        FilterKind::Steady => 0.55,
    }
}

/// Candidate totals below this are not learned from: fixed per-compile
/// overheads dominate their measured times.
pub const MIN_LEARN_CANDIDATES: f64 = 256.0;

pub(crate) fn filter_slot(f: FilterKind) -> usize {
    FilterKind::all()
        .iter()
        .position(|&k| k == f)
        .expect("every filter is listed")
}

fn kernel_slot(k: IntersectKind) -> usize {
    match k {
        IntersectKind::Merge => 0,
        IntersectKind::Galloping => 1,
        IntersectKind::Hybrid => 2,
        IntersectKind::Bsr => 3,
    }
}

/// One scored combo: the model's prediction, possibly overridden by
/// per-form feedback.
#[derive(Clone, Copy, Debug)]
pub struct PlanScore {
    /// The combo scored.
    pub combo: PlanCombo,
    /// Predicted end-to-end cost (filter + build + enumeration).
    pub est_ns: f64,
    /// Predicted search-tree nodes.
    pub est_nodes: f64,
    /// Predicted backtracks — the jump-redo budget is set against this.
    pub est_backtracks: f64,
    /// The unpruned LDF candidate total the filter cost was charged on.
    pub ldf_total: f64,
    /// The predicted pruned candidate total the build cost was charged on.
    pub pruned_candidates: f64,
    /// Whether a per-canonical-form observation replaced the model's
    /// cost (cross-run feedback hit).
    pub from_feedback: bool,
}

impl ModelParams {
    /// Score one (filter, order-walk, kernel) point. `ldf_total` is the
    /// unpruned candidate total the filter itself must scan.
    pub fn score(&self, combo: PlanCombo, walk: &OrderWalk, ldf_total: f64) -> PlanScore {
        // Unobserved filters keep the prior's exact arithmetic (a lift of
        // 1 is exact), so a fresh model ranks bit-for-bit as before.
        let filter_ns = match self.filter_ns[filter_slot(combo.filter)] {
            Some(ns) => ldf_total * ns,
            None => {
                ldf_total * filter_rounds(combo.filter) * self.filter_pass_ns * self.filter_lift
            }
        };
        let build_ns = walk.pruned_candidates * self.build_ns;
        let enum_ns = walk.nodes * self.node_ns
            + walk.kernel_ops[kernel_slot(combo.kernel)] * self.op_ns[kernel_slot(combo.kernel)];
        PlanScore {
            combo,
            est_ns: filter_ns + build_ns + enum_ns,
            est_nodes: walk.nodes,
            est_backtracks: walk.backtracks,
            ldf_total,
            pruned_candidates: walk.pruned_candidates,
            from_feedback: false,
        }
    }

    /// A filter's prior cost per LDF candidate, before any observation.
    pub fn filter_prior_ns(&self, f: FilterKind) -> f64 {
        filter_rounds(f) * self.filter_pass_ns
    }

    /// Fold one compile's measured filter and build times into the
    /// per-filter and build costs (EMAs, ignoring inputs below
    /// [`MIN_LEARN_CANDIDATES`]). `score` is the ranking entry the plan
    /// was compiled from; its candidate totals normalise the times.
    pub fn learn_compile_cost(&mut self, score: &PlanScore, filter_ns: Option<u64>, build_ns: u64) {
        if let Some(filter_ns) = filter_ns.filter(|_| score.ldf_total >= MIN_LEARN_CANDIDATES) {
            let f = score.combo.filter;
            let observed = (filter_ns as f64 / score.ldf_total).clamp(0.5, 50_000.0);
            // The first observation replaces the prior outright.
            let slot = filter_slot(f);
            let learned = self.filter_ns[slot].map_or(observed, |ns| 0.8 * ns + 0.2 * observed);
            self.filter_ns[slot] = Some(learned);
            self.filter_lift = self.filter_lift.max(learned / self.filter_prior_ns(f));
        }
        if score.pruned_candidates >= MIN_LEARN_CANDIDATES {
            let observed = (build_ns as f64 / score.pruned_candidates).clamp(0.5, 50_000.0);
            self.build_ns = 0.8 * self.build_ns + 0.2 * observed;
        }
    }

    /// Fold one observed `(enum_ns, recursions)` pair into the per-node
    /// cost (EMA, ignoring tiny runs where fixed overheads dominate).
    pub fn learn_node_cost(&mut self, enum_ns: u64, recursions: u64) {
        if recursions < 512 {
            return;
        }
        let observed = enum_ns as f64 / recursions as f64;
        // Half the per-node wall time is intersection work already billed
        // to op_ns; attribute the rest to the node itself.
        self.node_ns = 0.8 * self.node_ns + 0.2 * (observed * 0.5).clamp(5.0, 5_000.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combo::ComboOrder;

    fn walk() -> OrderWalk {
        OrderWalk {
            nodes: 1_000.0,
            backtracks: 1_000.0,
            matches: 10.0,
            kernel_ops: [4_000.0, 2_000.0, 2_500.0, 3_000.0],
            pruned_candidates: 200.0,
        }
    }

    #[test]
    fn stronger_filters_cost_more_up_front() {
        let m = ModelParams::default();
        let mk = |f| PlanCombo {
            filter: f,
            order: ComboOrder::GraphQl,
            kernel: IntersectKind::Hybrid,
        };
        let w = walk();
        let ldf = m.score(mk(FilterKind::Ldf), &w, 10_000.0);
        let steady = m.score(mk(FilterKind::Steady), &w, 10_000.0);
        assert!(steady.est_ns > ldf.est_ns);
    }

    fn combo(f: FilterKind) -> PlanCombo {
        PlanCombo {
            filter: f,
            order: ComboOrder::GraphQl,
            kernel: IntersectKind::Hybrid,
        }
    }

    /// The filter cost per LDF candidate `m` charges: learned once
    /// observed, otherwise the lifted prior.
    fn charged(m: &ModelParams, f: FilterKind) -> f64 {
        m.filter_ns[filter_slot(f)].unwrap_or(m.filter_prior_ns(f) * m.filter_lift)
    }

    /// Teach `m` that `f` costs `ratio` × its prior per LDF candidate.
    fn observe_filter(m: &mut ModelParams, f: FilterKind, ratio: f64) {
        let score = m.score(combo(f), &walk(), 10_000.0);
        let ns = ratio * m.filter_prior_ns(f) * score.ldf_total;
        m.learn_compile_cost(&score, Some(ns as u64), 0);
    }

    #[test]
    fn fresh_model_scores_exactly_the_prior_formula() {
        let m = ModelParams::default();
        let w = walk();
        for c in PlanCombo::all() {
            let k = kernel_slot(c.kernel);
            let expect = 10_000.0 * filter_rounds(c.filter) * m.filter_pass_ns
                + w.pruned_candidates * m.build_ns
                + (w.nodes * m.node_ns + w.kernel_ops[k] * m.op_ns[k]);
            assert_eq!(m.score(c, &w, 10_000.0).est_ns.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn observed_filter_cost_moves_toward_measurement() {
        let mut m = ModelParams::default();
        let prior = m.filter_prior_ns(FilterKind::Ceci);
        observe_filter(&mut m, FilterKind::Ceci, 20.0);
        let once = charged(&m, FilterKind::Ceci) / prior;
        assert!((once - 20.0).abs() < 0.01, "{once}");
        observe_filter(&mut m, FilterKind::Ceci, 10.0);
        let twice = charged(&m, FilterKind::Ceci) / prior;
        assert!((twice - 18.0).abs() < 0.01, "{twice}");
    }

    #[test]
    fn unobserved_priors_lift_and_never_lower() {
        let mut m = ModelParams::default();
        // A filter cheaper than its prior lowers only its own charge.
        observe_filter(&mut m, FilterKind::Nlf, 0.1);
        assert!(charged(&m, FilterKind::Nlf) < m.filter_prior_ns(FilterKind::Nlf));
        assert_eq!(m.filter_lift, 1.0);
        assert_eq!(
            charged(&m, FilterKind::Cfl),
            m.filter_prior_ns(FilterKind::Cfl)
        );
        // A filter dearer than its prior lifts every unobserved one.
        observe_filter(&mut m, FilterKind::Ceci, 20.0);
        let lift = m.filter_lift;
        assert!(lift > 1.0);
        let cfl = charged(&m, FilterKind::Cfl);
        assert_eq!(cfl, m.filter_prior_ns(FilterKind::Cfl) * lift);
        // Later cheap observations never take the lift back.
        for _ in 0..40 {
            observe_filter(&mut m, FilterKind::Ceci, 0.1);
            observe_filter(&mut m, FilterKind::Nlf, 0.1);
        }
        assert_eq!(m.filter_lift, lift);
        assert_eq!(charged(&m, FilterKind::Cfl), cfl);
    }

    #[test]
    fn build_cost_learns_and_tiny_compiles_are_ignored() {
        let mut m = ModelParams::default();
        let w = walk(); // 200 pruned candidates: below the floor
        let score = m.score(combo(FilterKind::Ldf), &w, 100.0);
        m.learn_compile_cost(&score, Some(1_000_000), 1_000_000);
        assert_eq!(m.build_ns, ModelParams::default().build_ns);
        assert_eq!(m.filter_ns, [None; 7]);
        let big = OrderWalk {
            pruned_candidates: 10_000.0,
            ..w
        };
        let score = m.score(combo(FilterKind::Ldf), &big, 10_000.0);
        m.learn_compile_cost(&score, None, 10_000 * 100);
        assert!(m.build_ns > ModelParams::default().build_ns);
        // No filter time (homomorphism bypasses the filter): no filter
        // learning.
        assert_eq!(m.filter_ns, [None; 7]);
    }

    #[test]
    fn node_cost_learns_toward_observations() {
        let mut m = ModelParams::default();
        let before = m.node_ns;
        m.learn_node_cost(10_000_000, 10_000); // 1000 ns/node observed
        assert!(m.node_ns > before);
        let drifted = m.node_ns;
        m.learn_node_cost(100, 10); // tiny run: ignored
        assert_eq!(m.node_ns, drifted);
    }
}
