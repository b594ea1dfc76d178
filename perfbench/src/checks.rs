//! Output checks. Each returns the list of violations it found; the
//! caller counts an op with any violation as failed.

use waso::algos::{SolveResult, Termination};
use waso::core::willingness;
use waso::graph::{traversal, NodeId, SocialGraph};
use waso_serve::Response;

/// One answer as the benchmark sees it, from a direct solve or a serve
/// `DONE`. Serve answers carry no per-solve stats beyond `samples`.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub nodes: Vec<u32>,
    pub willingness: f64,
    pub completed: bool,
    pub samples: u64,
    pub pruned: Option<u32>,
    pub backtracks: Option<u32>,
    pub solver_ms: Option<f64>,
}

impl Answer {
    pub fn from_result(r: &SolveResult) -> Self {
        Self {
            nodes: r.group.nodes().iter().map(|v| v.0).collect(),
            willingness: r.group.willingness(),
            completed: r.stats.termination == Termination::Completed,
            samples: r.stats.samples_drawn,
            pruned: Some(r.stats.pruned_start_nodes),
            backtracks: Some(r.stats.backtracks),
            solver_ms: Some(r.stats.elapsed.as_secs_f64() * 1e3),
        }
    }

    pub fn from_done(r: &Response) -> Option<Self> {
        match r {
            Response::Done {
                termination,
                willingness,
                nodes,
                samples,
            } => Some(Self {
                nodes: nodes.clone(),
                willingness: *willingness,
                completed: *termination == Termination::Completed,
                samples: *samples,
                pruned: None,
                backtracks: None,
                solver_ms: None,
            }),
            _ => None,
        }
    }

    /// Bit-for-bit equality of everything two solves of one key must
    /// share (timings excluded).
    pub fn same_solution(&self, other: &Answer) -> bool {
        self.nodes == other.nodes
            && self.willingness.to_bits() == other.willingness.to_bits()
            && self.completed == other.completed
            && self.samples == other.samples
            && (self.pruned.is_none() || other.pruned.is_none() || self.pruned == other.pruned)
            && (self.backtracks.is_none()
                || other.backtracks.is_none()
                || self.backtracks == other.backtracks)
    }
}

/// The per-answer checks: k members, contains the organizer, connected,
/// completed, and a reported W equal to `willingness` recomputed on `g`,
/// the graph the answer was solved against.
pub fn check_answer(g: &SocialGraph, k: usize, organizer: NodeId, a: &Answer) -> Vec<String> {
    let mut bad = Vec::new();
    let nodes: Vec<NodeId> = a.nodes.iter().map(|&v| NodeId(v)).collect();
    if nodes.len() != k {
        bad.push(format!("group has {} members, want {k}", nodes.len()));
    }
    if !a.nodes.contains(&organizer.0) {
        bad.push(format!("group omits organizer {}", organizer.0));
    }
    if nodes.iter().any(|v| v.index() >= g.num_nodes()) {
        bad.push("group names an unknown node".into());
        return bad;
    }
    if !traversal::is_connected_subset(g, &nodes) {
        bad.push("group is not connected".into());
    }
    if !a.completed {
        bad.push("solve did not complete".into());
    }
    let w = willingness(g, &nodes);
    if w.to_bits() != a.willingness.to_bits() {
        bad.push(format!("reported W {} != recomputed W {w}", a.willingness));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso::prelude::WasoSession;

    fn solved() -> (SocialGraph, NodeId, Answer) {
        let g = waso::datasets::synthetic::facebook_like_n(300, 5);
        let organizer = NodeId(17);
        let session = WasoSession::new(g.clone()).k(6).seed(3);
        let r = session
            .solve_str("cbas-nd:budget=200,stages=4,start-nodes=4,require=17")
            .expect("solve");
        (g, organizer, Answer::from_result(&r))
    }

    #[test]
    fn a_real_answer_passes() {
        let (g, organizer, a) = solved();
        assert_eq!(check_answer(&g, 6, organizer, &a), Vec::<String>::new());
    }

    #[test]
    fn planted_wrong_answers_fail() {
        let (g, organizer, good) = solved();
        let mut perturbed = good.clone();
        perturbed.willingness = f64::from_bits(good.willingness.to_bits() + 1);
        let mut no_organizer = good.clone();
        let outsider = (0..g.num_nodes() as u32)
            .find(|v| !good.nodes.contains(v))
            .expect("an outsider");
        no_organizer.nodes.retain(|&v| v != organizer.0);
        no_organizer.nodes.push(outsider);
        let mut short = good.clone();
        short.nodes.pop();
        let mut cut_short = good.clone();
        cut_short.completed = false;
        for planted in [perturbed, no_organizer, short, cut_short] {
            assert!(
                !check_answer(&g, 6, organizer, &planted).is_empty(),
                "planted wrong answer passed: {planted:?}"
            );
            assert!(!planted.same_solution(&good));
        }
    }
}
