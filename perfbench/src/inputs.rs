//! Seeded inputs: the graph file, the organizer sequence and the delta
//! sequence. Everything here is a pure function of `(seed, scale)`; the
//! program under test only ever sees what this module produces.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use waso::graph::{io, GraphDelta, NodeId, SocialGraph};

/// Input sizes. `FULL` is the recorded scale; `TINY` exists so the
/// self-test can run every workload in a few seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Nodes of the facebook-like graph.
    pub n: usize,
    /// Group size.
    pub k: usize,
    /// Ops every timed phase must complete: 200 leaves 10 ops beyond p95.
    pub min_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Ops whose inputs the traced run replays into the kernels.
    pub replay_ops: usize,
    /// Longest the timed phase may run before it is cut and counted failed.
    pub max_timed_s: f64,
}

pub const FULL: Scale = Scale {
    n: 20_000,
    k: 10,
    min_ops: 200,
    setup_reps: 5,
    replay_ops: 16,
    max_timed_s: 60.0,
};

#[cfg(test)]
pub const TINY: Scale = Scale {
    n: 400,
    k: 6,
    min_ops: 12,
    setup_reps: 2,
    replay_ops: 4,
    max_timed_s: 30.0,
};

/// Deltas generated per run; more than any run at `FULL` can consume.
const MAX_DELTAS: usize = 4000;

pub struct Inputs {
    /// The graph file in the `waso-graph v1` text format.
    pub graph_path: PathBuf,
    /// Distinct organizers in the order ops consume them; `[0]` is the
    /// warm-up op's.
    pub organizers: Vec<NodeId>,
    /// Deltas in application order, each valid against the graph all
    /// earlier ones produce; `[0]` is the warm-up op's.
    pub deltas: Vec<GraphDelta>,
}

/// A SplitMix-style mix so each use of the seed draws its own stream.
pub fn stream(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the graph. Every run measures the same graph; the workload
/// seed draws the organizers and the deltas. Graphs of different seeds
/// differ in mean W by about 5% (one standard deviation), which would
/// otherwise swamp any change in the quality a solver finds.
const GRAPH_SEED: u64 = 1;

/// Generates the graph, writes it to `dir`, and derives the organizer
/// and delta sequences, the graph's from a fixed seed and the rest from
/// `seed`.
pub fn generate(seed: u64, scale: &Scale, dir: &Path) -> Result<Inputs, String> {
    let graph = waso::datasets::synthetic::facebook_like_n(scale.n, stream(GRAPH_SEED, 1));
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let graph_path = dir.join("graph.waso");
    std::fs::write(&graph_path, io::to_string(&graph))
        .map_err(|e| format!("writing {}: {e}", graph_path.display()))?;

    let organizers = organizers(&graph, scale, stream(seed, 2));
    let mut gen = DeltaGen::new(&graph, scale.k, stream(seed, 3));
    let deltas = (0..MAX_DELTAS).map(|_| gen.next_delta()).collect();
    Ok(Inputs {
        graph_path,
        organizers,
        deltas,
    })
}

/// The organizer sequence: every node of degree >= k-1, each once. An
/// organizer of degree >= k-1 always has a component of >= k nodes, and
/// `DeltaGen` never drops such a node below k-1.
///
/// The ops every run of a seed shares (`Run::prefix`, organizers 1 to
/// `min_ops`) form a stratified sample: the organizers are ranked by the
/// W of a greedy group grown from each, which predicts the solvers' W
/// closely, cut into `min_ops` equal strata, and one organizer is drawn
/// from each. The strata are visited in a golden-ratio order, so the
/// shorter prefix of serve-loopback (whose every 4th op is a repeat) is
/// spread over the whole range too. Mean W then varies little between
/// seeds. Organizer 0 (the warm-up) and those after the prefix are in
/// random order.
fn organizers(graph: &SocialGraph, scale: &Scale, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ranked: Vec<(f64, NodeId)> = {
        let mut grow = Greedy::new(graph.num_nodes());
        graph
            .node_ids()
            .filter(|&v| graph.degree(v) + 1 >= scale.k)
            .map(|v| (grow.willingness(graph, v, scale.k), v))
            .collect()
    };
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let strata = scale.min_ops.min(ranked.len() / 2);
    let offset: f64 = rng.random_range(0.0..1.0);
    let mut order: Vec<usize> = (0..strata).collect();
    let golden = |i: usize| (offset + i as f64 * 0.618_033_988_749_894_9).fract();
    order.sort_by(|&a, &b| golden(a).total_cmp(&golden(b)));
    let mut picked = vec![false; ranked.len()];
    let mut prefix = Vec::with_capacity(strata);
    for i in order {
        let (lo, hi) = (i * ranked.len() / strata, (i + 1) * ranked.len() / strata);
        let j = rng.random_range(lo..hi);
        picked[j] = true;
        prefix.push(ranked[j].1);
    }
    let mut rest: Vec<NodeId> = ranked
        .iter()
        .zip(&picked)
        .filter(|(_, &p)| !p)
        .map(|(&(_, v), _)| v)
        .collect();
    for i in (1..rest.len()).rev() {
        let j = rng.random_range(0..=i);
        rest.swap(i, j);
    }
    let mut out = Vec::with_capacity(ranked.len());
    out.extend(rest.first().copied());
    out.extend(prefix);
    out.extend(rest.iter().skip(1).copied());
    out
}

/// Grows a group from one node by adding, k-1 times, the neighbour of
/// the group with the largest marginal gain `η_u + Σ (τ_{u,j} + τ_{j,u})`
/// (ties to the lower id). Its W ranks organizers for stratification.
struct Greedy {
    /// Gain of each frontier node; NaN outside the frontier.
    gain: Vec<f64>,
    frontier: Vec<u32>,
    members: Vec<u32>,
}

impl Greedy {
    fn new(n: usize) -> Self {
        Self {
            gain: vec![f64::NAN; n],
            frontier: Vec::new(),
            members: Vec::new(),
        }
    }

    fn willingness(&mut self, g: &SocialGraph, v: NodeId, k: usize) -> f64 {
        self.members.clear();
        let mut w = 0.0;
        let mut next = Some((v.0, g.interest(v)));
        while let Some((u, du)) = next.take() {
            w += du;
            self.members.push(u);
            self.gain[u as usize] = f64::NEG_INFINITY;
            for (j, _, pair) in g.neighbor_entries(NodeId(u)) {
                let gj = &mut self.gain[j.index()];
                if gj.is_nan() {
                    *gj = g.interest(j);
                    self.frontier.push(j.0);
                }
                *gj += pair;
            }
            if self.members.len() < k {
                next = self
                    .frontier
                    .iter()
                    .map(|&j| (j, self.gain[j as usize]))
                    .filter(|&(_, gj)| gj > f64::NEG_INFINITY)
                    .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
            }
        }
        for &j in self.frontier.iter().chain(&self.members) {
            self.gain[j as usize] = f64::NAN;
        }
        self.frontier.clear();
        w
    }
}

/// Draws valid deltas of all four kinds against a mirror of the graph's
/// edge set, so no delta needs a CSR rebuild to be generated.
struct DeltaGen {
    rng: StdRng,
    k: usize,
    interest: Vec<f64>,
    /// Edges as `(min, max, tau_min_max, tau_max_min)`; removal swaps.
    edges: Vec<(u32, u32, f64, f64)>,
    present: HashSet<(u32, u32)>,
    adjacency: Vec<Vec<u32>>,
}

impl DeltaGen {
    fn new(g: &SocialGraph, k: usize, seed: u64) -> Self {
        let edges: Vec<(u32, u32, f64, f64)> = g
            .undirected_edges()
            .map(|(u, v, a, b)| (u.0, v.0, a, b))
            .collect();
        Self {
            rng: StdRng::seed_from_u64(seed),
            k,
            interest: g.interests().to_vec(),
            present: edges.iter().map(|&(u, v, _, _)| (u, v)).collect(),
            adjacency: g.node_ids().map(|v| g.neighbors(v).to_vec()).collect(),
            edges,
        }
    }

    fn next_delta(&mut self) -> GraphDelta {
        loop {
            let kind = self.rng.random_range(0..4u32);
            let delta = match kind {
                0 => self.add_edge(),
                1 => self.remove_edge(),
                2 => Some(self.set_interest()),
                _ => Some(self.set_tightness()),
            };
            if let Some(d) = delta {
                return d;
            }
        }
    }

    fn node(&mut self) -> u32 {
        self.rng.random_range(0..self.interest.len() as u32)
    }

    /// A friend of a friend (triadic closure), with the tightness pair
    /// of an existing edge so magnitudes stay realistic.
    fn add_edge(&mut self) -> Option<GraphDelta> {
        let u = self.node();
        let via = *pick(&mut self.rng, &self.adjacency[u as usize])?;
        let v = *pick(&mut self.rng, &self.adjacency[via as usize])?;
        let key = (u.min(v), u.max(v));
        if u == v || self.present.contains(&key) {
            return None;
        }
        let (_, _, a, b) = self.edges[self.rng.random_range(0..self.edges.len())];
        self.present.insert(key);
        self.edges.push((key.0, key.1, a, b));
        self.adjacency[u as usize].push(v);
        self.adjacency[v as usize].push(u);
        Some(GraphDelta::AddEdge {
            u: NodeId(u),
            v: NodeId(v),
            tau_uv: a,
            tau_vu: b,
        })
    }

    /// Removes an edge only when both endpoints keep degree >= k-1, so
    /// every eligible organizer stays feasible.
    fn remove_edge(&mut self) -> Option<GraphDelta> {
        let i = self.rng.random_range(0..self.edges.len());
        let (u, v, _, _) = self.edges[i];
        if self.adjacency[u as usize].len() < self.k || self.adjacency[v as usize].len() < self.k {
            return None;
        }
        self.edges.swap_remove(i);
        self.present.remove(&(u, v));
        self.adjacency[u as usize].retain(|&x| x != v);
        self.adjacency[v as usize].retain(|&x| x != u);
        Some(GraphDelta::RemoveEdge {
            u: NodeId(u),
            v: NodeId(v),
        })
    }

    fn set_interest(&mut self) -> GraphDelta {
        let v = self.node();
        let factor = self.rng.random_range(0.5..2.0);
        let interest = self.interest[v as usize] * factor;
        self.interest[v as usize] = interest;
        GraphDelta::SetInterest {
            v: NodeId(v),
            interest,
        }
    }

    fn set_tightness(&mut self) -> GraphDelta {
        let i = self.rng.random_range(0..self.edges.len());
        let fa = self.rng.random_range(0.5..2.0);
        let fb = self.rng.random_range(0.5..2.0);
        let e = &mut self.edges[i];
        e.2 *= fa;
        e.3 *= fb;
        GraphDelta::SetTightness {
            u: NodeId(e.0),
            v: NodeId(e.1),
            tau_uv: e.2,
            tau_vu: e.3,
        }
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        items.get(rng.random_range(0..items.len()))
    }
}
