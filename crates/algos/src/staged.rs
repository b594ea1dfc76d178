//! `StagedSolver` — the paper's staged-sampling family as one solver.
//!
//! CBAS (§3), CBAS-ND (§4), CBAS-ND-G (Appendix A) and their §5.3.1
//! multi-threaded runs differ only along the
//! [`crate::engine::StagedEngine`]'s axes, so one solver struct covers
//! them all: its configuration is a [`CbasConfig`], a [`Distribution`],
//! an [`Allocation`], an optional worker count and an optional warm-start
//! incumbent. The registry entries `cbas`, `cbas-nd` and `cbas-nd-g` are
//! presets of it ([`StagedSolver::cbas`], [`StagedSolver::cbas_nd`]), and
//! `cbas-nd-par`/`parallel` are aliases of `cbas-nd`.
//!
//! "Since CBAS and CBAS-ND natively support parallelization, we also
//! implemented them with OpenMP." With `threads=N` a stage's samples fan
//! out across the workers of a [`SharedPool`] at **sample granularity** —
//! necessary because the OCBA allocation concentrates most of a stage's
//! budget on the incumbent start node, which would serialize any
//! per-start-node split. A session solve runs as a job of the session's
//! pool; a one-shot solve with no pool spawns a transient
//! `SharedPool::new(N)` for that solve alone. Every `(start node, stage,
//! sample)` triple draws from its own RNG stream and the engine merges in
//! sample order, so the answer is **bit-identical for any worker count**,
//! serial included (tested here and by the `tests/properties.rs`
//! proptests). The paper reports a 7.6× speedup on 8 cores; the Figure
//! 5(d) harness sweeps the same thread counts on whatever cores this
//! machine has.

use std::sync::Arc;

use waso_core::{Group, WasoInstance};
use waso_graph::NodeId;

use crate::cbas::CbasConfig;
use crate::cbasnd::CbasNdConfig;
use crate::engine::{Distribution, StagedEngine, StartMode};
use crate::gaussian::Allocation;
use crate::{Capabilities, JobControl, SharedPool, SolveError, SolveResult, Solver};

/// The staged-sampling solver: a configured [`StagedEngine`] plus the
/// worker count of its pooled backend (`None`: serial).
#[derive(Debug, Clone)]
pub struct StagedSolver {
    engine: StagedEngine,
    threads: Option<usize>,
}

impl StagedSolver {
    /// CBAS (§3): uniform candidate selection, uniform-OCBA allocation.
    pub fn cbas(config: CbasConfig) -> Self {
        Self {
            engine: StagedEngine::new(config, Distribution::Uniform),
            threads: None,
        }
    }

    /// CBAS-ND (§4): cross-entropy neighbour differentiation with the
    /// config's allocation rule — uniform OCBA, or Gaussian for
    /// CBAS-ND-G.
    pub fn cbas_nd(config: CbasNdConfig) -> Self {
        Self {
            engine: StagedEngine::from_cbasnd(&config),
            threads: None,
        }
    }

    /// Fans each stage out across `threads` pool workers (clamped to
    /// ≥ 1). Same answer as the serial solver for any count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The start mode for `required`, or why the solve cannot honour it.
    fn mode<'r>(
        &self,
        instance: &WasoInstance,
        required: &'r [NodeId],
    ) -> Result<StartMode<'r>, SolveError> {
        if required.is_empty() {
            return Ok(StartMode::Fresh);
        }
        if !self.capabilities().required_attendees {
            return Err(SolveError::RequiredUnsupported {
                solver: self.name(),
            });
        }
        if required.len() > instance.k() {
            return Err(SolveError::NoFeasibleGroup);
        }
        Ok(StartMode::Partial(required))
    }
}

impl Solver for StagedSolver {
    fn name(&self) -> &'static str {
        match (self.engine.distribution, self.engine.allocation) {
            (Distribution::Uniform, _) => "cbas",
            (Distribution::CrossEntropy { .. }, Allocation::UniformOcba) => "cbas-nd",
            (Distribution::CrossEntropy { .. }, Allocation::Gaussian) => "cbas-nd-g",
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            // Partial-solution growth is the cross-entropy family's
            // §4.4.1 feature; CBAS proper rejects required attendees.
            required_attendees: matches!(
                self.engine.distribution,
                Distribution::CrossEntropy { .. }
            ),
            // Instance-accurate: only a threads-configured solver fans
            // out (the registry entries advertise the knob itself).
            parallel: self.threads.is_some(),
            randomized: true,
            anytime: true,
            warm_start: true,
            ..Capabilities::default()
        }
    }

    /// Stores the incumbent; every later solve seeds its best-so-far from
    /// it when it is feasible (see [`StagedEngine::warm_start`]). The
    /// sample stream is untouched, so a warm-started solve is a pure
    /// function of (instance, config, seed, incumbent) at any worker
    /// count.
    fn warm_start(&mut self, incumbent: &Group) {
        self.engine.warm_start(incumbent.nodes().to_vec());
    }

    fn solve_seeded(
        &mut self,
        instance: &WasoInstance,
        seed: u64,
    ) -> Result<SolveResult, SolveError> {
        self.solve_with_required(instance, &[], seed)
    }

    /// Solves with *required attendees* (CBAS-ND family): every sample
    /// grows from the given partial solution, so all `required` nodes
    /// appear in the answer. This powers the §4.4.1 online extension (the
    /// confirmed attendees are required) and the §6 future-work item
    /// "allow users to specify some attendees that must be included in a
    /// certain group activity".
    ///
    /// `required` must contain no duplicates or blocked nodes and have at
    /// most `k` members. The required set itself need not be connected —
    /// feasibility of the full group is validated on the way out
    /// (`Err(SolveError::NoFeasibleGroup)` when no sample can connect
    /// everything).
    fn solve_with_required(
        &mut self,
        instance: &WasoInstance,
        required: &[NodeId],
        seed: u64,
    ) -> Result<SolveResult, SolveError> {
        match self.threads {
            None => {
                let mode = self.mode(instance, required)?;
                self.engine.solve(instance, mode, seed)
            }
            Some(_) => self.solve_controlled(
                &Arc::new(instance.clone()),
                required,
                seed,
                None,
                &JobControl::new(),
            ),
        }
    }

    fn pool_threads(&self) -> Option<usize> {
        self.threads
    }

    /// Anytime solve: the engine checks `control` at every stage boundary
    /// and between samples (cancel/deadline), honours `patience=`, and
    /// streams incumbents. A threaded solver runs as a job of `pool`, or
    /// of a transient pool of its own when none is given; a serial one
    /// ignores `pool`.
    fn solve_controlled(
        &mut self,
        instance: &Arc<WasoInstance>,
        required: &[NodeId],
        seed: u64,
        pool: Option<&SharedPool>,
        control: &JobControl,
    ) -> Result<SolveResult, SolveError> {
        let mode = self.mode(instance, required)?;
        match (self.threads, pool) {
            (None, _) => self.engine.solve_controlled(instance, mode, seed, control),
            (Some(_), Some(pool)) => self
                .engine
                .solve_in_pool_controlled(pool, instance, mode, seed, control),
            (Some(threads), None) => self.engine.solve_in_pool_controlled(
                &SharedPool::new(threads),
                instance,
                mode,
                seed,
                control,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waso_graph::{generate, ScoreModel};

    fn instance(n: usize, k: usize, seed: u64) -> WasoInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate::barabasi_albert(n, 4, &mut rng);
        let g = ScoreModel::paper_default().realize(&topo, &mut rng);
        WasoInstance::new(g, k).unwrap()
    }

    fn config(budget: u64) -> CbasNdConfig {
        let mut c = CbasNdConfig::with_budget(budget);
        c.base.stages = Some(4);
        c
    }

    #[test]
    fn presets_name_themselves_and_declare_capabilities() {
        let cbas = StagedSolver::cbas(CbasConfig::fast());
        assert_eq!(cbas.name(), "cbas");
        assert!(!cbas.capabilities().required_attendees);
        assert!(!cbas.capabilities().parallel);
        let nd = StagedSolver::cbas_nd(config(40)).threads(0);
        assert_eq!(nd.name(), "cbas-nd");
        assert!(nd.capabilities().required_attendees);
        assert!(nd.capabilities().parallel);
        // threads=0 clamps to one worker.
        assert_eq!(nd.pool_threads(), Some(1));
        assert_eq!(
            StagedSolver::cbas_nd(config(40).gaussian()).name(),
            "cbas-nd-g"
        );
    }

    #[test]
    fn parallel_equals_serial_bitwise() {
        let inst = instance(80, 6, 1);
        let serial = StagedSolver::cbas_nd(config(120))
            .solve_seeded(&inst, 42)
            .unwrap();
        for threads in [1, 2, 4] {
            let par = StagedSolver::cbas_nd(config(120))
                .threads(threads)
                .solve_seeded(&inst, 42)
                .unwrap();
            assert_eq!(
                par.group, serial.group,
                "thread count {threads} changed the result"
            );
            assert_eq!(par.stats.samples_drawn, serial.stats.samples_drawn);
            assert_eq!(
                par.stats.pruned_start_nodes,
                serial.stats.pruned_start_nodes
            );
            assert_eq!(par.stats.backtracks, serial.stats.backtracks);
        }
    }

    #[test]
    fn parallel_gaussian_variant_runs() {
        let inst = instance(50, 5, 2);
        let res = StagedSolver::cbas_nd(config(80).gaussian())
            .threads(3)
            .solve_seeded(&inst, 3)
            .unwrap();
        assert_eq!(res.group.len(), 5);
        assert_eq!(res.stats.samples_drawn, 80);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let inst = instance(30, 4, 3);
        let mut cfg = config(30);
        cfg.base.num_start_nodes = Some(2);
        let res = StagedSolver::cbas_nd(cfg)
            .threads(16)
            .solve_seeded(&inst, 4)
            .unwrap();
        assert_eq!(res.group.len(), 4);
        assert_eq!(res.stats.start_nodes, 2);
    }

    #[test]
    fn stalled_starts_match_serial_accounting() {
        // A graph with an isolated high-score node: serial and parallel
        // must agree on drawn counts and pruning.
        let mut b = waso_graph::GraphBuilder::new();
        let hub = b.add_node(100.0);
        let ids: Vec<NodeId> = (0..6).map(|i| b.add_node(i as f64 * 0.1)).collect();
        for w in ids.windows(2) {
            b.add_edge_symmetric(w[0], w[1], 1.0).unwrap();
        }
        let _ = hub;
        let inst = WasoInstance::new(b.build(), 3).unwrap();
        let mut cfg = config(40);
        cfg.base.num_start_nodes = Some(3);
        let serial = StagedSolver::cbas_nd(cfg.clone())
            .solve_seeded(&inst, 5)
            .unwrap();
        let par = StagedSolver::cbas_nd(cfg)
            .threads(4)
            .solve_seeded(&inst, 5)
            .unwrap();
        assert_eq!(par.group, serial.group);
        assert_eq!(par.stats.samples_drawn, serial.stats.samples_drawn);
        assert_eq!(
            par.stats.pruned_start_nodes,
            serial.stats.pruned_start_nodes
        );
    }

    #[test]
    fn required_attendees_are_pooled_and_match_serial() {
        // Partial-mode (required-attendee) solves run on the pool too,
        // and must be bit-identical to the serial path.
        let inst = instance(50, 6, 9);
        let required = [NodeId(0), NodeId(1)];
        let serial = StagedSolver::cbas_nd(config(60))
            .solve_with_required(&inst, &required, 2)
            .unwrap();
        for threads in [1, 2, 4] {
            let par = StagedSolver::cbas_nd(config(60))
                .threads(threads)
                .solve_with_required(&inst, &required, 2)
                .unwrap();
            assert_eq!(par.group, serial.group, "threads={threads}");
            assert_eq!(par.stats.samples_drawn, serial.stats.samples_drawn);
            for &v in &required {
                assert!(par.group.contains(v));
            }
        }
    }

    #[test]
    fn long_lived_pool_matches_the_transient_pool() {
        let inst = Arc::new(instance(60, 5, 11));
        let pool = SharedPool::new(4);
        let mut solver = StagedSolver::cbas_nd(config(90)).threads(2);
        let one_shot = solver.solve_seeded(&inst, 6).unwrap();
        // Two solves over the same long-lived pool: identical to the
        // one-shot solve, and the pool stays serviceable between solves.
        for _ in 0..2 {
            let held = solver
                .solve_controlled(&inst, &[], 6, Some(&pool), &JobControl::new())
                .unwrap();
            assert_eq!(held.group, one_shot.group);
            assert_eq!(held.stats.samples_drawn, one_shot.stats.samples_drawn);
        }
        let required = [NodeId(0), NodeId(1)];
        let serial = StagedSolver::cbas_nd(config(90))
            .solve_with_required(&inst, &required, 6)
            .unwrap();
        let held = solver
            .solve_controlled(&inst, &required, 6, Some(&pool), &JobControl::new())
            .unwrap();
        assert_eq!(held.group, serial.group);
    }

    #[test]
    fn cbas_rejects_required_attendees_on_every_path() {
        let inst = Arc::new(instance(40, 4, 12));
        let expected = SolveError::RequiredUnsupported { solver: "cbas" };
        for threads in [None, Some(2)] {
            let mut solver = StagedSolver::cbas(CbasConfig::fast());
            if let Some(t) = threads {
                solver = solver.threads(t);
            }
            let err = solver
                .solve_with_required(&inst, &[NodeId(0)], 1)
                .unwrap_err();
            assert_eq!(err, expected, "{threads:?}");
            let err = solver
                .solve_controlled(&inst, &[NodeId(0)], 1, None, &JobControl::new())
                .unwrap_err();
            assert_eq!(err, expected, "{threads:?}");
        }
    }

    #[test]
    fn warm_start_is_identical_across_worker_counts() {
        let inst = instance(60, 5, 13);
        let incumbent = StagedSolver::cbas_nd(config(40))
            .solve_seeded(&inst, 1)
            .unwrap()
            .group;
        let warm = |threads: Option<usize>| {
            let mut solver = StagedSolver::cbas_nd(config(60));
            if let Some(t) = threads {
                solver = solver.threads(t);
            }
            solver.warm_start(&incumbent);
            solver.solve_seeded(&inst, 2).unwrap()
        };
        let serial = warm(None);
        assert!(serial.group.willingness() >= incumbent.willingness());
        for threads in [1, 3] {
            assert_eq!(warm(Some(threads)).group, serial.group, "threads={threads}");
        }
    }
}
