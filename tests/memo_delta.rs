//! Memoization + incremental-delta contracts of [`WasoSession`]:
//!
//! * `apply(delta)` then solve ≡ rebuild-the-graph-from-scratch then
//!   solve — **bit-identical** nodes, willingness and sample counts,
//!   across random delta sequences and every pool width 1–8 (the
//!   incremental re-fingerprint and the CSR rebuild are both exact);
//! * a memo hit returns the original [`SolveResult`] bit-identically,
//!   in O(1) (no solver runs — pinned through the hit/miss counters);
//! * the memo is keyed by the exact graph: a delta drops every entry of
//!   the pre-delta graph, so solve → delta → solve is bit-identical to a
//!   fresh session's solve of the post-delta graph — a session's answer
//!   depends on (current graph, spec, seed), never on its history.

use proptest::collection;
use proptest::prelude::*;
use waso::datasets::synthetic::{self, Scale};
use waso::prelude::*;
use waso_graph::{generate, GraphDelta, InterestModel, ScoreModel, TightnessModel};

/// A connected random graph: a spanning path plus `extra` random edges.
fn random_graph(seed: u64, n: usize, extra: usize) -> SocialGraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    edges.extend(generate::erdos_renyi_gnm(n, extra.min(n * (n - 1) / 2), &mut rng).edges);
    let topo = generate::GraphTopology::new(n, edges);
    let model = ScoreModel {
        interest: InterestModel::Uniform { lo: -0.5, hi: 1.5 },
        tightness: TightnessModel::Uniform { lo: -0.3, hi: 1.0 },
    };
    model.realize(&topo, &mut rng)
}

/// Turns an arbitrary "intent" tuple into a delta that is valid against
/// the *current* graph state, so random sequences always apply.
fn realize_delta(g: &SocialGraph, kind: u8, a: u32, b: u32, x: f64, y: f64) -> GraphDelta {
    let n = g.num_nodes() as u32;
    let u = NodeId(a % n);
    let mut v = NodeId(b % n);
    if v == u {
        v = NodeId((v.0 + 1) % n);
    }
    match kind % 4 {
        0 if !g.has_edge(u, v) => GraphDelta::AddEdge {
            u,
            v,
            tau_uv: x,
            tau_vu: y,
        },
        // Only drop an edge whose endpoints keep other neighbours, so
        // random sequences rarely strand the whole instance.
        1 if g.has_edge(u, v) && g.degree(u) > 1 && g.degree(v) > 1 => {
            GraphDelta::RemoveEdge { u, v }
        }
        2 => GraphDelta::SetInterest { v: u, interest: x },
        _ if g.has_edge(u, v) => GraphDelta::SetTightness {
            u,
            v,
            tau_uv: x,
            tau_vu: y,
        },
        _ => GraphDelta::SetInterest { v: u, interest: x },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole equivalence: a session mutated by `apply(delta)` and
    /// a fresh session over a from-scratch graph carrying the same edits
    /// solve bit-identically, across delta sequences and pool widths.
    #[test]
    fn delta_solves_match_rebuilt_graphs(
        seed in 0u64..500,
        intents in collection::vec(
            (0u8..4, any::<u32>(), any::<u32>(), -0.5..1.5f64, -0.3..1.0f64),
            1..6,
        ),
        threads in 1usize..=8,
    ) {
        let base = random_graph(seed, 16, 12);
        let mut session = WasoSession::new(base.clone()).k(4).seed(seed);
        let mut rebuilt = base;
        for (kind, a, b, x, y) in intents {
            let delta = realize_delta(&rebuilt, kind, a, b, x, y);
            rebuilt = delta.apply(&rebuilt).unwrap();
            session.apply(&delta).unwrap();
        }
        // The delta'd CSR is bit-exactly the rebuilt one.
        prop_assert_eq!(
            waso::graph::io::to_string(session.graph()),
            waso::graph::io::to_string(&rebuilt)
        );

        let fresh = WasoSession::new(rebuilt).k(4).seed(seed);
        let spec = format!("cbas-nd-par:budget=200,stages=3,threads={threads}");
        match (session.solve_str(&spec), fresh.solve_str(&spec)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.group.nodes(), b.group.nodes());
                prop_assert_eq!(
                    a.group.willingness().to_bits(),
                    b.group.willingness().to_bits()
                );
                prop_assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);

                // And the post-delta fingerprint keys a working memo: a
                // repeat solve is a hit that replays the result exactly.
                let again = session.solve_str(&spec).unwrap();
                prop_assert_eq!(again.group.nodes(), a.group.nodes());
                prop_assert_eq!(again.stats.samples_drawn, a.stats.samples_drawn);
                prop_assert_eq!(session.memo_stats().hits, 1);
            }
            // A savage delta sequence can strand the instance; both
            // paths must agree on that too.
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "divergent feasibility: applied={:?} rebuilt={:?}",
                a.map(|r| r.group.willingness()),
                b.map(|r| r.group.willingness())
            ),
        }
    }

    /// The exact-key contract: a session that solved, took a random
    /// delta and solved again answers exactly what a fresh session over
    /// the post-delta graph answers — whichever nodes the delta touched,
    /// on the serial and the pooled path alike.
    #[test]
    fn solve_delta_solve_matches_a_fresh_session(
        seed in 0u64..500,
        intent in (0u8..4, any::<u32>(), any::<u32>(), -0.5..4.0f64, -0.3..2.0f64),
        threads in 0usize..=4,
    ) {
        let (kind, a, b, x, y) = intent;
        let base = random_graph(seed, 16, 12);
        let mut session = WasoSession::new(base.clone()).k(4).seed(seed);
        let spec = match threads {
            0 => "cbas-nd:budget=200,stages=3".to_string(),
            t => format!("cbas-nd:budget=200,stages=3,threads={t}"),
        };
        let _ = session.solve_str(&spec);
        let delta = realize_delta(&base, kind, a, b, x, y);
        session.apply(&delta).unwrap();
        let fresh = WasoSession::new(delta.apply(&base).unwrap()).k(4).seed(seed);
        match (session.solve_str(&spec), fresh.solve_str(&spec)) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(got.group.nodes(), want.group.nodes());
                prop_assert_eq!(
                    got.group.willingness().to_bits(),
                    want.group.willingness().to_bits()
                );
                prop_assert_eq!(got.stats.samples_drawn, want.stats.samples_drawn);
                prop_assert_eq!(got.stats.stages, want.stats.stages);
            }
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(
                false,
                "divergent feasibility: session={:?} fresh={:?}",
                got.map(|r| r.group.willingness()),
                want.map(|r| r.group.willingness())
            ),
        }
    }

    /// Replaying one solve → delta → solve history gives the same bits
    /// at every pool width: the post-delta solve is a plain cold solve.
    #[test]
    fn delta_replays_agree_across_pool_widths(
        seed in 0u64..500,
        threads_a in 1usize..=8,
        threads_b in 1usize..=8,
    ) {
        let base = random_graph(seed, 16, 12);
        let replay = |threads: usize| {
            let mut session = WasoSession::new(base.clone()).k(4).seed(seed);
            let spec = format!("cbas-nd-par:budget=200,stages=3,threads={threads}");
            let first = session.solve_str(&spec).unwrap();
            // Touch the solved group directly.
            let v = first.group.nodes()[0];
            session
                .apply(&GraphDelta::SetInterest { v, interest: 2.0 })
                .unwrap();
            assert_eq!(session.memo_stats().invalidated, 1);
            let again = session.solve_str(&spec).unwrap();
            (again.group.nodes().to_vec(), again.group.willingness().to_bits())
        };
        prop_assert_eq!(replay(threads_a), replay(threads_b));
    }
}

/// The reproduction behind the exact-key memo: a delta far from the
/// cached group (node 1999 is outside the group and its one-hop
/// frontier) still changes the best answer — a session must re-solve,
/// not serve the pre-delta group.
#[test]
fn a_delta_outside_the_cached_group_still_changes_the_answer() {
    let graph = synthetic::facebook_like(Scale::Small, 7);
    let spec = "cbas-nd:budget=500,stages=10,start-nodes=8";
    let mut session = WasoSession::new(graph.clone()).k(10);
    let before = session.solve_str(spec).unwrap();
    let delta = GraphDelta::SetInterest {
        v: NodeId(1999),
        interest: 1000.0,
    };
    assert!(!before.group.contains(NodeId(1999)));
    session.apply(&delta).unwrap();
    let after = session.solve_str(spec).unwrap();
    let fresh = WasoSession::new(delta.apply(&graph).unwrap())
        .k(10)
        .solve_str(spec)
        .unwrap();
    assert_eq!(after.group.nodes(), fresh.group.nodes());
    assert_eq!(
        after.group.willingness().to_bits(),
        fresh.group.willingness().to_bits()
    );
    assert!(after.group.contains(NodeId(1999)), "{}", after.group);
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses, stats.invalidated), (0, 2, 1));
}

#[test]
fn memo_hits_are_bit_identical_and_counted() {
    let session = WasoSession::new(random_graph(3, 20, 15)).k(4).seed(7);
    let spec = "cbas-nd:budget=300,stages=4";
    let first = session.solve_str(spec).unwrap();
    let second = session.solve_str(spec).unwrap();
    assert_eq!(second.group.nodes(), first.group.nodes());
    assert_eq!(
        second.group.willingness().to_bits(),
        first.group.willingness().to_bits()
    );
    assert_eq!(second.stats.samples_drawn, first.stats.samples_drawn);
    assert_eq!(second.stats.stages, first.stats.stages);

    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses, stats.invalidated), (1, 1, 0));

    // A different spec, seed, or constraint set is a different key.
    session.solve_str("cbas-nd:budget=300,stages=5").unwrap();
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses), (1, 2));
}

#[test]
fn wall_clock_bounded_specs_bypass_the_memo() {
    let session = WasoSession::new(random_graph(4, 20, 15)).k(4).seed(7);
    let spec = "cbas-nd:budget=200,stages=3,deadline_ms=60000";
    session.solve_str(spec).unwrap();
    session.solve_str(spec).unwrap();
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses), (0, 0));
}

/// Two cliques with no edges between them: entries anchored in one are
/// provably outside the other's one-hop frontier.
fn two_cliques() -> SocialGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..8).map(|i| b.add_node(4.0 + i as f64)).collect();
    for half in [&ids[..4], &ids[4..]] {
        for (i, &u) in half.iter().enumerate() {
            for &v in &half[i + 1..] {
                b.add_edge_symmetric(u, v, 1.0).unwrap();
            }
        }
    }
    b.build()
}

#[test]
fn deltas_drop_every_entry_of_the_pre_delta_graph() {
    let session = WasoSession::new(two_cliques()).k(3).seed(9);
    let in_a = "cbas-nd:budget=150,stages=3,require=0";
    let in_b = "cbas-nd:budget=150,stages=3,require=4";
    let first_a = session.solve_str(in_a).unwrap();
    let first_b = session.solve_str(in_b).unwrap();
    assert!(first_a.group.contains(NodeId(0)));
    assert!(first_b.group.contains(NodeId(4)));

    // Weaken an edge inside entry A's winning group. Entry B's clique is
    // far from the delta, but its key names the pre-delta graph: both
    // entries go.
    let (u, v) = (first_a.group.nodes()[0], first_a.group.nodes()[1]);
    let mut session = session;
    session
        .apply(&GraphDelta::SetTightness {
            u,
            v,
            tau_uv: 0.25,
            tau_vu: 0.25,
        })
        .unwrap();
    assert_eq!(session.memo_stats().invalidated, 2);

    // Both sides re-solve (misses, no hits), on the delta'd graph.
    let again_a = session.solve_str(in_a).unwrap();
    let again_b = session.solve_str(in_b).unwrap();
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses), (0, 4));
    let instance = session.instance().unwrap();
    for again in [&again_a, &again_b] {
        let recomputed = Group::new(&instance, again.group.nodes().to_vec()).unwrap();
        assert_eq!(
            again.group.willingness().to_bits(),
            recomputed.willingness().to_bits()
        );
    }
    assert!(again_a.group.willingness() < first_a.group.willingness());
    // Clique B is untouched, so its re-solve finds the same group.
    assert_eq!(again_b.group.nodes(), first_b.group.nodes());

    // The post-delta results key a working memo of their own.
    session.solve_str(in_b).unwrap();
    assert_eq!(session.memo_stats().hits, 1);
}

/// The satellite regression: solve → delta touching the group → solve
/// must never serve the pre-delta result, under any submission path.
#[test]
fn replan_after_delta_never_serves_a_stale_group() {
    let mut session = WasoSession::new(two_cliques()).k(3).seed(11);
    let spec = "cbas-nd:budget=150,stages=3";
    let before = session.solve_str(spec).unwrap();

    // Weaken an edge inside the winning group.
    let (u, v) = (before.group.nodes()[0], before.group.nodes()[1]);
    session
        .apply(&GraphDelta::SetTightness {
            u,
            v,
            tau_uv: 0.1,
            tau_vu: 0.1,
        })
        .unwrap();

    // The handle path and the blocking path agree, and both re-solve.
    let after = session
        .submit(&session.registry().parse(spec).unwrap())
        .unwrap();
    let after = after.wait().unwrap();
    let recomputed =
        Group::new(&session.instance().unwrap(), after.group.nodes().to_vec()).unwrap();
    assert_eq!(
        after.group.willingness().to_bits(),
        recomputed.willingness().to_bits()
    );
    assert_ne!(
        after.group.willingness().to_bits(),
        before.group.willingness().to_bits(),
        "delta'd solve replayed the stale cached willingness"
    );
    assert_eq!(session.memo_stats().invalidated, 1);
}

#[test]
fn rejected_deltas_change_nothing() {
    let mut session = WasoSession::new(two_cliques()).k(3).seed(5);
    let spec = "cbas-nd:budget=150,stages=3";
    let before = session.solve_str(spec).unwrap();
    let bad = GraphDelta::AddEdge {
        u: NodeId(0),
        v: NodeId(1), // already an edge
        tau_uv: 1.0,
        tau_vu: 1.0,
    };
    assert!(matches!(session.apply(&bad), Err(SessionError::Delta(_))));
    // Graph untouched, memo untouched: the repeat solve is a pure hit.
    let again = session.solve_str(spec).unwrap();
    assert_eq!(again.group.nodes(), before.group.nodes());
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.invalidated), (1, 0));
}
