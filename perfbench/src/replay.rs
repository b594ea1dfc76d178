//! The traced run's per-layer figures. After the timed phase, every
//! layer's public calls are replayed on this run's own inputs (graph,
//! organizers, specs, deltas and answers) and timed one by one. A
//! figure comes from the op loop's spans when the workload makes that
//! call itself, and from the replay otherwise.

use std::collections::BTreeSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use waso::algos::ocba::{self, StartStats};
use waso::algos::sampler::{Sample, Sampler};
use waso::algos::ProbabilityVector;
use waso::core::{willingness, InstanceFingerprint, WasoInstance};
use waso::graph::{NodeId, SocialGraph};
use waso_serve::{Client, Request, Response, Server};

use crate::checks::Answer;
use crate::inputs::stream;
use crate::measure::{self, mean, median, us};
use crate::workloads::{self, Ctx, Op, Run, Span, Workload};

/// Draws per replayed op, and the start nodes and stage budget the OCBA
/// replay allocates over (the plan-solve spec's 8 starts, 4000 / 10).
const DRAWS: usize = 64;
const STARTS: usize = 8;
const STAGE_BUDGET: u64 = 400;
/// CBAS-ND's default elite share and smoothing weight.
const RHO: f64 = 0.3;
const SMOOTHING: f64 = 0.9;
/// Repetitions of the calls that are not tied to an op.
const REPS: usize = 3;
const STATS_CALLS: usize = 10;
const OCBA_CALLS: u32 = 100;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Layers {
    pub metrics: Vec<Metric>,
    /// How the layer figures add up to the end-to-end ones, one verdict
    /// per line.
    pub accounting: Vec<String>,
}

/// The spans of a traced run: the op loop's, then the replay's. A replay
/// span carries the id of the op whose inputs it replays, or its
/// repetition number for calls not tied to an op.
struct Timings {
    origin: Instant,
    spans: Vec<Span>,
}

impl Timings {
    fn record(&mut self, name: &'static str, (conn, op): (usize, usize), t0: Instant) {
        let dur_us = us(t0.elapsed());
        self.record_us(name, (conn, op), t0, dur_us);
    }

    fn record_us(
        &mut self,
        name: &'static str,
        (conn, op): (usize, usize),
        t0: Instant,
        dur_us: f64,
    ) {
        self.spans.push(Span {
            conn,
            op,
            name,
            start_us: us(t0.duration_since(self.origin)),
            dur_us,
            replay: true,
        });
    }

    /// Durations in µs of `name`: the op loop's when it made the call,
    /// else the replay's. `keep` filters by (replay, conn, op).
    fn us_where(&self, name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        let of = |replay: bool| -> Vec<f64> {
            self.spans
                .iter()
                .filter(|s| s.name == name && s.replay == replay && keep(s))
                .map(|s| s.dur_us)
                .collect()
        };
        let from_ops = of(false);
        if from_ops.is_empty() {
            of(true)
        } else {
            from_ops
        }
    }

    fn us(&self, name: &str) -> Vec<f64> {
        self.us_where(name, |_| true)
    }

    fn median_us(&self, name: &str) -> f64 {
        median(&self.us(name))
    }

    fn median_ms(&self, name: &str) -> f64 {
        self.median_us(name) / 1e3
    }
}

pub fn layers(ctx: &Ctx, run: &mut Run) -> Result<Layers, String> {
    let mut failures = Vec::new();
    let mut t = Timings {
        origin: Instant::now(),
        spans: std::mem::take(&mut run.spans),
    };
    let layers = replay(ctx, run, &mut t, &mut failures);
    run.spans = t.spans;
    run.global_failures.extend(failures);
    layers
}

fn replay(
    ctx: &Ctx,
    run: &Run,
    t: &mut Timings,
    failures: &mut Vec<String>,
) -> Result<Layers, String> {
    let k = ctx.scale.k;
    let (g, _) = ctx.read_graph()?;
    for (rep, &ms) in run.read_ms.iter().enumerate() {
        t.record_us("graph.read", (0, rep), t.origin, ms * 1e3);
    }

    // core: instance build and fingerprint of the run's graph.
    let mut instance = None;
    for rep in 0..REPS {
        let copy = g.clone();
        let t0 = Instant::now();
        let built = WasoInstance::new(copy, k).map_err(|e| format!("WasoInstance::new: {e}"))?;
        t.record("core.instance_new", (0, rep), t0);
        instance = Some(built);
    }
    let instance = instance.ok_or("no instance built")?;
    for rep in 0..REPS {
        let t0 = Instant::now();
        std::hint::black_box(InstanceFingerprint::of(&instance));
        t.record("core.fingerprint", (0, rep), t0);
    }

    for op in &run.ops {
        let Ok(a) = &op.answer else { continue };
        let nodes: Vec<NodeId> = a.nodes.iter().map(|&v| NodeId(v)).collect();
        let t0 = Instant::now();
        std::hint::black_box(willingness(&g, &nodes));
        t.record("core.willingness", (op.conn, op.seq), t0);
    }

    // algos: sampler, CE update and OCBA from the first originals'
    // organizers.
    let replayed: Vec<&Op> = run
        .ops
        .iter()
        .filter(|op| op.repeat_of.is_none())
        .take(ctx.scale.replay_ops)
        .collect();
    let n = g.num_nodes();
    let mut sampler = Sampler::for_instance(&instance);
    let uniform = ProbabilityVector::uniform(n, k);
    for op in &replayed {
        let id = (op.conn, op.seq);
        let mut rng = StdRng::seed_from_u64(stream(ctx.seed, 100 + op.seq as u64));
        let mut samples: Vec<Sample> = Vec::with_capacity(DRAWS);
        for _ in 0..DRAWS {
            let t0 = Instant::now();
            let s = sampler.sample_weighted(&instance, op.organizer, &uniform, &mut rng);
            t.record("algos.sample_draw", id, t0);
            samples.extend(s);
        }
        if samples.is_empty() {
            failures.push(format!("no sample grew from organizer {}", op.organizer.0));
            continue;
        }
        let mut ranked: Vec<&Sample> = samples.iter().collect();
        ranked.sort_by(|a, b| b.willingness.total_cmp(&a.willingness));
        let elites = &ranked[..((ranked.len() as f64 * RHO).ceil() as usize).max(1)];
        let mut pv = ProbabilityVector::uniform_for_start(n, k, op.organizer);
        let t0 = Instant::now();
        pv.update_from_elites(elites, SMOOTHING);
        t.record("algos.ce_update", id, t0);
        // Later stages draw from CE-updated vectors, whose explicit
        // entries make each candidate weight a map lookup.
        for _ in 0..DRAWS {
            let t0 = Instant::now();
            let s = sampler.sample_weighted(&instance, op.organizer, &pv, &mut rng);
            t.record("algos.sample_draw_ce", id, t0);
            std::hint::black_box(s);
        }

        let mut stats = vec![StartStats::new(); STARTS];
        for (i, s) in samples.iter().enumerate() {
            let st = &mut stats[i % STARTS];
            st.record(s.willingness);
            st.spent += 1;
        }
        let t0 = Instant::now();
        for _ in 0..OCBA_CALLS {
            std::hint::black_box(ocba::allocate_stage(
                std::hint::black_box(&stats),
                STAGE_BUDGET,
            ));
        }
        t.record_us(
            "algos.ocba_alloc",
            id,
            t0,
            us(t0.elapsed()) / f64::from(OCBA_CALLS),
        );
    }

    let registry = waso::registry();
    for op in &run.ops {
        let t0 = Instant::now();
        let built = registry
            .parse(&op.spec)
            .and_then(|spec| registry.build(&spec));
        t.record("algos.spec_build", (op.conn, op.seq), t0);
        if let Err(e) = built {
            failures.push(format!("spec {} does not build: {e}", op.spec));
        }
    }

    codec(run, t, failures);

    // session: submit + wait on a second session over the same graph.
    // These direct solves are what serve DONE answers must equal.
    let mut second = ctx.session(g.clone());
    let mut direct: Vec<Answer> = Vec::new();
    for op in &replayed {
        let id = (op.conn, op.seq);
        let spec = registry.parse(&op.spec).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let handle = second.submit(&spec).map_err(|e| format!("submit: {e}"))?;
        t.record("session.submit", id, t0);
        let r = handle.wait().map_err(|e| format!("wait: {e}"))?;
        t.record("session.solve", id, t0);
        let a = Answer::from_result(&r);
        if ctx.workload == Workload::ServeLoopback {
            if let Ok(done) = &op.answer {
                if !a.same_solution(done) {
                    failures.push(format!("DONE for {} differs from a direct solve", op.spec));
                }
            }
        }
        direct.push(a);
    }

    // graph and session deltas, from the base graph.
    let mut chain = g.clone();
    for (i, d) in ctx
        .inputs
        .deltas
        .iter()
        .take(ctx.scale.replay_ops)
        .enumerate()
    {
        let t0 = Instant::now();
        chain = d
            .apply(&chain)
            .map_err(|e| format!("GraphDelta::apply: {e}"))?;
        t.record("graph.delta_apply", (0, i), t0);
        let t0 = Instant::now();
        second
            .apply(d)
            .map_err(|e| format!("WasoSession::apply: {e}"))?;
        t.record("session.apply", (0, i), t0);
    }
    drop(second);

    let threads_peak = probe_server(ctx, &g, t, failures)?;
    Ok(summarize(ctx, run, t, &direct, threads_peak))
}

/// Times parse and render of the run's messages: the recorded exchanges
/// of traced serve ops, else the SUBMIT and DONE each op would send.
/// Every message must round-trip.
fn codec(run: &Run, t: &mut Timings, failures: &mut Vec<String>) {
    for op in &run.ops {
        let Ok(a) = &op.answer else { continue };
        let pairs: Vec<(String, String)> = match &op.messages {
            Some((requests, responses)) => requests
                .lines()
                .zip(responses.lines())
                .map(|(q, r)| (q.to_string(), r.to_string()))
                .collect(),
            None => {
                let q = Request::Submit {
                    tenant: workloads::TENANT_NAMES[op.conn].to_string(),
                    spec: op.spec.clone(),
                };
                let r = Response::Done {
                    termination: waso::algos::Termination::Completed,
                    willingness: a.willingness,
                    nodes: a.nodes.clone(),
                    samples: a.samples,
                };
                vec![(q.to_string(), r.to_string())]
            }
        };
        for (q, r) in pairs {
            let t0 = Instant::now();
            let q2 = Request::parse(&q).map(|p| p.to_string());
            let r2 = Response::parse(&r).map(|p| p.to_string());
            t.record("serve.codec", (op.conn, op.seq), t0);
            if q2.as_deref() != Ok(q.as_str()) || r2.as_deref() != Ok(r.as_str()) {
                failures.push(format!("codec does not round-trip {q:?} / {r:?}"));
            }
        }
    }
}

/// Boots a probe server on the run's graph: idle STATS round trips,
/// in-process `Server::handle` SUBMITs, and SUBMIT+WAIT round trips over
/// loopback. Returns the peak thread count seen.
fn probe_server(
    ctx: &Ctx,
    g: &SocialGraph,
    t: &mut Timings,
    failures: &mut Vec<String>,
) -> Result<f64, String> {
    let mut server = Server::start(ctx.session(g.clone()), workloads::serve_config());
    let addr = server
        .listen("127.0.0.1:0")
        .map_err(|e| format!("probe listen: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    let tenant = workloads::TENANT_NAMES[0];
    let mut peak = measure::threads();
    for rep in 0..STATS_CALLS {
        let t0 = Instant::now();
        let reply = client.stats().map_err(|e| format!("STATS: {e}"))?;
        t.record("serve.stats_rtt", (0, rep), t0);
        if !matches!(reply, Response::Stats(_)) {
            failures.push(format!("STATS answered {reply}"));
        }
    }

    // Organizers from the far end of the list, which no op reaches, so
    // the probe's memo stays cold.
    let specs: Vec<String> = ctx
        .inputs
        .organizers
        .iter()
        .rev()
        .take(2 * ctx.scale.replay_ops)
        .map(|&v| ctx.workload.spec(v))
        .collect();
    let (in_process, over_socket) = specs.split_at(ctx.scale.replay_ops);
    for (i, spec) in in_process.iter().enumerate() {
        let t0 = Instant::now();
        let reply = server.handle(Request::Submit {
            tenant: tenant.to_string(),
            spec: spec.clone(),
        });
        t.record("serve.handle_submit", (0, i), t0);
        match reply {
            Response::Job(job) => {
                let done = server.handle(Request::Wait { job });
                if Answer::from_done(&done).is_none() {
                    failures.push(format!("probe WAIT answered {done}"));
                }
            }
            other => failures.push(format!("probe SUBMIT answered {other}")),
        }
        peak = peak.max(measure::threads());
    }
    for (i, spec) in over_socket.iter().enumerate() {
        let t0 = Instant::now();
        let ((submit, wait), done) = workloads::submit_wait(&mut client, tenant, spec, None)?;
        t.record_us("serve.submit_rtt", (0, i), t0, us(submit));
        t.record_us("serve.wait_rtt", (0, i), t0 + submit, us(wait));
        if Answer::from_done(&done).is_none() {
            failures.push(format!("probe WAIT answered {done}"));
        }
        peak = peak.max(measure::threads());
    }
    drop(client);
    server.shutdown();
    Ok(peak)
}

fn summarize(ctx: &Ctx, run: &Run, t: &Timings, direct: &[Answer], probe_threads: f64) -> Layers {
    // Solver stats: the op loop's own answers where they carry them
    // (in-process workloads), else the direct solves of the same specs.
    let prefix = run.prefix(&ctx.scale);
    let own: Vec<&Answer> = prefix
        .iter()
        .filter_map(|op| op.answer.as_ref().ok())
        .collect();
    let stats: Vec<&Answer> = if own.iter().all(|a| a.pruned.is_some()) {
        own
    } else {
        direct.iter().collect()
    };
    let count_mean = |f: &dyn Fn(&Answer) -> Option<f64>| {
        mean(&stats.iter().filter_map(|a| f(a)).collect::<Vec<_>>())
    };
    let samples_per_op = count_mean(&|a| Some(a.samples as f64));
    let pruned_per_op = count_mean(&|a| a.pruned.map(f64::from));
    let backtracks_per_op = count_mean(&|a| a.backtracks.map(f64::from));

    // Solve time next to solver time, per op, from the same source.
    let solve_ms = t.median_ms("session.solve");
    let loop_solves = t.us_where("session.solve", |s| !s.replay);
    let solver_ms: Vec<f64> = if loop_solves.is_empty() {
        direct.iter().filter_map(|a| a.solver_ms).collect()
    } else {
        run.ops
            .iter()
            .filter(|op| op.traced)
            .filter_map(|op| op.answer.as_ref().ok().and_then(|a| a.solver_ms))
            .collect()
    };
    let solves_ms: Vec<f64> = t.us("session.solve").iter().map(|v| v / 1e3).collect();
    let overhead: Vec<f64> = solves_ms
        .iter()
        .zip(&solver_ms)
        .map(|(s, e)| s - e)
        .collect();
    let solver_p50 = median(&solver_ms);

    // Pool chunks per op and the busiest worker's count over the mean.
    let chunked: Vec<&Vec<u64>> = run
        .ops
        .iter()
        .filter_map(|op| op.pool_chunks.as_ref())
        .collect();
    let chunks_per_op = if chunked.is_empty() {
        0.0
    } else {
        mean(
            &chunked
                .iter()
                .map(|c| c.iter().sum::<u64>() as f64)
                .collect::<Vec<_>>(),
        )
    };
    let imbalances: Vec<f64> = chunked
        .iter()
        .filter(|c| c.iter().sum::<u64>() > 0)
        .map(|c| {
            let m = c.iter().sum::<u64>() as f64 / c.len() as f64;
            c.iter().copied().max().unwrap_or(0) as f64 / m
        })
        .collect();
    let imbalance = if imbalances.is_empty() {
        0.0
    } else {
        median(&imbalances)
    };

    let latency = |traced: bool| -> Vec<f64> {
        run.ops
            .iter()
            .filter(|o| o.traced == traced && o.answer.is_ok())
            .map(|o| o.latency_ms)
            .collect()
    };
    let latency_p50 = median(
        &run.successes()
            .iter()
            .map(|o| o.latency_ms)
            .collect::<Vec<_>>(),
    );
    let cpu_per_op = run.cpu_ms / run.successes().len().max(1) as f64;

    // Serve round trips of originals only, so `wait_rtt` holds a solve.
    let repeats: BTreeSet<(usize, usize)> = run
        .ops
        .iter()
        .filter(|o| o.repeat_of.is_some())
        .map(|o| (o.conn, o.seq))
        .collect();
    let original = |s: &Span| s.replay || !repeats.contains(&(s.conn, s.op));
    let submit_rtt = median(&t.us_where("serve.submit_rtt", original)) / 1e3;
    let wait_rtt = median(&t.us_where("serve.wait_rtt", original)) / 1e3;
    let stats_rtt = t.median_ms("serve.stats_rtt");
    let serve_op = submit_rtt + wait_rtt;
    // The solver time of this workload's spec; on serve-loopback, the
    // direct solves of the very specs its connections sent.
    let serve_solver_ms = median(
        &direct
            .iter()
            .filter_map(|a| a.solver_ms)
            .collect::<Vec<_>>(),
    );

    // Draw work per op over the worker time of one solve, with draws
    // timed under a uniform and under a CE-updated vector.
    let draw_us = t.median_us("algos.sample_draw");
    let draw_ce_us = t.median_us("algos.sample_draw_ce");
    let worker_ms = solve_ms * ctx.workload.workers();
    let draw_share_of_solve = samples_per_op * draw_us / 1e3 / worker_ms;
    let ce_draw_share_of_solve = samples_per_op * draw_ce_us / 1e3 / worker_ms;
    let ce_draw_share_of_cpu = samples_per_op * draw_ce_us / 1e3 / cpu_per_op;
    let delta_apply = t.median_ms("graph.delta_apply");
    let apply = t.median_ms("session.apply");

    let memo = run.memo;
    let lookups = memo.hits + memo.misses;
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("graph.read_ms", t.median_ms("graph.read"), "ms"),
        m("graph.delta_apply_ms", delta_apply, "ms"),
        m(
            "core.instance_new_ms",
            t.median_ms("core.instance_new"),
            "ms",
        ),
        m("core.fingerprint_ms", t.median_ms("core.fingerprint"), "ms"),
        m("core.willingness_us", t.median_us("core.willingness"), "us"),
        m("algos.sample_draw_us", draw_us, "us"),
        m("algos.sample_draw_ce_us", draw_ce_us, "us"),
        m("algos.ce_update_us", t.median_us("algos.ce_update"), "us"),
        m("algos.ocba_alloc_us", t.median_us("algos.ocba_alloc"), "us"),
        m("algos.spec_build_us", t.median_us("algos.spec_build"), "us"),
        m("algos.samples_per_op", samples_per_op, "count"),
        m("algos.pruned_starts_per_op", pruned_per_op, "count"),
        m("algos.backtracks_per_op", backtracks_per_op, "count"),
        m("algos.solver_elapsed_ms", solver_p50, "ms"),
        m("algos.pool_chunks_per_op", chunks_per_op, "count"),
        m("algos.pool_chunk_imbalance", imbalance, "ratio"),
        m("session.solve_ms", solve_ms, "ms"),
        m("session.overhead_ms", median(&overhead), "ms"),
        m("session.submit_us", t.median_us("session.submit"), "us"),
        m("session.apply_ms", apply, "ms"),
        m(
            "session.memo_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                memo.hits as f64 / lookups as f64
            },
            "ratio",
        ),
        m("session.memo_invalidated", memo.invalidated as f64, "count"),
        m("serve.codec_us", t.median_us("serve.codec"), "us"),
        m(
            "serve.handle_submit_us",
            t.median_us("serve.handle_submit"),
            "us",
        ),
        m("serve.stats_rtt_ms", stats_rtt, "ms"),
        m("serve.submit_rtt_ms", submit_rtt, "ms"),
        m("serve.wait_rtt_ms", wait_rtt, "ms"),
        m(
            "serve.threads_peak",
            run.threads_peak.max(probe_threads),
            "count",
        ),
        m(
            "serve.transport_share",
            (serve_op - serve_solver_ms) / serve_op,
            "ratio",
        ),
        m(
            "trace.overhead_p50_ms",
            median(&latency(true)) - median(&latency(false)),
            "ms",
        ),
        m("trace.spans", t.spans.len() as f64, "count"),
        m("account.draw_share_of_solve", draw_share_of_solve, "ratio"),
        m(
            "account.ce_draw_share_of_solve",
            ce_draw_share_of_solve,
            "ratio",
        ),
        m(
            "account.ce_draw_share_of_cpu",
            ce_draw_share_of_cpu,
            "ratio",
        ),
        m(
            "account.delta_apply_share_of_apply",
            delta_apply / apply,
            "ratio",
        ),
    ];

    let verdict = |ok: bool| if ok { "adds up" } else { "DOES NOT ADD UP" };
    let accounting = match ctx.workload {
        Workload::PlanSolve => vec![
            format!(
                "plan-solve: samples_per_op x sample_draw_us (uniform vector) = {:.1} ms of draw work per op, {:.0}% of the worker time of session.solve_ms ({solve_ms:.1} ms x {} workers): {}",
                samples_per_op * draw_us / 1e3,
                100.0 * draw_share_of_solve,
                ctx.workload.workers(),
                verdict(draw_share_of_solve >= 0.5),
            ),
            format!(
                "plan-solve: with CE-updated vectors a draw costs {draw_ce_us:.1} us; samples_per_op x that = {:.0}% of the worker time and {:.0}% of cpu_ms_per_op ({cpu_per_op:.1} ms): {}",
                100.0 * ce_draw_share_of_solve,
                100.0 * ce_draw_share_of_cpu,
                verdict(ce_draw_share_of_solve >= 0.5),
            ),
        ],
        Workload::ServeLoopback => vec![
            format!(
                "serve-loopback: submit_rtt + wait_rtt = {serve_op:.1} ms against latency_p50 {latency_p50:.1} ms: {}",
                verdict((serve_op / latency_p50 - 1.0).abs() < 0.25),
            ),
            format!(
                "serve-loopback: of that, the solver takes {serve_solver_ms:.2} ms ({:.0}%), transport and queueing {:.1} ms ({:.0}%); 2 x stats_rtt = {:.1} ms: {}",
                100.0 * serve_solver_ms / serve_op,
                serve_op - serve_solver_ms,
                100.0 * (serve_op - serve_solver_ms) / serve_op,
                2.0 * stats_rtt,
                verdict((2.0 * stats_rtt / serve_op - 1.0).abs() < 0.5),
            ),
        ],
        Workload::ReplanDelta => vec![
            format!(
                "replan-delta: session.apply_ms + session.solve_ms = {:.1} ms against latency_p50 {latency_p50:.1} ms: {}",
                apply + solve_ms,
                verdict(((apply + solve_ms) / latency_p50 - 1.0).abs() < 0.25),
            ),
            format!(
                "replan-delta: graph.delta_apply_ms = {delta_apply:.1} ms is {:.0}% of session.apply_ms ({apply:.1} ms); instance rebuild + fingerprint + memo sweep take the rest: {}",
                100.0 * delta_apply / apply,
                verdict(delta_apply / apply >= 0.5),
            ),
        ],
    };
    Layers {
        metrics,
        accounting,
    }
}

/// Writes the spans of a traced run to `path`, one JSON object a line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"phase\":\"{}\",\"conn\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
            if s.replay { "replay" } else { "ops" },
            s.conn,
            s.op,
            s.name,
            s.start_us,
            s.dur_us
        );
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}
