//! `tune`: build a library from nothing on one thread.
//!
//! Every tune-suite kernel on the `x86` and `gh200` machine models is tuned
//! by `LibraryBuilder::tune_kernel` with the seeded `anneal` strategy, one
//! job at a time. Search, core, transform, ir, codegen and machine do all the
//! work; neither dispatch nor the interpreter runs inside a timed operation.
//! A round is the 32 jobs under each of eight builder seeds, 256 jobs; a run
//! repeats whole rounds until `--seconds` of job time has passed. Eight seeds
//! per round average out how much one seed's annealing trajectories cost and
//! find.
//!
//! The builder seeds are fixed. Annealing records keep steps the search
//! skipped as inapplicable, so a strict replay fails on about 60% of them,
//! which ones depending on the builder seed (see README.md): with fixed
//! seeds those jobs fail their check on every run, whatever `--seed` is.
//! `--seed` orders the jobs of a round and seeds the independent check's
//! interpreter inputs.

use crate::measure::{
    geomean, median, peak_rss_mb, percentile, timed, Outcome, Spans, KNOWN_FAULT,
};
use perfdojo_core::{Dojo, Target};
use perfdojo_ir::{exact_fp128, validate, Arena};
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{LibraryBuilder, Strategy, TuneOutcome};
use perfdojo_search::{
    anneal_resume, AnnealProgress, AnnealState, HeuristicSpace, SearchSpace, Undo,
};
use perfdojo_transform::{apply_count, available_actions_in, replay, replay_sequence, Action};
use perfdojo_util::rng::Rng;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Search evaluations per job.
const BUDGET: u64 = 400;
/// Builder seeds per round, drawn from a fixed seed.
const SEEDS: u64 = 8;
const BUILD_SEED: u64 = 0x7A5E;
/// Set-ups before each round; `setup_s` is the median of all of them, so
/// it samples the host over the whole run rather than at its start.
const SETUP_REPS: usize = 8;
/// Tail percentile of job latencies. The slowest job class holds 1/32 of
/// the samples, so p99 sits inside it with about a third of it beyond.
const TAIL: f64 = 0.99;
/// Interpreter trials of the independent equivalence check.
const CHECK_TRIALS: usize = 1;

struct Setup {
    kernels: Vec<KernelInstance>,
    targets: Vec<Target>,
    builders: Vec<LibraryBuilder>,
    /// The round's job order, a seeded permutation of `jobs` indices.
    order: Vec<usize>,
    /// Seed of the check's interpreter inputs (not the seed dispatch uses).
    check_seed: u64,
}

fn setup(seed: u64) -> Setup {
    let mut builder_rng = Rng::seed_from_u64(BUILD_SEED);
    let mut s = Setup {
        kernels: perfdojo_kernels::tune_suite(),
        targets: vec![Target::x86(), Target::gh200()],
        builders: (0..SEEDS)
            .map(|_| {
                LibraryBuilder::new(Strategy::Anneal { budget: BUDGET }, builder_rng.next_u64())
            })
            .collect(),
        order: Vec::new(),
        check_seed: 0,
    };
    let mut rng = Rng::seed_from_u64(seed);
    s.order = (0..jobs(&s).count()).collect();
    rng.shuffle(&mut s.order);
    s.check_seed = rng.next_u64();
    s
}

/// Independent check of one tuning outcome: the steps replay strictly onto
/// the naive program, the model prices the replay at exactly the recorded
/// cost, below naive, and the interpreter finds it equivalent to naive.
/// A record that fails only the strict replay is a `KNOWN_FAULT`: the other
/// checks run on the program its applicable steps reach.
fn check_outcome(
    k: &KernelInstance,
    t: &Target,
    o: &TuneOutcome,
    check_seed: u64,
) -> Result<(), String> {
    let job = format!("{} on {}", k.label, t.name);
    let rec = o
        .record
        .as_ref()
        .ok_or_else(|| format!("{job}: no record ({:?})", o.error))?;
    let strict = replay(&k.program, &rec.steps);
    let rep = replay_sequence(&k.program, &rec.steps);
    if rep.skipped.len() == rec.steps.len() {
        return Err(format!("{job}: no recorded step applies"));
    }
    let p = rep.program;
    validate(&p).map_err(|e| format!("{job}: invalid program: {e:?}"))?;
    let cost = t
        .machine
        .evaluate(&p)
        .map_err(|e| format!("{job}: {e:?}"))?
        .seconds;
    let naive = t
        .machine
        .evaluate(&k.program)
        .map_err(|e| format!("{job}: {e:?}"))?
        .seconds;
    if cost.to_bits() != rec.cost.to_bits() {
        return Err(format!(
            "{job}: replay costs {cost:e}, record says {:e}",
            rec.cost
        ));
    }
    if naive.to_bits() != rec.naive_cost.to_bits() || cost >= naive {
        return Err(format!("{job}: cost {cost:e} not below naive {naive:e}"));
    }
    let v = perfdojo_interp::verify_equivalent(&k.program, &p, CHECK_TRIALS, check_seed);
    if !v.is_equivalent() {
        return Err(format!("{job}: interpreter: {v:?}"));
    }
    strict
        .map(|_| ())
        .map_err(|e| format!("{KNOWN_FAULT}{job}: strict replay: {e}"))
}

/// A later round must reproduce the checked first round bit for bit, and
/// then passes or fails its check as the first round did.
fn same_outcome(
    a: &TuneOutcome,
    b: &TuneOutcome,
    first_check: &Result<(), String>,
) -> Result<(), String> {
    let (ra, rb) = (a.record.as_ref(), b.record.as_ref());
    let same = a.evaluations == b.evaluations
        && ra.map(|r| (&r.steps, r.cost.to_bits())) == rb.map(|r| (&r.steps, r.cost.to_bits()));
    if !same {
        return Err(format!(
            "{} on {}: round differs from round 1",
            a.label, a.target
        ));
    }
    first_check.clone()
}

/// Per-job results of untraced rounds.
struct Rounds {
    /// Job wall times, seconds, one vector per job.
    times: Vec<Vec<f64>>,
    /// Round wall times (sum of job times), seconds.
    round_s: Vec<f64>,
    evals: u64,
    /// The checked first-round outcomes and their checks, by job.
    reference: Vec<TuneOutcome>,
    first_check: Vec<Result<(), String>>,
}

impl Rounds {
    fn new(jobs: usize) -> Rounds {
        Rounds {
            times: vec![Vec::new(); jobs],
            round_s: Vec::new(),
            evals: 0,
            reference: Vec::new(),
            first_check: vec![Ok(()); jobs],
        }
    }

    /// Run one untraced round in the seeded job order, checking every job:
    /// in full in the first round, against the first round's outcome later.
    fn run(&mut self, s: &Setup, out: &mut Outcome) {
        let all: Vec<_> = jobs(s).collect();
        let first = self.reference.is_empty();
        let mut outcomes: Vec<Option<TuneOutcome>> = vec![None; all.len()];
        let mut round = 0.0;
        for &j in &s.order {
            let (b, k, t) = all[j];
            let (o, d) = timed(|| b.tune_kernel(k, t));
            round += d.as_secs_f64();
            self.times[j].push(d.as_secs_f64());
            self.evals += o.evaluations;
            if first {
                let check = check_outcome(k, t, &o, s.check_seed);
                out.op(check.clone());
                self.first_check[j] = check;
                outcomes[j] = Some(o);
            } else {
                out.op(same_outcome(&self.reference[j], &o, &self.first_check[j]));
            }
        }
        if first {
            self.reference = outcomes.into_iter().flatten().collect();
        }
        self.round_s.push(round);
    }

    fn total_s(&self) -> f64 {
        self.round_s.iter().sum()
    }
}

fn jobs(s: &Setup) -> impl Iterator<Item = (&LibraryBuilder, &KernelInstance, &Target)> {
    s.builders.iter().flat_map(move |b| {
        s.kernels
            .iter()
            .flat_map(move |k| s.targets.iter().map(move |t| (b, k, t)))
    })
}

/// Run the workload. `trace` selects the traced run.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut set_up = || {
        let mut s = None;
        for _ in 0..SETUP_REPS {
            let (x, d) = timed(|| setup(seed));
            setup_s.push(d.as_secs_f64());
            s = Some(x);
        }
        s.expect("SETUP_REPS > 0")
    };
    let s = set_up();
    let njobs = s.builders.len() * s.kernels.len() * s.targets.len();
    let mut rounds = Rounds::new(njobs);
    if trace {
        run_traced(&s, &mut rounds, seconds, &mut out);
        return out;
    }
    while rounds.round_s.is_empty() || rounds.total_s() < seconds {
        if !rounds.round_s.is_empty() {
            set_up();
        }
        rounds.run(&s, &mut out);
    }

    let all: Vec<f64> = rounds.times.iter().flatten().map(|t| t * 1e3).collect();
    let (tail, beyond) = percentile(&all, TAIL);
    if beyond < 10 {
        eprintln!("perfbench: only {beyond} samples beyond p{}", TAIL * 100.0);
    }
    let speedups: Vec<f64> = rounds
        .reference
        .iter()
        .filter_map(|o| o.record.as_ref().map(|r| r.naive_cost / r.cost))
        .collect();
    // a job without a record already failed its check
    let speedup = if speedups.is_empty() {
        f64::NAN
    } else {
        geomean(&speedups)
    };
    let total = rounds.total_s();
    out.set("setup_s", median(&setup_s), "s");
    out.set("evals_per_s", rounds.evals as f64 / total, "1/s");
    out.set("tuned_speedup", speedup, "x");
    out.set("ops_per_s", all.len() as f64 / total, "1/s");
    out.set(
        "op_ms",
        geomean(
            &rounds
                .times
                .iter()
                .map(|t| median(t) * 1e3)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    out.set("op_tail_ms", tail, "ms");
    out.set("served_speedup", speedup, "x");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

/// Records whose steps do not replay strictly onto their naive program.
fn unapplied_step_records(s: &Setup, outcomes: &[TuneOutcome]) -> usize {
    jobs(s)
        .zip(outcomes)
        .filter(|((_, k, _), o)| {
            o.record
                .as_ref()
                .is_some_and(|r| replay(&k.program, &r.steps).is_err())
        })
        .count()
}

/// What the timed search space saw in the last proposal.
struct Proposal {
    propose: Duration,
    /// Tracer bookkeeping inside the step, subtracted from the evaluation.
    bookkeeping: Duration,
    /// Cost-cache misses when the proposal returned: a higher count after
    /// the step means the candidate's evaluation missed the cache.
    misses: u64,
    /// The dojo's applied steps when the proposal returned (the state
    /// `load_sequence` diffs the candidate against).
    pre_steps: Vec<Action>,
}

/// `HeuristicSpace` with a timer around `propose`.
struct TimedSpace {
    last: Mutex<Option<Proposal>>,
}

impl SearchSpace for TimedSpace {
    fn initial(&self, dojo: &mut Dojo) -> Vec<Action> {
        HeuristicSpace.initial(dojo)
    }

    fn neighbor(&self, seq: &[Action], dojo: &mut Dojo, rng: &mut Rng) -> Vec<Action> {
        HeuristicSpace.neighbor(seq, dojo, rng)
    }

    fn propose(&self, seq: &mut Vec<Action>, dojo: &mut Dojo, rng: &mut Rng) -> Undo {
        let t0 = Instant::now();
        let undo = HeuristicSpace.propose(seq, dojo, rng);
        let t1 = Instant::now();
        let misses = dojo.cache_stats().misses;
        let pre_steps = dojo.history.steps.clone();
        let mut last = self.last.lock().expect("tracer lock poisoned");
        *last = Some(Proposal {
            propose: t1 - t0,
            bookkeeping: Duration::ZERO,
            misses,
            pre_steps,
        });
        last.as_mut().expect("just set").bookkeeping = t1.elapsed();
        undo
    }
}

/// Counters of the traced search loop that are not spans.
#[derive(Default)]
struct LoopCounts {
    evals: u64,
    hits: u64,
    misses: u64,
    applies: u64,
}

/// Traced job: the same seeded SA as `tune_kernel`, stepped one iteration
/// at a time, with every cache-miss candidate run again through the layer
/// calls of the evaluation path. Returns the best steps and cost.
fn traced_job(
    k: &KernelInstance,
    t: &Target,
    seed: u64,
    spans: &mut Spans,
    counts: &mut LoopCounts,
) -> Result<(Vec<Action>, f64), String> {
    let job = format!("{} on {}", k.label, t.name);
    let mut dojo = spans
        .time("core.dojo_new", || Dojo::for_target(k.program.clone(), t))
        .map_err(|e| format!("{job}: {e:?}"))?;
    let space = TimedSpace {
        last: Mutex::new(None),
    };
    let mut st = spans.time("search.start", || {
        AnnealState::start_with_warm(&mut dojo, &space, seed, &[])
    });
    let evals0 = dojo.evaluations();
    let cache0 = dojo.cache_stats();
    let mut rerun_applies = 0u64;
    let applies0 = apply_count();
    loop {
        let t0 = Instant::now();
        let progress = anneal_resume(&mut dojo, &space, BUDGET, &mut st, None, Some(1));
        let step = t0.elapsed();
        let Some(p) = space.last.lock().expect("tracer lock poisoned").take() else {
            // the closing call only finds the budget spent
            spans.add("search.finish", step);
            break;
        };
        spans.add("search.propose", p.propose);
        spans.add("core.eval", step.saturating_sub(p.propose + p.bookkeeping));
        if dojo.cache_stats().misses > p.misses {
            rerun_applies +=
                rerun_miss(&dojo, &p.pre_steps, spans).map_err(|e| format!("{job}: {e}"))?;
        }
        if progress == AnnealProgress::Finished {
            break;
        }
    }
    let cache = dojo.cache_stats();
    counts.evals += dojo.evaluations() - evals0;
    counts.hits += cache.hits - cache0.hits;
    counts.misses += cache.misses - cache0.misses;
    counts.applies += apply_count() - applies0 - rerun_applies;
    Ok((st.best_steps, st.best_runtime))
}

/// Run the state a cache miss evaluated through the layer calls once more:
/// the transforms `load_sequence` applied (the suffix after the prefix it
/// shared with the previous state), then arena build, fingerprint, finders,
/// lowering and the machine model. Returns the `Action::apply` calls made.
fn rerun_miss(dojo: &Dojo, pre_steps: &[Action], spans: &mut Spans) -> Result<u64, String> {
    let steps = &dojo.history.steps;
    let shared = pre_steps
        .iter()
        .zip(steps)
        .take_while(|(a, b)| a == b)
        .count();
    let mut p = dojo.history.initial.clone();
    for (i, a) in steps.iter().enumerate() {
        p = if i < shared {
            a.apply(&p)
        } else {
            spans.time("transform.apply", || a.apply(&p))
        }
        .map_err(|e| format!("re-apply of step {i}: {e:?}"))?;
    }
    if &p != dojo.current() {
        return Err("re-applied steps reach another program than the search did".into());
    }
    let arena = spans.time("ir.arena_build", || Arena::build(&p));
    spans.time("ir.fingerprint", || exact_fp128(&p));
    spans.time("transform.finders", || {
        available_actions_in(&arena, dojo.library())
    });
    let lowered = spans
        .time("codegen.lower", || perfdojo_codegen::lower_arena(&arena))
        .map_err(|e| format!("lower: {e:?}"))?;
    let est = spans
        .time("machine.cost", || dojo.machine().evaluate_lowered(&lowered))
        .map_err(|e| format!("cost: {e:?}"))?;
    if est.seconds.to_bits() != dojo.runtime().to_bits() {
        return Err("re-run cost differs from the search's".into());
    }
    Ok(steps.len() as u64)
}

/// The traced run: untraced and traced rounds alternate until `seconds`
/// have passed; the traced rounds must reproduce the untraced results.
fn run_traced(s: &Setup, rounds: &mut Rounds, seconds: f64, out: &mut Outcome) {
    let mut spans = Spans::default();
    let mut counts = LoopCounts::default();
    let mut traced_s = Vec::new();
    let t_run = Instant::now();
    while traced_s.is_empty() || t_run.elapsed().as_secs_f64() < seconds {
        rounds.run(s, out);
        let t0 = Instant::now();
        for (j, (b, k, t)) in jobs(s).enumerate() {
            let seed = b.job_seed(&k.label, &t.name);
            let check =
                traced_job(k, t, seed, &mut spans, &mut counts).and_then(|(steps, cost)| {
                    let rec = rounds.reference[j]
                        .record
                        .as_ref()
                        .ok_or("no reference record")?;
                    (rec.steps == steps && rec.cost.to_bits() == cost.to_bits())
                        .then_some(())
                        .ok_or_else(|| format!("{} on {}: traced search differs", k.label, t.name))
                });
            out.op(check);
        }
        traced_s.push(t0.elapsed().as_secs_f64());
    }
    let untraced = rounds.total_s() / rounds.round_s.len() as f64;
    let traced = traced_s.iter().sum::<f64>() / traced_s.len() as f64;
    let n = traced_s.len() as f64;
    let top = [
        "core.dojo_new",
        "search.start",
        "search.propose",
        "core.eval",
        "search.finish",
    ]
    .iter()
    .map(|s| spans.total_s(s))
    .sum::<f64>()
        / n;
    // evaluation = applies + (arena build, lowering, cost) per miss + one
    // fingerprint per evaluation; finders run inside proposals
    let eval_layers = counts.applies as f64 * spans.mean_us("transform.apply")
        + counts.misses as f64
            * (spans.mean_us("ir.arena_build")
                + spans.mean_us("codegen.lower")
                + spans.mean_us("machine.cost"))
        + counts.evals as f64 * spans.mean_us("ir.fingerprint");
    out.set("search.propose_us", spans.mean_us("search.propose"), "us");
    out.set(
        "search.propose_calls",
        spans.count("search.propose") as f64 / n,
        "count",
    );
    out.set("core.eval_us", spans.mean_us("core.eval"), "us");
    out.set("core.evals", counts.evals as f64 / n, "count");
    out.set(
        "core.cache_hit_ratio",
        counts.hits as f64 / counts.evals as f64,
        "ratio",
    );
    out.set(
        "transform.applies_per_eval",
        counts.applies as f64 / counts.evals as f64,
        "ratio",
    );
    for (metric, span) in [
        ("transform.apply_us", "transform.apply"),
        ("transform.finders_us", "transform.finders"),
        ("ir.arena_build_us", "ir.arena_build"),
        ("ir.fingerprint_us", "ir.fingerprint"),
        ("codegen.lower_us", "codegen.lower"),
        ("machine.cost_us", "machine.cost"),
    ] {
        out.set(metric, spans.mean_us(span), "us");
    }
    out.set(
        "core.miss_reruns",
        spans.count("machine.cost") as f64 / n,
        "count",
    );
    out.set(
        "library.unapplied_step_records",
        unapplied_step_records(s, &rounds.reference) as f64,
        "count",
    );
    out.set("trace.overhead_share", traced / untraced - 1.0, "ratio");
    out.set("trace.top_share", top / untraced, "ratio");
    out.set(
        "trace.layer_share",
        eval_layers * 1e-6 / spans.total_s("core.eval"),
        "ratio",
    );
}
