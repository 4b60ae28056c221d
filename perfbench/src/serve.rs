//! `serve_hot` and `serve_shift`: dispatch from a generated library.
//!
//! Set-up builds the serving library on one thread, saves it, loads it back
//! through the on-disk format and starts a `Server`. A closed loop with one
//! client then sends a seeded stream through `Server::lookup_now`. The
//! stream is uniform: every query of the universe appears the same number of
//! times per round, in a seeded order, so the mix is the same on every seed
//! and favours no operator.
//!
//! - `serve_hot` serves from a library the heuristic strategy (the server's
//!   own tuning strategy) builds over the tune suite, at exactly the shapes
//!   it holds: every lookup is an exact hit, verified again by the
//!   interpreter.
//! - `serve_shift` serves shapes around the paper's Table 3 sizes, all above
//!   the interpreter's verification limit, from a library that `anneal`
//!   tunes at the tune-suite shapes of three two-shape families. A round
//!   first asks for half of each operator's shapes once, in a seeded order:
//!   the parameterized tier answers the tuned families, the heuristic and
//!   naive tiers the rest, whose misses become tune jobs.
//!   `Server::drain_tunes` then tunes them and hot-swaps, and the stream over
//!   all shapes follows: former misses that tuning improved are exact hits,
//!   and the other shapes of their operators are served from the drained
//!   records by the parameterized and nearest tiers. One drain at a fixed
//!   index keeps each shape's tier independent of the order.
//!
//! Both libraries hold the records exactly as `LibraryBuilder::tune_kernel`
//! returns them. A round is one stream on a fresh `Server` over the loaded
//! library, so every round repeats the same operations; a run repeats whole
//! rounds until `--seconds` of lookup time has passed. The libraries are
//! built with a fixed seed, so `--seed` varies the queries only.

use crate::measure::{
    geomean, median, peak_rss_mb, percentile, timed, Outcome, Spans, KNOWN_FAULT,
};
use perfdojo_core::{Dojo, Target};
use perfdojo_ir::fingerprint::fnv1a;
use perfdojo_ir::{validate, Program};
use perfdojo_library::{
    dispatch_stats, fit_for, DispatchStats, Disposition, HitTier, KernelSig, Library,
    LibraryBuilder, ServeConfig, ServeQuery, ServeReply, ServeSnapshot, Server, Strategy,
    TuneProgress,
};
use perfdojo_transform::{replay, replay_sequence};
use perfdojo_util::rng::Rng;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Shift,
}

/// Search evaluations per `serve_shift` set-up job (about one second of
/// set-up), and the builder seed of both serving libraries.
const SETUP_BUDGET: u64 = 1500;
const SETUP_SEED: u64 = 0x5E70B;
/// Dispatch verifies a served program numerically when the query has at
/// most this many dynamic op instances (`dispatch.rs`).
const VERIFY_WORK_LIMIT: u64 = 2_000_000;
/// Interpreter trials of dispatch's verification and of the independent
/// check, which uses its own seed.
const VERIFY_TRIALS: usize = 2;
const CHECK_SEED: u64 = 0xC4EC;
/// Shapes per operator in the `serve_shift` universe.
const SHIFT_SHAPES: usize = 4;
/// Factors applied to Table 3 dimensions of at least 64.
const SHIFT_FACTORS: [f64; SHIFT_SHAPES] = [0.5, 0.75, 1.25, 1.5];

/// The tune-suite families `serve_shift`'s library holds (two shapes each).
const SHIFT_TUNED: [&str; 6] = [
    "layernorm 1",
    "layernorm 2",
    "batchnorm 1",
    "batchnorm 2",
    "conv 1",
    "conv 2",
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve_hot",
            Kind::Shift => "serve_shift",
        }
    }

    /// Times each universe entry appears in a round's stream.
    fn copies(self) -> usize {
        match self {
            Kind::Hot => 4,
            Kind::Shift => 2,
        }
    }

    /// Set-ups per run, spread over the run's lookup time; `setup_s` is their
    /// median, so it samples the host over the whole run. `serve_hot`'s
    /// set-up takes milliseconds, so it takes more samples.
    fn setup_reps(self) -> usize {
        match self {
            Kind::Hot => 16,
            Kind::Shift => 4,
        }
    }

    /// Tail percentile of all lookup latencies; see README.md.
    fn tail(self) -> f64 {
        match self {
            Kind::Hot => 0.96,
            Kind::Shift => 0.88,
        }
    }
}

fn dims_of(shape: &str) -> Vec<usize> {
    shape
        .split('x')
        .map(|d| d.parse().expect("suite shapes are numeric"))
        .collect()
}

/// The query universe, in tune-suite order. `serve_hot`: every tune-suite
/// shape the library holds a record for. `serve_shift`: `SHIFT_SHAPES`
/// shapes per operator, operator-major.
fn universe(kind: Kind, seed: u64, s: &Setup) -> Result<Vec<ServeQuery>, String> {
    let mut queries = Vec::new();
    let mut rng = Rng::seed_from_u64(seed ^ 0x54A9E);
    for k in perfdojo_kernels::tune_suite() {
        let label = k.label.as_str();
        let shapes = match kind {
            Kind::Hot => {
                if s.library
                    .get(&KernelSig::of(&k.program, &s.target.name))
                    .is_none()
                {
                    continue;
                }
                vec![dims_of(&k.shape)]
            }
            Kind::Shift => shift_shapes(label, &mut rng)?,
        };
        for dims in shapes {
            queries.push(ServeQuery::of(label, &dims).ok_or(format!("no query {label}"))?);
        }
    }
    Ok(queries)
}

/// `SHIFT_SHAPES` distinct shapes of one operator around its Table 3 size:
/// each dimension of at least 64 is scaled by a factor from `SHIFT_FACTORS`
/// and rounded to a multiple of 8, and the leading dimension doubles until
/// the query is above the verification limit. The factors are seeded, except
/// for swiglu: tuning does not improve it at these sizes, so every lookup of
/// it fails a check (see README.md), and its shapes take each factor in turn
/// so that the failures do not depend on the seed.
fn shift_shapes(label: &str, rng: &mut Rng) -> Result<Vec<Vec<usize>>, String> {
    let base = perfdojo_kernels::by_label(label).ok_or(format!("no kernel {label}"))?;
    let base = dims_of(&base.shape);
    let ops = |d: &[usize]| {
        perfdojo_kernels::by_label_with_shape(label, d).map_or(0, |p| p.dynamic_op_instances())
    };
    let mut shapes: Vec<Vec<usize>> = Vec::new();
    for attempt in 0..100 {
        if shapes.len() == SHIFT_SHAPES {
            break;
        }
        let fixed = SHIFT_FACTORS[attempt % SHIFT_SHAPES];
        let mut dims: Vec<usize> = base
            .iter()
            .map(|&d| match d {
                d if d >= 64 => {
                    let f = if label == "swiglu" {
                        fixed
                    } else {
                        *rng.choose(&SHIFT_FACTORS).expect("non-empty")
                    };
                    ((d as f64 * f / 8.0).round() as usize) * 8
                }
                d => d,
            })
            .collect();
        while ops(&dims) <= VERIFY_WORK_LIMIT {
            dims[0] *= 2;
        }
        if !shapes.contains(&dims) {
            shapes.push(dims);
        }
    }
    Ok(shapes)
}

/// Whether a `serve_shift` universe entry (operator-major, `SHIFT_SHAPES`
/// per operator) is asked for in the pass before the drain: half of each
/// operator's shapes are.
fn first_pass(rank: usize) -> bool {
    rank % SHIFT_SHAPES < SHIFT_SHAPES / 2
}

/// One round's stream of universe indices: each entry `copies` times, in a
/// seeded order. `serve_shift` prefixes one pass over half of each
/// operator's shapes, in another seeded order.
fn stream(kind: Kind, entries: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x572EA3);
    let mut s: Vec<usize> = (0..entries)
        .flat_map(|r| std::iter::repeat_n(r, kind.copies()))
        .collect();
    rng.shuffle(&mut s);
    if kind == Kind::Shift {
        let mut pass: Vec<usize> = (0..entries).filter(|r| first_pass(*r)).collect();
        rng.shuffle(&mut pass);
        pass.extend(s);
        s = pass;
    }
    s
}

struct Setup {
    library: Library,
    target: Target,
    times: SetupTimes,
    evals: u64,
    /// Library records whose steps do not replay strictly.
    unapplied: usize,
}

/// Seconds of one set-up: in all, and in its build, save and load.
#[derive(Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    build_s: f64,
    save_s: f64,
    load_s: f64,
}

/// Build, save, load and serve: everything before the first lookup.
/// `serve_hot` builds the whole tune suite with the heuristic strategy,
/// whose records replay strictly, so each is an exact hit at its own shape;
/// `serve_shift` anneals `SHIFT_TUNED`.
fn setup(kind: Kind, path: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let target = Target::x86();
    let (strategy, kernels) = match kind {
        Kind::Hot => (Strategy::Heuristic, perfdojo_kernels::tune_suite()),
        Kind::Shift => (
            Strategy::Anneal {
                budget: SETUP_BUDGET,
            },
            perfdojo_kernels::tune_suite()
                .into_iter()
                .filter(|k| SHIFT_TUNED.contains(&k.label.as_str()))
                .collect(),
        ),
    };
    let builder = LibraryBuilder::new(strategy, SETUP_SEED);
    let mut records = Vec::new();
    let mut evals = 0;
    let mut unapplied = 0;
    for k in &kernels {
        let o = builder.tune_kernel(k, &target);
        evals += o.evaluations;
        if let Some(rec) = o.record {
            unapplied += usize::from(replay(&k.program, &rec.steps).is_err());
            records.push(rec);
        }
    }
    if records.is_empty() {
        return Err("set-up tuning found nothing".into());
    }
    let mut built = Library::new();
    built.merge(records);
    let build_s = t0.elapsed().as_secs_f64();
    let (saved, save) = timed(|| built.save(path));
    saved.map_err(|e| format!("save {}: {e}", path.display()))?;
    let (loaded, load) = timed(|| Library::load(path));
    let (library, stats) = loaded.map_err(|e| format!("load {}: {e}", path.display()))?;
    if library.to_text() != built.to_text() || stats.corrupt_entries + stats.stray_lines > 0 {
        return Err("the library loaded back differs from the one saved".into());
    }
    std::hint::black_box(Server::new(
        library.clone(),
        target.clone(),
        ServeConfig::default(),
    ));
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        build_s,
        save_s: save.as_secs_f64(),
        load_s: load.as_secs_f64(),
    };
    Ok(Setup {
        library,
        target,
        times,
        evals,
        unapplied,
    })
}

fn tier_of(d: &Disposition) -> HitTier {
    match d {
        Disposition::ExactHit => HitTier::Exact,
        Disposition::Parameterized { .. } => HitTier::Parameterized,
        Disposition::FallbackReplay { .. } => HitTier::Nearest,
        Disposition::FallbackHeuristic => HitTier::Heuristic,
        Disposition::Naive => HitTier::Naive,
    }
}

const TIERS: [HitTier; 5] = [
    HitTier::Exact,
    HitTier::Parameterized,
    HitTier::Nearest,
    HitTier::Heuristic,
    HitTier::Naive,
];

/// Independent check of one reply, against a fresh dispatch on the snapshot
/// that served it: the served program must validate, replay from the query
/// with the served steps, cost what the model says and no more than naive,
/// and be interpreter-equivalent to the query when it is small enough to
/// verify. `verified` must be `Some(true)` for such a query and `None` for a
/// query above the verification limit, whatever the tier.
fn check_reply(
    q: &ServeQuery,
    r: &ServeReply,
    snap: &ServeSnapshot,
    t: &Target,
) -> Result<(), String> {
    let who = format!("{} {:?} gen {}", q.label, q.dims, r.generation);
    let d = snap.library.lookup(&q.program, t);
    if snap.generation != r.generation
        || tier_of(&d.disposition) != r.tier
        || d.cost.to_bits() != r.cost.to_bits()
        || d.steps.len() != r.steps
    {
        return Err(format!(
            "{who}: reply does not match dispatch ({})",
            d.disposition
        ));
    }
    validate(&d.program).map_err(|e| format!("{who}: served program invalid: {e:?}"))?;
    let naive = t
        .machine
        .evaluate(&q.program)
        .map_err(|e| format!("{who}: {e:?}"))?
        .seconds;
    let cost = t
        .machine
        .evaluate(&d.program)
        .map_err(|e| format!("{who}: {e:?}"))?
        .seconds;
    if naive.to_bits() != r.naive_cost.to_bits()
        || cost.to_bits() != d.cost.to_bits()
        || cost > naive
    {
        return Err(format!(
            "{who}: served cost {cost:e} vs naive {naive:e} (reply {:e})",
            r.cost
        ));
    }
    let replayed = if r.tier == HitTier::Exact {
        let rec = snap
            .library
            .get(&KernelSig::of(&q.program, &t.name))
            .ok_or("exact hit without record")?;
        if rec.steps != d.steps {
            return Err(format!(
                "{who}: exact hit served other steps than the record's"
            ));
        }
        replay(&q.program, &d.steps).map_err(|e| format!("{who}: strict replay: {e}"))?
    } else {
        let rep = replay_sequence(&q.program, &d.steps);
        if !rep.skipped.is_empty() {
            return Err(format!(
                "{who}: served steps {:?} do not apply",
                rep.skipped
            ));
        }
        rep.program
    };
    if replayed != d.program {
        return Err(format!("{who}: served steps replay to another program"));
    }
    // the naive tier serves the query itself, equivalent by identity
    let naive_tier = r.tier == HitTier::Naive;
    if naive_tier && d.program != q.program {
        return Err(format!("{who}: the naive tier served another program"));
    }
    let small = q.program.dynamic_op_instances() <= VERIFY_WORK_LIMIT;
    if d.verified != small.then_some(true) {
        // the naive tier reports every query as verified
        let known = if naive_tier && !small {
            KNOWN_FAULT
        } else {
            ""
        };
        return Err(format!(
            "{known}{who}: verified is {:?} for a query of {} ops",
            d.verified,
            q.program.dynamic_op_instances()
        ));
    }
    if small && !naive_tier {
        let v =
            perfdojo_interp::verify_equivalent(&q.program, &d.program, VERIFY_TRIALS, CHECK_SEED);
        if !v.is_equivalent() {
            return Err(format!("{who}: interpreter: {v:?}"));
        }
    }
    Ok(())
}

/// Untraced lookups kept per run; far above what 60 s of the fastest
/// workload reaches.
const MAX_SAMPLES: usize = 1 << 21;

/// One untraced lookup.
struct Sample {
    query: u32,
    tier: HitTier,
    ms: f32,
}

/// What a checked reply must look like when it repeats.
#[derive(Clone, PartialEq)]
struct ReplyKey {
    tier: HitTier,
    cost: u64,
    naive: u64,
    steps: usize,
}

impl ReplyKey {
    fn of(r: &ServeReply) -> ReplyKey {
        ReplyKey {
            tier: r.tier,
            cost: r.cost.to_bits(),
            naive: r.naive_cost.to_bits(),
            steps: r.steps,
        }
    }
}

/// Everything the untraced and traced rounds of one run accumulate.
struct Rounds {
    kind: Kind,
    universe: Vec<ServeQuery>,
    stream: Vec<usize>,
    /// Untraced lookups. Allocated once up front: a vector that doubles as
    /// it fills would make `peak_rss_mb` jump with the number of lookups.
    samples: Vec<Sample>,
    /// Untraced lookups and their total time.
    lookups: u64,
    lookup_s: f64,
    drain_s: f64,
    drained_jobs: u64,
    /// Round wall times without checks, untraced and traced.
    wall_s: Vec<f64>,
    traced_wall_s: Vec<f64>,
    traced_lookup_s: f64,
    /// Checked replies by (universe entry, snapshot generation).
    checked: HashMap<(usize, u64), ReplyKey>,
    /// Per universe entry, ln(naive / served) of its first-round replies.
    served_ln: Vec<Vec<f64>>,
    /// First-round facts.
    records_end: usize,
    tune_jobs: u64,
    swaps: u64,
    repeat_share: f64,
    /// Dispatch counter deltas around the lookups of traced rounds.
    dispatch: DispatchStats,
}

fn add_stats(acc: &mut DispatchStats, before: &DispatchStats, after: &DispatchStats) {
    acc.exact_hits += after.exact_hits - before.exact_hits;
    acc.parameterized_hits += after.parameterized_hits - before.parameterized_hits;
    acc.parameterized_rejects += after.parameterized_rejects - before.parameterized_rejects;
    acc.replay_hits += after.replay_hits - before.replay_hits;
    acc.heuristic_serves += after.heuristic_serves - before.heuristic_serves;
    acc.naive_serves += after.naive_serves - before.naive_serves;
}

impl Rounds {
    /// One round on a fresh server. With `spans`, every lookup's tier path
    /// is run again through the layer calls after it is timed.
    fn run(&mut self, s: &Setup, out: &mut Outcome, mut spans: Option<&mut Spans>) {
        let first = self.wall_s.is_empty() && self.traced_wall_s.is_empty();
        let server = Server::new(s.library.clone(), s.target.clone(), ServeConfig::default());
        let drain_at: Vec<usize> = match self.kind {
            Kind::Hot => Vec::new(),
            Kind::Shift => vec![(0..self.universe.len()).filter(|r| first_pass(*r)).count()],
        };
        let mut seen = BTreeSet::new();
        let mut repeats = 0usize;
        // keys enqueued for tuning this round, and keys a drain has tuned
        let mut enqueued: BTreeSet<String> = BTreeSet::new();
        let mut pending: Vec<(usize, String)> = Vec::new();
        let mut tuned: BTreeSet<String> = BTreeSet::new();
        let mut wall = 0.0;
        let mut lookup_s = 0.0;
        let stream = std::mem::take(&mut self.stream);
        for (i, &qi) in stream.iter().enumerate() {
            if drain_at.contains(&i) {
                let (res, d) = timed(|| server.drain_tunes());
                wall += d.as_secs_f64();
                self.drain_s += d.as_secs_f64();
                self.drained_jobs += pending.len() as u64;
                out.op(self.check_drain(res, &server, s, &mut pending, &mut tuned));
            }
            let jobs_before = server.stats().tune_jobs;
            let before = spans.is_some().then(dispatch_stats);
            let (r, d) = timed(|| server.lookup_now(&self.universe[qi]));
            if let Some(b) = before {
                add_stats(&mut self.dispatch, &b, &dispatch_stats());
            }
            let ms = d.as_secs_f64() * 1e3;
            lookup_s += d.as_secs_f64();
            wall += d.as_secs_f64();
            if spans.is_none() {
                self.lookups += 1;
                if self.samples.len() < self.samples.capacity() {
                    self.samples.push(Sample {
                        query: qi as u32,
                        tier: r.tier,
                        ms: ms as f32,
                    });
                }
            }
            if !seen.insert(qi) {
                repeats += 1;
            }
            if first {
                self.served_ln[qi].push((r.naive_cost / r.cost).ln());
            }
            let mut check = self.check_lookup(qi, &r, &server, s);
            if server.stats().tune_jobs > jobs_before {
                // a drain forgets the keys of the jobs it could not improve
                if !enqueued.insert(r.key.clone()) {
                    let twice = format!("{} enqueued for tuning twice", r.key);
                    check = match check {
                        Ok(()) => Err(format!("{KNOWN_FAULT}{twice}")),
                        Err(e) => Err(format!("{e}; {twice}")),
                    };
                }
                pending.push((qi, r.key.clone()));
            }
            if tuned.contains(&r.key) && r.tier != HitTier::Exact {
                check = Err(format!(
                    "{} was tuned but resolved as {}",
                    r.key,
                    r.tier.tag()
                ));
            }
            out.op(check);
            if let Some(spans) = spans.as_deref_mut() {
                let snap = server.snapshot(0);
                let t0 = Instant::now();
                rerun_lookup(&self.universe[qi], r.tier, &snap, &s.target, spans);
                wall += t0.elapsed().as_secs_f64();
            }
        }
        self.stream = stream;
        if spans.is_some() {
            self.traced_wall_s.push(wall);
            self.traced_lookup_s += lookup_s;
        } else {
            self.wall_s.push(wall);
            self.lookup_s += lookup_s;
        }
        if first {
            let lib = &server.snapshot(0).library;
            self.records_end = lib.len();
            let st = server.stats();
            self.tune_jobs = st.tune_jobs;
            self.swaps = st.swaps;
            self.repeat_share = repeats as f64 / self.stream.len() as f64;
        }
    }

    /// Check a reply in full the first time its (query, snapshot) pair is
    /// seen, and against that checked reply afterwards.
    fn check_lookup(
        &mut self,
        qi: usize,
        r: &ServeReply,
        server: &Server,
        s: &Setup,
    ) -> Result<(), String> {
        if self.kind == Kind::Hot && (r.tier != HitTier::Exact || r.generation != 0) {
            return Err(format!(
                "{} resolved as {} at generation {}",
                r.key,
                r.tier.tag(),
                r.generation
            ));
        }
        let key = ReplyKey::of(r);
        match self.checked.get(&(qi, r.generation)) {
            Some(k) if *k == key => Ok(()),
            Some(_) => Err(format!(
                "{}: reply differs from its checked first occurrence",
                r.key
            )),
            None => {
                check_reply(&self.universe[qi], r, &server.snapshot(0), &s.target)?;
                self.checked.insert((qi, r.generation), key);
                Ok(())
            }
        }
    }

    /// A drain must tune every pending miss: each job that produced a record
    /// must now be served as an exact hit, and the jobs that did not are the
    /// drain's `unimproved` count.
    fn check_drain(
        &self,
        res: Result<TuneProgress, String>,
        server: &Server,
        s: &Setup,
        pending: &mut Vec<(usize, String)>,
        tuned: &mut BTreeSet<String>,
    ) -> Result<(), String> {
        let jobs = std::mem::take(pending);
        let n = jobs.len();
        let unimproved = match res? {
            TuneProgress::Idle if jobs.is_empty() => return Ok(()),
            TuneProgress::Swapped {
                tuned, unimproved, ..
            } if tuned + unimproved == n => unimproved,
            other => return Err(format!("drain of {n} jobs: {other:?}")),
        };
        let snap = server.snapshot(0);
        let mut without_record = 0;
        for (qi, key) in jobs {
            let q = &self.universe[qi].program;
            if snap
                .library
                .get(&KernelSig::of(q, &s.target.name))
                .is_none()
            {
                without_record += 1;
                continue;
            }
            let d = snap.library.lookup(q, &s.target);
            if d.disposition != Disposition::ExactHit {
                return Err(format!("{key} after its drain: {}", d.disposition));
            }
            tuned.insert(key);
        }
        if without_record != unimproved {
            return Err(format!(
                "drain of {n} jobs: {unimproved} unimproved, {without_record} without a record"
            ));
        }
        Ok(())
    }
}

/// Accept path of one dispatch candidate, as `dispatch::accept` runs it.
fn rerun_accept(q: &Program, p: &Program, naive: f64, tag: &str, t: &Target, spans: &mut Spans) {
    if spans.time("ir.validate", || validate(p)).is_err() {
        return;
    }
    let cost = spans
        .time("machine.evaluate", || t.machine.evaluate(p))
        .map_or(f64::NAN, |e| e.seconds);
    if !cost.is_finite() || cost > naive {
        return;
    }
    if q.dynamic_op_instances() <= VERIFY_WORK_LIMIT {
        let seed = fnv1a(tag.as_bytes());
        spans.time("interp.verify", || {
            perfdojo_interp::verify_equivalent(q, p, VERIFY_TRIALS, seed)
        });
    }
}

/// Run the tier path of one lookup again, call by call, in dispatch order
/// down to the tier that served it: signature (once for the server's key,
/// once in dispatch), the naive price (once in `lookup`, once in
/// `lookup_cached`), then each tier's probe, replay and accept path.
fn rerun_lookup(
    query: &ServeQuery,
    tier: HitTier,
    snap: &ServeSnapshot,
    t: &Target,
    spans: &mut Spans,
) {
    let q = &query.program;
    let lib = &snap.library;
    spans.time("library.sig", || KernelSig::of(q, &t.name));
    let sig = spans.time("library.sig", || KernelSig::of(q, &t.name));
    let _ = spans.time("library.naive_cost", || t.machine.evaluate(q));
    let naive = spans
        .time("library.naive_cost", || t.machine.evaluate(q))
        .map_or(f64::INFINITY, |e| e.seconds);
    if let Some(rec) = spans.time("library.get", || lib.get(&sig)) {
        if let Ok(p) = spans.time("transform.replay", || replay(q, &rec.steps)) {
            rerun_accept(q, &p, naive, "exact-hit", t, spans);
        }
    }
    if tier == HitTier::Exact {
        return;
    }
    if let Some(ps) = spans.time("library.fit", || fit_for(lib, &sig)) {
        let steps = ps.materialize(&sig.shape);
        let rep = spans.time("transform.replay", || replay_sequence(q, &steps));
        if rep.skipped.len() < steps.len() {
            rerun_accept(q, &rep.program, naive, "parameterized", t, spans);
        }
    }
    if tier == HitTier::Parameterized {
        return;
    }
    if let Some((rec, _)) = spans.time("library.nearest", || lib.nearest(&sig)) {
        if !rec.steps.is_empty() {
            let rep = spans.time("transform.replay", || replay_sequence(q, &rec.steps));
            if rep.skipped.len() < rec.steps.len() {
                rerun_accept(q, &rep.program, naive, "fallback-replay", t, spans);
            }
        }
    }
    if tier == HitTier::Nearest {
        return;
    }
    let heuristic = spans.time("search.heuristic", || {
        let mut dojo = Dojo::for_target(q.clone(), t).ok()?;
        let cost = perfdojo_search::heuristic_pass(&mut dojo);
        (!dojo.history.steps.is_empty() && cost < naive).then(|| dojo.current().clone())
    });
    if let Some(p) = heuristic {
        rerun_accept(q, &p, naive, "fallback-heuristic", t, spans);
    }
}

/// Run the workload. `trace` selects the traced run.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = PathBuf::from(".perfbench_work");
    let path = dir.join(format!("{}-{}.pdl", kind.name(), std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| run_in(kind, seed, seconds, trace, &path, &mut out));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("tmp"));
    let _ = std::fs::remove_dir(&dir);
    if let Err(e) = result {
        out.op(Err(e));
    }
    out
}

fn run_in(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    path: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let s = setup(kind, path)?;
    let reps = kind.setup_reps();
    let mut setups = vec![s.times];
    // later set-ups run between rounds and must build the same library
    let set_up_again = |setups: &mut Vec<SetupTimes>| -> Result<(), String> {
        let x = setup(kind, path)?;
        if x.library.to_text() != s.library.to_text() {
            return Err("set-ups with one seed built different libraries".into());
        }
        setups.push(x.times);
        Ok(())
    };
    let med = |setups: &[SetupTimes], f: fn(&SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>())
    };
    let s = &s;
    let universe = universe(kind, seed, s)?;
    let stream = stream(kind, universe.len(), seed);
    let n = universe.len();
    let mut rounds = Rounds {
        kind,
        stream,
        samples: Vec::with_capacity(MAX_SAMPLES),
        lookups: 0,
        lookup_s: 0.0,
        drain_s: 0.0,
        drained_jobs: 0,
        wall_s: Vec::new(),
        traced_wall_s: Vec::new(),
        traced_lookup_s: 0.0,
        checked: HashMap::new(),
        served_ln: vec![Vec::new(); n],
        records_end: 0,
        tune_jobs: 0,
        swaps: 0,
        repeat_share: 0.0,
        dispatch: DispatchStats::default(),
        universe,
    };
    if trace {
        let mut spans = Spans::default();
        let t_run = Instant::now();
        while rounds.traced_wall_s.is_empty() || t_run.elapsed().as_secs_f64() < seconds {
            rounds.run(s, out, None);
            rounds.run(s, out, Some(&mut spans));
        }
        while setups.len() < reps {
            set_up_again(&mut setups)?;
        }
        traced_metrics(&rounds, &spans, out);
        out.set("library.save_s", med(&setups, |x| x.save_s), "s");
        out.set("library.load_s", med(&setups, |x| x.load_s), "s");
        out.set("library.records_setup", s.library.len() as f64, "count");
        out.set(
            "library.unapplied_step_records",
            s.unapplied as f64,
            "count",
        );
        return Ok(());
    }
    while rounds.wall_s.is_empty() || rounds.lookup_s < seconds {
        if rounds.lookup_s >= setups.len() as f64 * seconds / reps as f64 {
            set_up_again(&mut setups)?;
        }
        rounds.run(s, out, None);
    }
    while setups.len() < reps {
        set_up_again(&mut setups)?;
    }
    let lat: Vec<f64> = rounds.samples.iter().map(|x| f64::from(x.ms)).collect();
    let (tail, beyond) = percentile(&lat, kind.tail());
    if beyond < 10 {
        eprintln!(
            "perfbench: only {beyond} samples beyond p{}",
            kind.tail() * 100.0
        );
    }
    let mut per_query = vec![Vec::new(); n];
    for x in &rounds.samples {
        per_query[x.query as usize].push(f64::from(x.ms));
    }
    let medians: Vec<f64> = per_query
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    let served: Vec<f64> = rounds
        .served_ln
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| (v.iter().sum::<f64>() / v.len() as f64).exp())
        .collect();
    let tuned: Vec<f64> = s.library.records().map(|r| r.naive_cost / r.cost).collect();
    out.set("setup_s", med(&setups, |x| x.total_s), "s");
    out.set(
        "evals_per_s",
        s.evals as f64 / med(&setups, |x| x.build_s),
        "1/s",
    );
    out.set("tuned_speedup", geomean(&tuned), "x");
    out.set("ops_per_s", rounds.lookups as f64 / rounds.lookup_s, "1/s");
    out.set("op_ms", geomean(&medians), "ms");
    out.set("op_tail_ms", tail, "ms");
    out.set("served_speedup", geomean(&served), "x");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(())
}

fn traced_metrics(rounds: &Rounds, spans: &Spans, out: &mut Outcome) {
    let n = rounds.traced_wall_s.len() as f64;
    for (metric, span) in [
        ("interp.verify_us", "interp.verify"),
        ("library.sig_us", "library.sig"),
        ("library.naive_cost_us", "library.naive_cost"),
        ("library.get_us", "library.get"),
        ("transform.replay_us", "transform.replay"),
        ("ir.validate_us", "ir.validate"),
        ("machine.evaluate_us", "machine.evaluate"),
        ("library.fit_us", "library.fit"),
        ("library.nearest_us", "library.nearest"),
        ("search.heuristic_us", "search.heuristic"),
    ] {
        out.set(metric, spans.mean_us(span), "us");
    }
    for (metric, span) in [
        ("interp.verify_calls", "interp.verify"),
        ("library.fit_calls", "library.fit"),
        ("library.nearest_calls", "library.nearest"),
        ("search.heuristic_calls", "search.heuristic"),
    ] {
        out.set(metric, spans.count(span) as f64 / n, "count");
    }
    let d = &rounds.dispatch;
    let tried = d.parameterized_hits + d.parameterized_rejects;
    out.set(
        "library.param_reject_ratio",
        if tried == 0 {
            0.0
        } else {
            d.parameterized_rejects as f64 / tried as f64
        },
        "ratio",
    );
    for (tier, count) in TIERS.iter().zip([
        d.exact_hits,
        d.parameterized_hits,
        d.replay_hits,
        d.heuristic_serves,
        d.naive_serves,
    ]) {
        let lat: Vec<f64> = rounds
            .samples
            .iter()
            .filter(|x| x.tier == *tier)
            .map(|x| f64::from(x.ms) * 1e3)
            .collect();
        let lat = if lat.is_empty() { 0.0 } else { median(&lat) };
        out.set(&format!("library.lookup_us.{}", tier.tag()), lat, "us");
        out.set(
            &format!("library.tier_count.{}", tier.tag()),
            count as f64 / n,
            "count",
        );
    }
    out.set("library.records_end", rounds.records_end as f64, "count");
    let drains = rounds.drained_jobs.max(1) as f64;
    out.set("serve.drain_s_per_job", rounds.drain_s / drains, "s");
    out.set("serve.tune_jobs", rounds.tune_jobs as f64, "count");
    out.set("serve.swaps", rounds.swaps as f64, "count");
    out.set("serve.repeat_share", rounds.repeat_share, "ratio");
    let untraced_wall = rounds.wall_s.iter().sum::<f64>() / rounds.wall_s.len() as f64;
    let traced_wall = rounds.traced_wall_s.iter().sum::<f64>() / n;
    let untraced_lookup = rounds.lookup_s / rounds.wall_s.len() as f64;
    let traced_lookup = rounds.traced_lookup_s / n;
    let layers: f64 = [
        "library.sig",
        "library.naive_cost",
        "library.get",
        "transform.replay",
        "ir.validate",
        "machine.evaluate",
        "interp.verify",
        "library.fit",
        "library.nearest",
        "search.heuristic",
    ]
    .iter()
    .map(|s| spans.total_s(s))
    .sum::<f64>()
        / n;
    out.set(
        "trace.overhead_share",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    out.set("trace.top_share", traced_lookup / untraced_lookup, "ratio");
    out.set("trace.layer_share", layers / traced_lookup, "ratio");
}
