//! The batch workloads (`bounce_rate`, `group_fixpoint`): one program run
//! again and again on one engine, each run timed from source text to a
//! checked result.

use std::collections::HashMap;
use std::time::Instant;

use matryoshka_engine::{Bag, Engine};
use matryoshka_ir::Value;

use crate::pipeline::{Job, JobCost, Output};
use crate::report::{Report, Tally};

/// Set-ups timed in one untraced run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Fewest timed jobs in a run, so the tail percentile has ten samples
/// beyond it.
const MIN_JOBS: usize = 11;

/// Whether a measuring loop that started at `start` goes on: until `seconds`
/// have passed and it has [`MIN_JOBS`] samples, but never past four times
/// `seconds`, so a run whose jobs all fail still ends.
pub fn keep_going(start: Instant, seconds: f64, samples: usize) -> bool {
    let t = start.elapsed().as_secs_f64();
    t < seconds || (samples < MIN_JOBS && t < 4.0 * seconds)
}

/// A batch workload: its program, its input generator, and an independent
/// reference.
pub trait Workload {
    /// Program source text.
    const PROGRAM: &'static str;
    /// The one source name the program reads.
    const SOURCE: &'static str;
    /// The generated input, in plain Rust types.
    type Raw;
    /// What [`Workload::check`] compares against.
    type Expected;

    /// Generate the input from the workload seed.
    fn generate(seed: u64) -> Self::Raw;
    /// The input as the program's rows.
    fn rows(raw: &Self::Raw) -> Vec<Value>;
    /// The expected result, computed without the IR or the lifted operators.
    fn reference(raw: &Self::Raw) -> Self::Expected;
    /// Whether the program's output matches the reference.
    fn check(expected: &Self::Expected, out: Output) -> bool;
    /// The same computation written by hand against the engine's typed `Bag`
    /// API, as a closure that runs it once and checks it.
    fn hand_flattened<'a>(
        engine: &Engine,
        raw: &Self::Raw,
        expected: &'a Self::Expected,
    ) -> Box<dyn Fn() -> bool + 'a>;
}

/// A bag output of `(Long key, x)` rows as pairs sorted by key, or `None` if
/// the output has another shape.
pub fn long_pairs<T>(out: Output, second: impl Fn(&Value) -> Option<T>) -> Option<Vec<(i64, T)>> {
    let Output::Rows(rows) = out else { return None };
    let mut pairs = rows
        .iter()
        .map(|r| Some((r.proj_ref(0).ok()?.as_long().ok()?, second(r.proj_ref(1).ok()?)?)))
        .collect::<Option<Vec<_>>>()?;
    pairs.sort_by_key(|(k, _)| *k);
    Some(pairs)
}

struct Setup<R> {
    raw: R,
    engine: Engine,
    inputs: HashMap<String, Bag<Value>>,
}

/// Generate the input and parallelize it onto a fresh engine; returns the
/// set-up and its seconds.
fn setup<W: Workload>(seed: u64) -> (Setup<W::Raw>, f64) {
    let t = Instant::now();
    let raw = W::generate(seed);
    let engine = Engine::local();
    let bag = engine.parallelize(W::rows(&raw), engine.config().default_parallelism);
    let dt = t.elapsed().as_secs_f64();
    let inputs = HashMap::from([(W::SOURCE.to_string(), bag)]);
    (Setup { raw, engine, inputs }, dt)
}

/// Run workload `W` for `seconds` and report its end-to-end metrics, or with
/// `traced` its per-layer metrics.
pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool) -> Report {
    let (s, first_setup) = setup::<W>(seed);
    let expected = W::reference(&s.raw);
    let job = Job { src: W::PROGRAM, engine: &s.engine, inputs: &s.inputs };
    let once = |traced: bool, tally: &mut Tally| -> Option<JobCost> {
        match job.run(traced, |out| W::check(&expected, out)) {
            Ok((cost, ok)) => tally.record(ok, "program").then_some(cost),
            Err(e) => {
                tally.error(e);
                None
            }
        }
    };
    let mut tally = Tally::default();
    // Warm-up: the first job starts the worker pool and faults in memory.
    once(false, &mut tally);

    if !traced {
        // The further set-ups are spread over the measured window, between
        // jobs, so they meet the same host conditions as the jobs do.
        let mut setups = vec![first_setup];
        let (mut totals, mut spent) = (Vec::new(), 0.0);
        let start = Instant::now();
        while keep_going(start, seconds, totals.len()) {
            if let Some(c) = once(false, &mut tally) {
                totals.push(c.total.as_secs_f64());
            }
            if setups.len() < SETUPS
                && start.elapsed().as_secs_f64() >= seconds * setups.len() as f64 / SETUPS as f64
            {
                let t = Instant::now();
                setups.push(setup::<W>(seed).1);
                spent += t.elapsed().as_secs_f64();
            }
        }
        let jobs_per_s = totals.len() as f64 / (start.elapsed().as_secs_f64() - spent);
        let mut report = Report::new(tally);
        report.end_to_end(&totals, jobs_per_s, &setups);
        return report;
    }

    // Traced: untraced job, traced job and hand-flattened run in turn, so
    // drift on the host affects all three alike.
    let hand = W::hand_flattened(&s.engine, &s.raw, &expected);
    let (mut untraced, mut costs, mut hand_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while keep_going(start, seconds, costs.len()) {
        if let Some(c) = once(false, &mut tally) {
            untraced.push(c.total.as_secs_f64());
        }
        if let Some(c) = once(true, &mut tally) {
            costs.push(c);
        }
        let t = Instant::now();
        let ok = hand();
        let dt = t.elapsed().as_secs_f64();
        if tally.record(ok, "hand-flattened") {
            hand_s.push(dt);
        }
    }
    let mut report = Report::new(tally);
    report.layers(&costs, &untraced, &hand_s, None);
    report.notes.push(format!("set-up {first_setup:.6} s"));
    report
}
