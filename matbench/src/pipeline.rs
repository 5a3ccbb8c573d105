//! One job through the public pipeline, from `.mat` source text to a checked
//! result: `parse_program` → `analyze` → `parsing_phase` → `Lowering::run` →
//! collect → check against the reference.
//!
//! The same code runs traced and untraced. Traced, it takes an `Instant` at
//! every layer boundary (the benchmark's own spans around its calls into each
//! layer); untraced, it takes only the two that bound the job.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::{Bag, Engine, StatsSnapshot};
use matryoshka_ir::{analyze, parse_program, parsing_phase, Dialect, Lowering, RtVal, Value};

/// Host time spent in each layer of one traced job.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `ir.syntax`: `parse_program`.
    pub parse: Duration,
    /// `ir.analyze`: `analyze` (type/shape check and diagnostics).
    pub analyze: Duration,
    /// `ir.parse`: `parsing_phase` (the flattening rewrite).
    pub flatten: Duration,
    /// `ir.lower`: `Lowering::run`, with the engine jobs it launches.
    pub run: Duration,
    /// `engine`: collecting the result bag.
    pub collect: Duration,
    /// The benchmark's comparison against the reference, including dropping
    /// the result.
    pub check: Duration,
}

impl Spans {
    /// Sum of every span.
    pub fn sum(&self) -> Duration {
        self.parse + self.analyze + self.flatten + self.run + self.collect + self.check
    }

    /// Add another job's spans into this one.
    pub fn add(&mut self, o: &Spans) {
        self.parse += o.parse;
        self.analyze += o.analyze;
        self.flatten += o.flatten;
        self.run += o.run;
        self.collect += o.collect;
        self.check += o.check;
    }
}

/// What one job cost.
#[derive(Debug, Clone, Copy)]
pub struct JobCost {
    /// Host time from program text to a checked result.
    pub total: Duration,
    /// Per-layer spans, when the job ran traced.
    pub spans: Option<Spans>,
    /// Engine counters consumed by the job.
    pub stats: StatsSnapshot,
    /// Simulated seconds the job charged to the engine clock.
    pub sim_s: f64,
}

/// Boundary timestamps, taken only when tracing.
struct Marks(Option<Vec<Instant>>);

impl Marks {
    fn new(traced: bool) -> Marks {
        Marks(traced.then(|| Vec::with_capacity(8)))
    }

    fn mark(&mut self) {
        if let Some(v) = &mut self.0 {
            v.push(Instant::now());
        }
    }

    fn spans(self, start: Instant) -> Option<Spans> {
        let v = self.0?;
        let d = |i: usize| v[i] - if i == 0 { start } else { v[i - 1] };
        Some(Spans {
            parse: d(0),
            analyze: d(1),
            flatten: d(2),
            run: d(3),
            collect: d(4),
            check: d(5),
        })
    }
}

/// A program, its inputs, and the engine that runs it.
pub struct Job<'a> {
    /// Program source text.
    pub src: &'a str,
    /// Engine holding the parallelized inputs.
    pub engine: &'a Engine,
    /// Input bags by source name.
    pub inputs: &'a HashMap<String, Bag<Value>>,
}

/// The result of a job, before checking.
pub enum Output {
    /// The program produced a bag; its collected rows.
    Rows(Vec<Value>),
    /// The program produced a scalar.
    Scalar(Value),
}

impl Job<'_> {
    /// Run the job. `check` compares the output with the reference and
    /// returns whether it matched. A job that fails anywhere before the check
    /// returns the error; the caller counts it as failed.
    pub fn run(
        &self,
        traced: bool,
        check: impl FnOnce(Output) -> bool,
    ) -> Result<(JobCost, bool), String> {
        let sources: Vec<String> = self.inputs.keys().cloned().collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let stats0 = self.engine.stats();
        let sim0 = self.engine.sim_time();
        let mut marks = Marks::new(traced);

        let start = Instant::now();
        let ast = parse_program(self.src).map_err(|e| format!("parse: {e}"))?;
        marks.mark();
        let analysis = analyze(&ast, &refs, Dialect::Matryoshka);
        if analysis.diagnostics.has_errors() {
            return Err(format!("analyze: {}", analysis.diagnostics));
        }
        marks.mark();
        let flat =
            parsing_phase(&ast, &refs, Dialect::Matryoshka).map_err(|e| format!("flatten: {e}"))?;
        marks.mark();
        let out = Lowering::new(self.engine.clone(), MatryoshkaConfig::optimized())
            .run(&flat, self.inputs)
            .map_err(|e| format!("lower: {e}"))?;
        marks.mark();
        let output = match out {
            RtVal::Bag(b) => Output::Rows(b.collect().map_err(|e| format!("collect: {e}"))?),
            RtVal::Scalar(v) => Output::Scalar(v),
            RtVal::Nested(_) => return Err("program produced a nested bag".to_string()),
        };
        marks.mark();
        let ok = check(output);
        marks.mark();
        let total = start.elapsed();

        let cost = JobCost {
            total,
            spans: marks.spans(start),
            stats: self.engine.stats().since(&stats0),
            sim_s: (self.engine.sim_time().as_nanos() - sim0.as_nanos()) as f64 * 1e-9,
        };
        Ok((cost, ok))
    }
}
